import dataclasses
import math
import pickle
import random
from unittest import mock

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from platformsim import decisions, runner
from platformsim.config import (BayesFutRule, BayesSAFutRule, BayesSASupRule,
                                BayesSupRule, BetaPrior, CISupFutRule,
                                ComparisonRules, DecisionRuleSet, EstSupFutRule,
                                FreqFutRule, FreqSupRule, load_scenario, scenario_to_dict)
from platformsim.decisions import (ARM_ORDER, COMPARISON_ARMS, CONTINUE, FINAL, GO, INTERIM,
                                   STOP_FUTILITY, UNSUCCESSFUL_MAX_N, AnalysisPlan,
                                   ComparisonData, ComparisonOutcome, combine,
                                   comparison_outcome, evaluate_cohort, explain, is_superior)
from platformsim.reporting import spec_hash

from conftest import any_comparison_rules

PRIOR = BetaPrior(1.0, 1.0)
STRONG = (90, 10, 10, 90)     # overwhelming treatment effect
EQUAL = (20, 30, 20, 30)


class TestBayesSup:
    def test_overwhelming_data(self):
        rule = BayesSupRule(rows=((0.10, 0.80, 1.00),))
        trace = rule.evaluate(STRONG, PRIOR)
        assert trace.superior and trace.satisfied
        assert trace.statistic[0] > 0.999

    def test_identical_arms_not_superior(self):
        rule = BayesSupRule(rows=((0.10, 0.80, 1.00),))
        trace = rule.evaluate(EQUAL, PRIOR)
        assert not trace.superior
        assert trace.statistic[0] < 0.5

    def test_promising_boundary_one_never_crossed(self):
        # P(X > Y + 0.1) ~ 0.833 for (30/50 vs 20/50): below conf, and a
        # promising bound of 1.00 can never be crossed
        rule = BayesSupRule(rows=((0.10, 0.90, 1.00),))
        trace = rule.evaluate((30, 20, 20, 30), PRIOR)
        assert not trace.superior and not trace.promising

    def test_promising_threshold_crossed(self):
        rule = BayesSupRule(rows=((0.10, 0.90, 0.50),))
        trace = rule.evaluate((30, 20, 20, 30), PRIOR)
        assert not trace.superior and trace.promising

    def test_multi_row_all_must_hold(self):
        rule = BayesSupRule(rows=((0.10, 0.80, 1.00), (0.50, 0.80, 1.00)))
        trace = rule.evaluate((30, 20, 20, 30), PRIOR)
        assert not trace.superior  # the 0.50 margin row fails
        single = BayesSupRule(rows=((0.10, 0.80, 1.00),))
        assert single.evaluate((30, 20, 20, 30), PRIOR).superior


class TestBayesFut:
    def test_identical_arms_futile_at_point6(self):
        rule = BayesFutRule(rows=((0.00, 0.60),))
        trace = rule.evaluate(EQUAL, PRIOR)
        assert trace.futile  # P = 0.5 < 0.6

    def test_strong_effect_not_futile(self):
        rule = BayesFutRule(rows=((0.00, 0.60),))
        assert not rule.evaluate(STRONG, PRIOR).futile


class TestBayesSingleArm:
    # a rule is evaluated only with a patient on both arms; the single-arm
    # probability reads the treatment arm alone
    def test_sa_sup_two_rows(self):
        rule = BayesSASupRule(rows=((0.05, 0.70, 1.00), (0.10, 0.50, 1.00)))
        # posterior Beta(31, 21)
        trace = rule.evaluate((30, 20, 0, 1), PRIOR)
        assert trace.superior
        assert trace == rule.evaluate((30, 20, 40, 9), PRIOR)

    def test_sa_fut_no_responders(self):
        rule = BayesSAFutRule(rows=((0.10, 0.50),))
        # posterior Beta(1, 51)
        trace = rule.evaluate((0, 50, 0, 1), PRIOR)
        assert trace.futile
        assert trace.statistic[0] == pytest.approx(0.9 ** 51, rel=1e-9)

    def test_sa_sup_zero_threshold_always_holds(self):
        rule = BayesSASupRule(rows=((0.0, 0.99, 1.00),))
        assert rule.evaluate((0, 10, 0, 1), PRIOR).superior


class TestFreqRules:
    def test_bonferroni_halving(self):
        # table p-value = 0.0227513...
        sup = FreqSupRule(p_sup=0.05, p_adj="bonferroni_half")
        # 0.0228 < 0.025
        assert sup.evaluate((30, 20, 20, 30), PRIOR).superior
        tight = FreqSupRule(p_sup=0.04, p_adj="bonferroni_half")
        # 0.0228 >= 0.02
        assert not tight.evaluate((30, 20, 20, 30), PRIOR).superior

    def test_no_adjustment(self):
        sup = FreqSupRule(p_sup=0.025, p_adj="none")
        assert sup.evaluate((30, 20, 20, 30), PRIOR).superior

    def test_promising_level_zero_never(self):
        sup = FreqSupRule(p_sup=1e-9, p_prom=0.0)
        trace = sup.evaluate((30, 20, 20, 30), PRIOR)
        assert not trace.superior and not trace.promising

    def test_futility_boundary_inclusive(self):
        fut = FreqFutRule(p_fut=0.5, p_adj="none")
        assert fut.evaluate(EQUAL, PRIOR).futile  # p == 0.5 -> stop


class TestEstRule:
    RULE = EstSupFutRule(est="RR", p_hat_sup=1.2, p_hat_fut=1.0)

    def test_superior(self):
        trace = self.RULE.evaluate((30, 20, 20, 30), PRIOR)  # RR 1.5
        assert trace.superior and not trace.futile

    def test_futile_at_boundary(self):
        trace = self.RULE.evaluate(EQUAL, PRIOR)  # RR 1.0 <= 1.0
        assert trace.futile and not trace.superior

    def test_gap_neither(self):
        trace = self.RULE.evaluate((11, 39, 10, 40), PRIOR)  # RR 1.1
        assert not trace.superior and not trace.futile


class TestCIRule:
    RULE = CISupFutRule(est="RR", level=0.95, lower_sup=1.2, upper_fut=1.0)

    def test_strong_effect_superior(self):
        trace = self.RULE.evaluate((40, 10, 10, 40), PRIOR)
        assert trace.superior

    def test_identical_arms_futile(self):
        trace = self.RULE.evaluate(EQUAL, PRIOR)
        assert trace.futile  # CI contains 1

    def test_promising_inf_never(self):
        trace = self.RULE.evaluate((40, 10, 10, 40), PRIOR)
        assert not trace.promising


def comparison_rules(bayes_sup_margin=None, bayes_fut_conf=None, est=False):
    kwargs = {}
    if bayes_sup_margin is not None:
        kwargs["bayes_sup"] = (BayesSupRule(rows=((bayes_sup_margin, 0.80, 1.00),)),)
    if bayes_fut_conf is not None:
        kwargs["bayes_fut"] = (BayesFutRule(rows=((0.00, bayes_fut_conf),)),)
    if est:
        kwargs["est_sup_fut"] = (EstSupFutRule(est="RR", p_hat_sup=1.0, p_hat_fut=1.0),)
    return ComparisonRules(**kwargs)


def plan_of(stage_rules, prior=PRIOR):
    """A plan whose interim and final stages both hold ``stage_rules``."""
    return AnalysisPlan(DecisionRuleSet(tuple(stage_rules), tuple(stage_rules)), prior)


def data_for(comparison, table):
    return ComparisonData(*table, comparison)


def decide(stage_rules, data, stage):
    """The decision a dump shows (``explain``), whose verdict must be the
    one ``evaluate_cohort`` gives from the rules it needs."""
    plan = plan_of(stage_rules)
    decision = explain(plan, data, stage)
    assert evaluate_cohort(plan, data, stage) == (decision.verdict, stage)
    return decision


class TestCombine:
    def all_sup_rules(self):
        return tuple(comparison_rules(bayes_sup_margin=m) for m in (0.10, 0.10, 0.05, 0.05))

    def test_all_superior_is_go_at_interim(self):
        rules = self.all_sup_rules()
        data = tuple(data_for(i, STRONG) for i in range(1, 5))
        decision = decide(rules, data, INTERIM)
        assert decision.verdict == GO

    def test_any_futility_stops(self):
        rules = tuple(comparison_rules(bayes_sup_margin=0.10, bayes_fut_conf=0.60)
                      for _ in range(4))
        # one equal comparison trips its futility rule
        data = tuple(data_for(i, EQUAL if i == 4 else STRONG) for i in range(1, 5))
        decision = decide(rules, data, INTERIM)
        assert decision.verdict == STOP_FUTILITY

    def test_final_neither_is_unsuccessful(self):
        rules = self.all_sup_rules()
        weak = (22, 28, 20, 30)  # too weak for the margin
        data = tuple(data_for(i, weak if i == 3 else STRONG) for i in range(1, 5))
        decision = decide(rules, data, FINAL)
        assert decision.verdict == UNSUCCESSFUL_MAX_N
        assert "superiority criterion" in decision.note

    def test_interim_neither_continues(self):
        rules = self.all_sup_rules()
        weak = (22, 28, 20, 30)
        data = tuple(data_for(i, weak if i == 3 else STRONG) for i in range(1, 5))
        assert decide(rules, data, INTERIM).verdict == CONTINUE

    def test_simultaneous_go_and_stop_resolves_to_stop(self):
        # est rule with sup threshold == fut threshold fires both at RR = 1.5... no:
        # RR 1.5 >= 1.0 (sup) and not <= 1.0; use fut threshold above sup threshold
        rules = (ComparisonRules(est_sup_fut=(EstSupFutRule("RR", p_hat_sup=1.2,
                                                            p_hat_fut=2.0),),),
                 ComparisonRules(), ComparisonRules(), ComparisonRules())
        data = (data_for(1, (30, 20, 20, 30)),)  # RR 1.5: sup and fut both true
        decision = decide(rules, data, INTERIM)
        assert decision.verdict == STOP_FUTILITY
        assert "conservative" in decision.note

    def test_no_sup_rules_configured_never_go(self):
        # futility-only interim rule set: strong data must CONTINUE, not GO
        rules = tuple(comparison_rules(bayes_fut_conf=0.60) for _ in range(4))
        data = tuple(data_for(i, STRONG) for i in range(1, 5))
        assert decide(rules, data, INTERIM).verdict == CONTINUE

    def test_absent_comparisons_skipped(self):
        # a comparison without rules adds no trace and cannot block GO
        rules = (comparison_rules(bayes_sup_margin=0.10), ComparisonRules(),
                 ComparisonRules(), ComparisonRules())
        data = tuple(data_for(i, STRONG) for i in range(1, 5))
        decision = decide(rules, data, INTERIM)
        assert decision.verdict == GO
        assert len(decision.comparisons) == 4  # one outcome per record, in order
        assert [len(o.traces) for o in decision.comparisons] == [1, 0, 0, 0]

    def test_arm_absent_comparisons_skipped(self):
        rules = tuple(comparison_rules(bayes_sup_margin=0.10, bayes_fut_conf=0.60)
                      for _ in range(4))
        data = (data_for(1, STRONG), data_for(2, STRONG))
        decision = decide(rules, data, INTERIM)
        assert decision.verdict == GO

    @pytest.mark.parametrize("empty", [(5, 5, 0, 0), (0, 0, 5, 5), (0.5, 0, 5, 5)])
    def test_empty_arm_raises(self, empty):
        # single-arm rules too: every analysed comparison has patients on both arms
        rules = (comparison_rules(bayes_sup_margin=0.10),
                 ComparisonRules(bayes_sa_sup=(BayesSASupRule(rows=((0.1, 0.5, 1.0),)),)),
                 ComparisonRules(), ComparisonRules())
        data = (data_for(1, STRONG), data_for(2, empty))
        for evaluate in (evaluate_cohort, explain):
            with pytest.raises(ValueError, match="fewer than one patient"):
                evaluate(plan_of(rules), data, INTERIM)

    def test_combine_permutation_invariant(self):
        rules = tuple(comparison_rules(bayes_sup_margin=0.10, bayes_fut_conf=0.60)
                      for _ in range(4))
        data = tuple(data_for(i, EQUAL if i == 2 else STRONG) for i in range(1, 5))
        outcomes = list(decide(rules, data, INTERIM).comparisons)
        verdict = combine(outcomes, INTERIM).verdict
        rng = random.Random(0)
        for _ in range(5):
            shuffled = outcomes[:]
            rng.shuffle(shuffled)
            assert combine(shuffled, INTERIM).verdict == verdict

    def test_adding_sup_rule_never_creates_go(self):
        base = (comparison_rules(bayes_sup_margin=0.10), ComparisonRules(),
                ComparisonRules(), ComparisonRules())
        data = (data_for(1, (26, 24, 20, 30)),)
        base_verdict = decide(base, data, INTERIM).verdict
        extended = (ComparisonRules(
            bayes_sup=base[0].bayes_sup + (BayesSupRule(rows=((0.5, 0.99, 1.0),)),)),
            ComparisonRules(), ComparisonRules(), ComparisonRules())
        new_verdict = decide(extended, data, INTERIM).verdict
        if base_verdict != GO:
            assert new_verdict != GO

    def test_adding_fut_rule_never_removes_stop(self):
        base = (comparison_rules(bayes_sup_margin=0.10, bayes_fut_conf=0.60),
                ComparisonRules(), ComparisonRules(), ComparisonRules())
        data = (data_for(1, EQUAL),)
        assert decide(base, data, INTERIM).verdict == STOP_FUTILITY
        extended = (ComparisonRules(
            bayes_sup=base[0].bayes_sup, bayes_fut=base[0].bayes_fut +
            (BayesFutRule(rows=((0.0, 0.01),)),)),
            ComparisonRules(), ComparisonRules(), ComparisonRules())
        assert decide(extended, data, INTERIM).verdict == STOP_FUTILITY

    def test_trace_complete_one_entry_per_rule(self):
        rules = (ComparisonRules(
            bayes_sup=(BayesSupRule(rows=((0.1, 0.8, 1.0),)),),
            bayes_fut=(BayesFutRule(rows=((0.0, 0.6),)),),
            bayes_sa_sup=(BayesSASupRule(rows=((0.1, 0.5, 1.0),)),),
            bayes_sa_fut=(BayesSAFutRule(rows=((0.1, 0.5),)),),
            freq_sup=(FreqSupRule(p_sup=0.1),),
            freq_fut=(FreqFutRule(p_fut=0.5),),
            est_sup_fut=(EstSupFutRule("RR", 1.2, 1.0),),
            ci_sup_fut=(CISupFutRule("RR", 0.95, 1.2, 1.0),)),
            ComparisonRules(), ComparisonRules(), ComparisonRules())
        data = (data_for(1, STRONG),)
        decision = decide(rules, data, INTERIM)
        kinds = sorted(t.kind for o in decision.comparisons for t in o.traces)
        assert kinds == sorted(["bayes_sup", "bayes_fut", "bayes_sa_sup", "bayes_sa_fut",
                                "freq_sup", "freq_fut", "est_sup_fut", "ci_sup_fut"])

    def test_promising_flag_all_comparisons(self):
        rules = tuple(ComparisonRules(
            bayes_sup=(BayesSupRule(rows=((0.0, 0.99999, 0.60),)),),) for _ in range(4))
        data = tuple(data_for(i, (35, 15, 20, 30)) for i in range(1, 5))
        decision = decide(rules, data, INTERIM)
        assert decision.verdict == CONTINUE
        assert decision.promising


# --- the analysis plan: analysed comparisons and the memo of outcomes ---------

PRIORS = (PRIOR, BetaPrior(0.5, 0.5))  # uniform and Jeffreys
_counts = st.integers(0, 120)
TABLES = st.one_of(st.tuples(*[_counts] * 4),                          # integer cells
                   st.tuples(*[_counts.map(float)] * 4),               # integer-valued floats
                   st.tuples(*[st.integers(0, 12000).map(lambda k: k / 100)] * 4)  # fractional
                   ).filter(lambda c: c[0] + c[1] >= 1 and c[2] + c[3] >= 1)  # both arms enrolled
ACTIVE_RULES = any_comparison_rules(max_per_kind=1).filter(lambda r: not r.empty)
ARM_SETS = [tuple(a for i, a in enumerate(ARM_ORDER) if mask >> i & 1) for mask in range(16)]


def assert_same_outcome(got, want):
    """Field by field, bit for bit (repr round-trips every float exactly)."""
    for f in dataclasses.fields(ComparisonOutcome):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


class TestPlanComparisons:
    @given(st.lists(any_comparison_rules(max_per_kind=1), min_size=8, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_comparisons_match_their_definition(self, rules):
        plan = AnalysisPlan(DecisionRuleSet(tuple(rules[:4]), tuple(rules[4:])), PRIOR)
        for stage, stage_rules in ((INTERIM, rules[:4]), (FINAL, rules[4:])):
            for arms in ARM_SETS:
                got = plan.comparisons(arms, stage)
                # both arms in the cohort and at least one rule configured
                assert got == tuple(c for c in (1, 2, 3, 4)
                                    if set(COMPARISON_ARMS[c]) <= set(arms)
                                    and len(list(stage_rules[c - 1])) > 0)
                assert plan.comparisons(arms, stage) is got  # derived once


def rule_id_pairs(plan, stage, comparison):
    """(rule, its index among the plan's distinct rules) for every rule of a
    comparison that a verdict can ask about: futility-capable, then
    superiority-capable, each in field order."""
    rules = plan.rules.for_stage(stage)[comparison - 1]
    futility, superiority = plan.rule_ids[stage][comparison - 1]
    return (list(zip([r for r in rules if r.futility], futility))
            + list(zip([r for r in rules if r.superiority], superiority)))


def evaluated_flags(rule, cells, prior):
    trace = rule.evaluate(cells, prior)
    return trace.superior, trace.futile


class TestMemo:
    @given(st.lists(ACTIVE_RULES, min_size=2, max_size=2),
           st.lists(st.integers(0, 1), min_size=8, max_size=8), TABLES)
    @settings(max_examples=60, deadline=None)
    def test_memo_gives_each_input_its_own_uncached_flags(self, pool, picks, cells):
        # each comparison at each stage takes one of two rule sets, so rules are
        # equal across some comparisons and stages and unequal across others:
        # with every plan warm, each input is answered from its own rule and prior
        stage_rules = [pool[i] for i in picks]
        stages = (tuple(stage_rules[:4]), tuple(stage_rules[4:]))
        plans = [AnalysisPlan(DecisionRuleSet(*stages), prior) for prior in PRIORS]
        pairs = [(rule, rule_id) for stage in (INTERIM, FINAL) for comp in (1, 2, 3, 4)
                 for rule, rule_id in rule_id_pairs(plans[0], stage, comp)]
        assert all(rule_id_pairs(plan, INTERIM, 1) == rule_id_pairs(plans[0], INTERIM, 1)
                   for plan in plans)  # the indices do not depend on the prior
        first = [[plan.flags(rule_id, cells) for _, rule_id in pairs] for plan in plans]
        for plan, flags in zip(plans, first):
            for (rule, rule_id), got in zip(pairs, flags):
                assert got == plan.flags.__wrapped__(rule_id, cells)
                assert got == evaluated_flags(rule, cells, plan.prior)
                assert all(type(flag) is bool for flag in got)
                assert plan.flags(rule_id, cells) is got
                # integer cells and their float values share one entry: the
                # flags are the same either way
                as_float = tuple(float(c) for c in cells)
                assert plan.flags(rule_id, as_float) == plan.flags.__wrapped__(rule_id, as_float)
        # equal rules share one index, unequal rules never do
        for rule, rule_id in pairs:
            for other, other_id in pairs:
                assert (rule_id == other_id) == (rule == other)

    def test_equal_rules_share_one_entry(self):
        # equal values (not the same object) on comparisons 1 and 2 at both
        # stages and on comparison 4 at the final; other rules on the rest
        a, b = comparison_rules(bayes_sup_margin=0.10), comparison_rules(bayes_sup_margin=0.10)
        c = comparison_rules(bayes_sup_margin=0.30)
        plan = AnalysisPlan(DecisionRuleSet((a, b, c, c), (b, a, c, a)), PRIOR)
        interim, final = ([plan.rule_ids[stage][i][1] for i in range(4)]
                          for stage in (INTERIM, FINAL))
        assert interim[0] == interim[1] == final[0] == final[1] == final[3]
        assert interim[2] == interim[3] == final[2]
        assert interim[0] != interim[2]
        data = tuple(data_for(i, (30, 20, 20, 30)) for i in range(1, 5))
        assert [is_superior(plan, t, stage) for stage in (INTERIM, FINAL) for t in data] == [
            True, True, False, False, True, True, False, True]
        info = plan.flags.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 6, 2)

    def test_plans_do_not_share_flags(self):
        # the key leaves the prior out: another plan's entry must never answer.
        # The confidence lies between the two priors' probabilities, and the
        # other rules' margin is negative, so both plans' flags differ from the base's
        cells = (30, 20, 20, 30)
        probe = BayesSupRule(rows=((0.10, 0.5, 1.0),))
        p_uniform, p_jeffreys = (probe.evaluate(cells, prior).statistic[0]
                                 for prior in PRIORS)
        assert p_uniform < p_jeffreys
        conf = (p_uniform + p_jeffreys) / 2
        rules = (ComparisonRules(bayes_sup=(BayesSupRule(rows=((0.10, conf, 1.0),)),)),) * 4
        other = (comparison_rules(bayes_sup_margin=-0.30),) * 4
        base = AnalysisPlan(DecisionRuleSet(rules, rules), PRIOR)
        base_flags = base.flags(base.rule_ids[INTERIM][0][1][0], cells)
        assert base_flags == (False, False)
        for plan in (AnalysisPlan(DecisionRuleSet(rules, rules), BetaPrior(0.5, 0.5)),
                     AnalysisPlan(DecisionRuleSet(other, rules), PRIOR)):
            rule_id = plan.rule_ids[INTERIM][0][1][0]
            got = plan.flags(rule_id, cells)
            assert got == (True, False)
            assert got == plan.flags.__wrapped__(rule_id, cells)

    @given(ACTIVE_RULES, TABLES, st.sampled_from(PRIORS), st.floats(0.0, 1.0),
           st.integers(0, 60), st.integers(0, 60))
    @settings(max_examples=60, deadline=None)
    def test_outcome_reads_only_the_cells(self, rules, cells, prior, weight, ext_r, ext_n):
        # the purity the memo key relies on: an outcome reads nothing of the
        # record but its four cells, so sharing weight and pool stay out of it
        bare = ComparisonData(*cells, 2)
        shared = ComparisonData(*cells, 2, weight, float(ext_r), float(ext_r + ext_n))
        stage = (ComparisonRules(), rules, ComparisonRules(), ComparisonRules())
        (with_pool,) = explain(plan_of(stage, prior), (shared,), INTERIM).comparisons
        (bare_outcome,) = explain(plan_of(stage, prior), (bare,), INTERIM).comparisons
        assert_same_outcome(with_pool, bare_outcome)
        assert (evaluate_cohort(plan_of(stage, prior), (shared,), INTERIM)
                == evaluate_cohort(plan_of(stage, prior), (bare,), INTERIM))

    def test_each_run_starts_cold(self, example_spec, monkeypatch):
        # the same spec twice: a memo that outlived the first run would
        # answer every analysis of the second without the kernel
        first = runner.run_ocs(example_spec, 20, 3).to_json_dict()
        calls = []
        kernel = decisions.prob_greater_by_margin
        monkeypatch.setattr(decisions, "prob_greater_by_margin",
                            lambda *a: calls.append(a) or kernel(*a))
        assert runner.run_ocs(example_spec, 20, 3).to_json_dict() == first
        assert calls

    def test_memo_stays_within_its_bound(self, example_spec):
        platform = dataclasses.replace(example_spec.platform, sharing_type="dynamic",
                                       sr_drugs_pos=math.inf)
        spec = dataclasses.replace(example_spec, platform=platform)
        runner.run_ocs(spec, 700, 3)
        info = decisions.plan_for(spec.rules, spec.prior).flags.cache_info()
        assert info.misses > info.maxsize  # the bound was reached
        assert info.currsize <= info.maxsize


# --- lazy verdicts against every rule evaluated ---------------------------------

@st.composite
def analyses(draw):
    """A plan over up to two rules of every kind per comparison (or none), the
    records of some comparisons in random order with random tables, and a stage."""
    rules = draw(st.lists(any_comparison_rules(max_per_kind=2), min_size=8, max_size=8))
    plan = AnalysisPlan(DecisionRuleSet(tuple(rules[:4]), tuple(rules[4:])),
                        draw(st.sampled_from(PRIORS)))
    comparisons = draw(st.lists(st.sampled_from((1, 2, 3, 4)), unique=True, max_size=4))
    data = tuple(ComparisonData(*draw(TABLES), c) for c in comparisons)
    return plan, data, draw(st.sampled_from((INTERIM, FINAL)))


def eager_decision(plan, data, stage):
    """Every rule evaluated on every record, each comparison folded with
    all()/any(), and the outcomes combined."""
    outcomes = []
    for t in data:
        rules = list(plan.rules.for_stage(stage)[t.comparison - 1])
        traces = tuple(rule.evaluate(t[:4], plan.prior) for rule in rules)
        outcomes.append(ComparisonOutcome(*folded_outcome(rules, traces), traces=traces))
    return combine(outcomes, stage)


def needed_keys(plan, data, stage, decision):
    """The (rule, cells) pairs a verdict asks about, in order: futility-capable
    rules until one fires, then superiority-capable ones until one fails."""
    keys = []
    for capable, settles in (("futility", lambda tr: tr.futile),
                             ("superiority", lambda tr: not tr.superior)):
        for t, outcome in zip(data, decision.comparisons):
            rules = plan.rules.for_stage(stage)[t.comparison - 1]
            for rule, trace in zip(rules, outcome.traces):
                if getattr(rule, capable):
                    keys.append((rule, t[:4]))
                    if settles(trace):
                        return keys
    return keys


class TestLazyVerdict:
    @given(analyses())
    # no shrink phase: shrinking a failing rule set takes minutes before it reports
    @settings(max_examples=150, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_lazy_verdict_is_combine_over_every_rule(self, case):
        plan, data, stage = case
        want = eager_decision(plan, data, stage)
        assert evaluate_cohort(plan, data, stage) == (want.verdict, stage)
        # a cold plan evaluated exactly the rules the verdict needs, each once
        assert plan.flags.cache_info().misses == len(set(needed_keys(plan, data, stage, want)))
        for t, outcome in zip(data, want.comparisons):
            assert is_superior(plan, t, stage) == outcome.superior
        # the dumped decision: traces, promising and note as every rule gives them
        got = explain(plan, data, stage)
        assert repr(got) == repr(want)
        sup_bearing = [o for o in want.comparisons if o.n_sup_rules]
        go = bool(sup_bearing) and all(o.superior for o in sup_bearing)
        assert got.promising == ((not go) and bool(sup_bearing)
                                 and all(o.superior or o.promising for o in sup_bearing))
        futile = any(o.futile for o in want.comparisons)
        assert ("conservative" in got.note) == (futile and go)
        assert ("not reached" in got.note) == (got.verdict == UNSUCCESSFUL_MAX_N)

    @given(ACTIVE_RULES, TABLES, st.sampled_from(PRIORS))
    @settings(max_examples=60, deadline=None)
    def test_class_flags_bound_the_traces(self, rules, cells, prior):
        # a verdict asks a rule only what its class declares it can answer
        for rule in rules:
            trace = rule.evaluate(cells, prior)
            assert rule.futility or rule.superiority
            assert rule.futility or not trace.futile
            assert rule.superiority or not (trace.superior or trace.promising)

    def test_a_rule_the_verdict_does_not_need_cannot_fail_it(self):
        # comparison 1's futility rule fires first, so comparison 2's superiority
        # rule is never evaluated on its table with an empty arm: the verdict
        # stands, while explain, which evaluates every rule, raises
        rules = (comparison_rules(bayes_fut_conf=0.60), comparison_rules(bayes_sup_margin=0.10),
                 ComparisonRules(), ComparisonRules())
        data = (data_for(1, EQUAL), data_for(2, (5, 5, 0, 0)))
        plan = plan_of(rules)
        assert evaluate_cohort(plan, data, INTERIM) == (STOP_FUTILITY, INTERIM)
        assert plan.flags.cache_info().misses == 1
        with pytest.raises(ValueError, match="fewer than one patient"):
            explain(plan, data, INTERIM)


# --- one rule path: the memo's flags are the traces' flags ----------------------

#: tables whose arms often hold fewer than one patient
SPARSE_TABLES = st.tuples(*[st.integers(0, 6).map(lambda k: k / 4)] * 4)


def _forbidden(*args, **kwargs):
    raise AssertionError("a verdict built a rule trace")


class TestOneRulePath:
    @given(ACTIVE_RULES, st.one_of(TABLES, SPARSE_TABLES), st.sampled_from(PRIORS))
    # no shrink phase: shrinking a failing rule set takes minutes before it reports
    @settings(max_examples=150, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_flags_are_the_trace_flags(self, rules, cells, prior):
        # every kind's memo entry is its trace's (superior, futile); with an
        # arm below one patient both raise the same ValueError
        plan = plan_of((rules, ComparisonRules(), ComparisonRules(), ComparisonRules()), prior)
        pairs = rule_id_pairs(plan, INTERIM, 1)
        assert {rule.key for rule, _ in pairs} == {rule.key for rule in rules}
        empty = cells[0] + cells[1] < 1.0 or cells[2] + cells[3] < 1.0
        for rule, rule_id in pairs:
            if empty:
                with pytest.raises(ValueError, match="fewer than one patient") as want:
                    rule.evaluate(cells, prior)
                with pytest.raises(ValueError) as got:
                    plan.flags(rule_id, cells)
                assert str(got.value) == str(want.value)
            else:
                trace = rule.evaluate(cells, prior)
                assert plan.flags(rule_id, cells) == (trace.superior, trace.futile)

    @given(analyses())
    # no shrink phase: shrinking a failing rule set takes minutes before it reports
    @settings(max_examples=100, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_cold_verdict_builds_no_trace_or_table(self, case):
        plan, data, stage = case
        want = eager_decision(plan, data, stage)
        with mock.patch.object(decisions, "RuleTrace", _forbidden):
            assert evaluate_cohort(plan, data, stage) == (want.verdict, stage)
            assert [is_superior(plan, t, stage) for t in data] == [
                o.superior for o in want.comparisons]
        analysed = [t for t in data if not plan.rules.for_stage(stage)[t.comparison - 1].empty]
        assert (plan.flags.cache_info().misses > 0) == bool(analysed)


# --- one-pass verdicts against the all()/any() fold ----------------------------

def folded_flags(rule, probs):
    """(superior, futile, promising) of a Bayesian rule, folded row by row with all()."""
    if rule.superiority:
        superior = all(p > conf for p, (_, conf, _) in zip(probs, rule.rows))
        promising = (not superior) and all(p > prom for p, (_, _, prom) in zip(probs, rule.rows))
        return superior, False, promising
    return False, all(p < conf for p, (_, conf) in zip(probs, rule.rows)), False


def folded_outcome(rules, traces):
    """(superior, futile, promising, n_sup_rules) of one comparison, folded with all()/any()."""
    sup = [s for s, rule in zip(traces, rules) if rule.superiority]
    return (bool(sup) and all(s.superior for s in sup), any(s.futile for s in traces),
            bool(sup) and all(s.superior or s.promising for s in sup), len(sup))


EDGE_TABLE = (30, 20, 20, 30)
# each kind with the first column of its rows: margins, or single-arm thresholds
EDGE_KINDS = [(BayesSupRule, (-0.1, 0.0, 0.1)), (BayesFutRule, (-0.1, 0.0, 0.1)),
              (BayesSASupRule, (0.3, 0.5, 0.7)), (BayesSAFutRule, (0.3, 0.5, 0.7))]


def edge_prob(cls, first):
    """The probability a rule of ``cls`` computes for a row starting with ``first``."""
    probe = cls(rows=((first, 0.5, 1.0) if cls.superiority else (first, 0.5),))
    return probe.evaluate(EDGE_TABLE, PRIOR).statistic[0]


def near(p, pick):
    """The probability itself, the doubles either side of it, or 1.0."""
    return (p, math.nextafter(p, 0.0), math.nextafter(p, 1.0), 1.0)[pick]


class TestOnePassVerdicts:
    """Each Bayesian rule settles its flags in one loop over its rows and each outcome
    folds its traces in one pass, with the strict > and < of the all()/any() fold: a
    confidence equal to the probability is neither superior nor futile."""

    @given(st.sampled_from(EDGE_KINDS), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                                                           st.integers(0, 3)),
                                                 min_size=2, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_rules_match_the_fold(self, kind, picks):
        cls, firsts = kind
        probs = tuple(edge_prob(cls, firsts[i]) for i, _, _ in picks)
        rows = tuple((firsts[i], near(p, conf), near(p, prom))[:3 if cls.superiority else 2]
                     for p, (i, conf, prom) in zip(probs, picks))
        rule = cls(rows=rows)
        trace = rule.evaluate(EDGE_TABLE, PRIOR)
        assert trace.statistic == probs
        assert trace.threshold == tuple(row[1] for row in rows)
        flags = (trace.superior, trace.futile, trace.promising)
        assert flags == folded_flags(rule, probs)
        assert trace.satisfied == (trace.superior if rule.superiority else trace.futile)
        assert all(type(flag) is bool for flag in (*flags, trace.satisfied))

    def test_equality_is_neither_superior_nor_futile(self):
        p, held = edge_prob(BayesSupRule, 0.1), edge_prob(BayesSupRule, 0.0)
        assert 0.5 < p < held < 0.999
        for conf, superior in ((p, False), (math.nextafter(p, 0.0), True)):
            rule = BayesSupRule(rows=((0.0, 0.5, 1.0), (0.1, conf, 1.0)))
            assert rule.evaluate(EDGE_TABLE, PRIOR).superior is superior
        for conf, futile in ((p, False), (math.nextafter(p, 1.0), True)):
            rule = BayesFutRule(rows=((0.0, 0.999), (0.1, conf)))
            assert rule.evaluate(EDGE_TABLE, PRIOR).futile is futile

    def test_promising_confidence_one_is_never_crossed(self):
        rows = ((0.0, 0.5, 1.0), (0.1, 0.999, 1.0))
        assert not BayesSupRule(rows=rows).evaluate(EDGE_TABLE, PRIOR).promising
        rows = ((0.0, 0.5, 0.5), (0.1, 0.999, 0.5))
        assert BayesSupRule(rows=rows).evaluate(EDGE_TABLE, PRIOR).promising

    @given(ACTIVE_RULES, TABLES, st.sampled_from(PRIORS))
    @settings(max_examples=80, deadline=None)
    def test_outcome_matches_the_fold(self, rules, cells, prior):
        got = comparison_outcome(rules, cells, prior)
        flags = (got.superior, got.futile, got.promising, got.n_sup_rules)
        assert flags == folded_outcome(list(rules), got.traces)
        assert all(type(flag) is bool for flag in flags[:3])

    def test_thresholds_stay_out_of_the_rules_identity(self, example_config_path):
        spec = load_scenario(example_config_path)
        bayes = [rule for stage in (spec.rules.interim, spec.rules.final) for rules in stage
                 for rule in rules if isinstance(rule, (BayesSupRule, BayesFutRule))]
        assert bayes

        def identity():
            return (scenario_to_dict(spec), spec_hash(spec), pickle.dumps(spec),
                    [hash(rule) for rule in bayes])

        before = identity()
        for rule in bayes:
            trace = rule.evaluate(EDGE_TABLE, spec.prior)
            assert trace.threshold == tuple(row[1] for row in rule.rows)
        assert identity() == before
        for rule in bayes:
            fresh = dataclasses.replace(rule)
            assert rule == fresh and hash(rule) == hash(fresh)
