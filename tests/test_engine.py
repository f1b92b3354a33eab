import dataclasses
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from platformsim import engine
from platformsim.config import (COMPARISON_KEYS, RANDOM_TYPES, SHARING_TYPES, TRIAL_STRUCTURES,
                                CorrelatedTransform, DiscreteDist, EfficacySpec,
                                IdentityTransform, TargetProfile, parse_scenario)
from platformsim.decisions import (COMPARISON_ARMS, CONTINUE, UNSUCCESSFUL_MAX_N, ComparisonData,
                                   comparison_outcome, explain, plan_for)
from platformsim.efficacy import CohortTruth, classify_truth, draw_cohort_truth
from platformsim.engine import (COMPLETED_FUTILITY, COMPLETED_GO,
                                COMPLETED_UNSUCCESSFUL, ENROLLING,
                                HALTED_RECRUITMENT, STOPPED_INTERIM_EFFICACY,
                                STOPPED_INTERIM_FUTILITY, STOPPED_SAFETY,
                                ARM_INDEX, ARM_ORDER, DROPS_SOC, SHARED_ARMS, AnalysisRecord,
                                CohortState,
                                assemble_analysis_data, classify_decision, cohort_opening,
                                cum_pair_probs, draw_patients, simulate_trial)
from platformsim.reporting import arm_record, trial_result_to_dump
from platformsim.runner import derive_rng

from conftest import bayes_stage_rules, make_scenario, scenario_dict


def dump_trajectory(trial):
    """The text ``reporting.write_trajectory`` writes for ``trial``, less its
    final newline."""
    return json.dumps(trial_result_to_dump(trial), sort_keys=True, indent=1)


def rng(seed=0):
    return np.random.default_rng(seed)


ARMS = ("comb", "mono_a", "mono_b", "soc")
TRUTH = CohortTruth(0.4, 0.2, 0.2, 0.1)


def make_cohort(cid=0, open_index=0, arms=ARMS, truth=None, ratio=(2, 1, 1, 1), opened=(),
                drawn=None):
    """A cohort with the codes ``drawn`` (none if not given; ``fill`` adds
    patients)."""
    block = sum(r for arm, r in zip(ARM_ORDER, ratio) if arm in arms)
    drawn = np.zeros(0, dtype=np.int64) if drawn is None else drawn
    return CohortState(cid, open_index, tuple(arms), truth or TRUTH, "superior", block, drawn,
                       opened)


def draw(k, g, arms=ARMS, ratio=(2, 1, 1, 1), transform=None, truth=None):
    """The codes of ``k`` blocks of a cohort with ``arms``, drawn as its
    opening draws them: the ratio of an arm not in ``arms`` is taken as 0."""
    ratio = tuple(r if arm in arms else 0 for arm, r in zip(ARM_ORDER, ratio))
    _, _, template, cum_probs, _ = cohort_opening(
        truth or TRUTH, transform or IdentityTransform(), False, ratio,
        TargetProfile(margin_comb=0.1, margin_mono=0.05), k)
    return draw_patients(template, cum_probs, k, g)


def block_arms(k, g, **cohort):
    """Arm names of ``k`` blocks of a cohort in enrolment order."""
    return [ARM_ORDER[a] for a in (draw(k, g, **cohort) >> 2).tolist()]


def outcome_pairs(transform, rr, n, g):
    """``n`` (interim, final) outcome pairs at true rate ``rr``, drawn as
    ``n`` one-patient blocks of a single-arm cohort."""
    code = draw(n, g, arms=("comb",), ratio=(1, 0, 0, 0), transform=transform,
                truth=CohortTruth(rr, rr, rr, rr))
    return list(zip(((code >> 1) & 1).tolist(), (code & 1).tolist()))


class TestAllocateBlock:
    def test_full_block_2211(self):
        block = block_arms(1, rng(), ratio=(2, 2, 1, 1))
        assert len(block) == 6
        assert Counter(block) == {"comb": 2, "mono_a": 2, "mono_b": 1, "soc": 1}

    def test_no_soc_block(self):
        block = block_arms(1, rng(), arms=("comb", "mono_a", "mono_b"), ratio=(2, 2, 1, 1))
        assert len(block) == 5
        assert Counter(block) == {"comb": 2, "mono_a": 2, "mono_b": 1}

    def test_exactness_over_many_blocks(self):
        totals = Counter(block_arms(1000, rng(7), ratio=(2, 2, 1, 1)))
        assert totals == {"comb": 2000, "mono_a": 2000, "mono_b": 1000, "soc": 1000}

    def test_every_block_holds_the_template(self):
        arms = block_arms(400, rng(8), arms=("comb", "mono_a", "soc"), ratio=(3, 2, 1, 1))
        blocks = [Counter(arms[i:i + 6]) for i in range(0, len(arms), 6)]
        assert len(blocks) == 400
        assert all(b == {"comb": 3, "mono_a": 2, "soc": 1} for b in blocks)

    def test_order_is_random(self):
        arms = block_arms(50, rng(3), ratio=(2, 2, 1, 1))
        orders = {tuple(arms[i:i + 6]) for i in range(0, len(arms), 6)}
        assert len(orders) > 5


class TestGenOutcomePair:
    def test_identity_pairs_always_equal(self):
        for bio, hist in outcome_pairs(IdentityTransform(), 0.37, 2000, rng(11)):
            assert bio == hist

    def test_rr_zero_always_nonresponse(self):
        assert all(pair == (0, 0) for pair in outcome_pairs(IdentityTransform(), 0.0, 200, rng(5)))

    def test_final_rate_within_3_sigma(self):
        n, rr = 100_000, 0.3
        hits = sum(h for _, h in outcome_pairs(IdentityTransform(), rr, n, rng(23)))
        sigma = (rr * (1 - rr) / n) ** 0.5
        assert abs(hits / n - rr) <= 3 * sigma

    def test_pairs_follow_the_per_patient_rule(self):
        # each patient's pair is the first of 0/0, 0/1, 1/0 whose cumulative
        # probability exceeds its uniform, else 1/1
        from platformsim.config import CorrelatedTransform
        t = CorrelatedTransform(sens=0.7, spec=0.85)
        code = draw(300, rng(4), ratio=(2, 2, 1, 1), transform=t)
        assert code.size == 1800 and not code.flags.writeable
        u = rng(4).random((2, 300, 6))[1].ravel()  # the same doubles
        for c, v in zip(code.tolist(), u):
            cum = cum_pair_probs(t, TRUTH[c >> 2])
            assert c & 3 == next((j for j, x in enumerate(cum) if v < x), 3)

    def test_correlated_transform_marginal(self):
        from platformsim.config import CorrelatedTransform
        t = CorrelatedTransform(sens=0.7, spec=0.85)
        n, rr = 50_000, 0.4
        pairs = outcome_pairs(t, rr, n, rng(2))
        hist_rate = sum(h for _, h in pairs) / n
        sigma = (rr * (1 - rr) / n) ** 0.5
        assert abs(hist_rate - rr) <= 3 * sigma
        assert any(b != h for b, h in pairs)


#: consecutive ``Generator.random`` calls: None for a scalar call, else its size
SPLITS = [
    [None, None, None, None],
    [4, None],
    [0, 3, 0, None, 1],
    [(2, 3, 5), (2, 1, 7), 1],
    [(2, 0, 6), 30, (2, 4, 5)],
    [1] * 9 + [(2, 2, 2)],
]


@pytest.mark.parametrize("split", SPLITS)
def test_one_generator_call_holds_the_doubles_of_consecutive_calls(split):
    sizes = [1 if s is None else int(np.prod(s)) for s in split]
    g = np.random.Generator(np.random.PCG64(20220204))
    parts = [np.atleast_1d(g.random(s)).ravel() for s in split]
    whole = np.random.Generator(np.random.PCG64(20220204)).random(sum(sizes))
    assert np.array_equal(np.concatenate(parts), whole), (
        "Generator.random(n) no longer returns the doubles of consecutive calls whose sizes "
        "sum to n; the draw order documented in engine.simulate_trial counts doubles, not "
        "calls, so a draw split into other calls would move random stream 3")


def test_enrolling_past_the_draw_raises():
    code = draw(2, rng(1))
    cohort = make_cohort(drawn=code)
    cohort.record(9, 0)
    with pytest.raises(RuntimeError, match="would enrol 11 patients, but its opening drew 10"):
        cohort.record(2, 9)
    assert cohort.n == 9 and sum(cohort.tally) == 9  # nothing was undercounted
    cohort.record(1, 9)
    assert cohort.tally == tuple(np.bincount(code, minlength=16).tolist())
    with pytest.raises(RuntimeError):
        cohort.record(1, 10)


def test_tally_follows_n_between_records():
    code = draw(3, rng(2))
    cohort = make_cohort(drawn=code)
    assert cohort.tally == (0,) * 16
    for count in (4, 0, 6):
        cohort.record(count, cohort.n)
        assert cohort.tally == tuple(np.bincount(code[:cohort.n], minlength=16).tolist())
        assert cohort.tally is cohort.tally  # counted once at each n
    with pytest.raises(RuntimeError, match="would enrol 16 patients"):
        cohort.record(6, cohort.n)
    assert cohort.n == 10 and cohort.tally == tuple(np.bincount(code[:10], minlength=16).tolist())
    cohort.record(5, cohort.n)
    assert cohort.tally == tuple(np.bincount(code, minlength=16).tolist())


def fill(cohort, arm, start_idx, outcomes):
    """Enrol patients on one arm of ``cohort``, appended to its draw:
    enrolment indices from ``start_idx`` on, one (interim, final) outcome pair
    each."""
    codes = np.array([4 * ARM_INDEX[arm] + 2 * b + h for b, h in outcomes], dtype=np.int64)
    cohort.drawn = np.concatenate([cohort.drawn[:cohort.n], codes])
    cohort.record(codes.size, start_idx)


def record(data, comparison):
    """The analysis record of one comparison."""
    return next(t for t in data if t.comparison == comparison)


ALL = tuple(COMPARISON_ARMS)  # every comparison, as for a cohort with all four arms


class TestAssembleAnalysisData:
    def two_cohorts(self):
        c0 = make_cohort(cid=0, open_index=0)
        # cohort 0: soc 10 patients 3 resp; mono_b 10 patients 4 resp
        fill(c0, "comb", 0, [(1, 1)] * 8 + [(0, 0)] * 12)
        fill(c0, "mono_a", 20, [(1, 1)] * 2 + [(0, 0)] * 8)
        fill(c0, "mono_b", 30, [(1, 1)] * 4 + [(0, 0)] * 6)
        # cohort 1 opens at patient 40, after cohort 0's mono_b, before its soc
        c1 = make_cohort(cid=1, open_index=40, opened=[c0])
        fill(c0, "soc", 40, [(1, 1)] * 3 + [(0, 0)] * 7)
        # cohort 1: soc 8 patients 2 resp (enrolled from index 50 on)
        fill(c1, "comb", 50, [(1, 1)] * 5 + [(0, 0)] * 5)
        fill(c1, "mono_a", 60, [(1, 1)] * 1 + [(0, 0)] * 4)
        fill(c1, "mono_b", 65, [(1, 1)] * 2 + [(0, 0)] * 4)
        fill(c1, "soc", 70, [(1, 1)] * 2 + [(0, 0)] * 6)
        return c0, c1

    def test_cohort_mode_own_data_only(self):
        c0, c1 = self.two_cohorts()
        data = assemble_analysis_data([c0, c1], c0, ALL, "cohort", "final")
        t3 = record(data, 3)  # mono_a vs soc
        assert (t3.t_resp, t3.t_nonresp, t3.c_resp, t3.c_nonresp) == (2, 8, 3, 7)
        assert all(s.share_weight is None for s in data)

    def test_all_mode_pools_soc_and_backbone(self):
        c0, c1 = self.two_cohorts()
        data = assemble_analysis_data([c0, c1], c0, ALL, "all", "final")
        t3 = record(data, 3)
        assert (t3.c_resp, t3.c_nonresp) == (3 + 2, 7 + 6)   # soc pooled
        t2 = record(data, 2)
        assert (t2.c_resp, t2.c_nonresp) == (4 + 2, 6 + 4)   # backbone pooled
        t1 = record(data, 1)  # mono_a comparator is never shared
        assert (t1.c_resp, t1.c_nonresp) == (2, 8)

    def test_numerator_never_augmented(self):
        c0, c1 = self.two_cohorts()
        data = assemble_analysis_data([c0, c1], c0, ALL, "all", "final")
        t4 = record(data, 4)  # mono_b vs soc: mono_b is numerator here
        assert (t4.t_resp, t4.t_nonresp) == (4, 6)

    def test_concurrent_mode_window(self):
        c0, c1 = self.two_cohorts()
        # only cohort 0's patients enrolled after cohort 1 opened are pooled
        data = assemble_analysis_data([c0, c1], c1, ALL, "concurrent", "final")
        t3 = record(data, 3)
        assert (t3.c_resp, t3.c_nonresp) == (2 + 3, 6 + 7)   # all of c0's soc is concurrent
        t2 = record(data, 2)
        assert (t2.c_resp, t2.c_nonresp) == (2, 4)           # none of c0's mono_b is

    def test_concurrent_counts_each_earlier_cohort_once(self, monkeypatch):
        # one count of each earlier cohort's draw since the entry serves both
        # shared comparators, SoC and mono_b
        c0, c1 = self.two_cohorts()
        c2 = make_cohort(cid=2, open_index=80, opened=[c0, c1])
        fill(c0, "soc", 80, [(1, 1)] * 2 + [(0, 0)] * 2)
        fill(c1, "mono_b", 84, [(1, 1)] + [(0, 0)] * 3)
        for arm, start in zip(ARM_ORDER, (88, 92, 96, 100)):
            fill(c2, arm, start, [(1, 1)] * 2 + [(0, 0)] * 2)
        assert sum(c2.tally) == 16  # the own tally is counted before the spy
        sizes = []
        bincount = np.bincount

        def spy(x, *args, **kwargs):
            sizes.append(x.size)
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", spy)
        data = assemble_analysis_data([c0, c1, c2], c2, ALL, "concurrent", "final")
        assert sizes == [4, 4]
        shared = {t.comparison: (t.external_resp, t.external_total) for t in data}
        assert shared == {1: (0.0, 0.0), 2: (1.0, 4.0), 3: (2.0, 4.0), 4: (2.0, 4.0)}
        assert all(type(x) is float for pair in shared.values() for x in pair)

    def test_interim_uses_interim_outcomes(self):
        c0, c1 = self.two_cohorts()
        # add one patient whose interim and final disagree
        fill(c0, "soc", 99, [(1, 0)])
        data_int = assemble_analysis_data([c0, c1], c0, ALL, "cohort", "interim")
        data_fin = assemble_analysis_data([c0, c1], c0, ALL, "cohort", "final")
        assert record(data_int, 3).c_resp == 4
        assert record(data_fin, 3).c_resp == 3

    def test_dynamic_weight_identical_data_is_one(self):
        c0 = make_cohort(cid=0)
        c1 = make_cohort(cid=1)
        fill(c0, "comb", 0, [(1, 1)] * 5 + [(0, 0)] * 5)
        fill(c0, "mono_a", 0, [(1, 1)] * 2 + [(0, 0)] * 8)
        fill(c0, "soc", 0, [(1, 1)] * 20 + [(0, 0)] * 180)
        fill(c1, "soc", 200, [(1, 1)] * 20 + [(0, 0)] * 180)
        s3 = record(assemble_analysis_data([c0, c1], c0, ALL, "dynamic", "final"), 3)
        assert s3.share_weight == pytest.approx(1.0, abs=1e-9)
        assert s3.c_resp == pytest.approx(40)

    def test_dynamic_weight_heterogeneous_data_near_zero(self):
        c0 = make_cohort(cid=0)
        c1 = make_cohort(cid=1)
        fill(c0, "comb", 0, [(1, 1)] * 5 + [(0, 0)] * 5)
        fill(c0, "mono_a", 0, [(1, 1)] * 2 + [(0, 0)] * 8)
        fill(c0, "soc", 0, [(1, 1)] * 20 + [(0, 0)] * 180)    # 10%
        fill(c1, "soc", 200, [(1, 1)] * 180 + [(0, 0)] * 20)  # 90%
        s3 = record(assemble_analysis_data([c0, c1], c0, ALL, "dynamic", "final"), 3)
        assert s3.share_weight < 0.05


class TestClassifyDecision:
    @pytest.mark.parametrize("status,truth,expected", [
        (COMPLETED_GO, "superior", "TP"),
        (STOPPED_INTERIM_EFFICACY, "futile", "FP"),
        (STOPPED_INTERIM_FUTILITY, "futile", "TN"),
        (COMPLETED_FUTILITY, "superior", "FN"),
        (COMPLETED_UNSUCCESSFUL, "superior", "FN"),
        (COMPLETED_UNSUCCESSFUL, "futile", "TN"),
        (STOPPED_SAFETY, "superior", None),
        (HALTED_RECRUITMENT, "futile", None),
    ])
    def test_mapping(self, status, truth, expected):
        assert classify_decision(status, truth) == expected

    def test_enrolling_raises(self):
        with pytest.raises(ValueError):
            classify_decision(ENROLLING, "superior")


@st.composite
def opening_specs(draw):
    """An efficacy model of any ``random_type`` (relative effects wide enough
    to clamp), a transform, a target, an allocation ratio whose non-comb arms
    may have no slots, ``soc_dropped``, ``n_fin`` and a generator seed."""
    random_type = draw(st.sampled_from(RANDOM_TYPES))
    effect = {"absolute": st.floats(0.0, 1.0), "risk_difference": st.floats(-1.0, 1.0),
              "risk_ratio": st.floats(0.05, 5.0), "odds_ratio": st.floats(0.05, 20.0)}

    def dist(values):
        support = tuple(draw(st.lists(values, min_size=1, max_size=3)))
        return DiscreteDist(support, (1.0 / len(support),) * len(support))

    efficacy = EfficacySpec(random_type=random_type, comb=dist(effect[random_type]),
                            mono_a=dist(effect[random_type]), mono_b=dist(effect[random_type]),
                            soc=dist(st.floats(0.0, 1.0)))
    transform = draw(st.one_of(st.just(IdentityTransform()), st.builds(
        CorrelatedTransform, sens=st.floats(0.0, 1.0), spec=st.floats(0.0, 1.0))))
    scale = draw(st.sampled_from((1, 2, 3)))
    margin = st.floats(-0.2, 0.3) if scale == 1 else st.floats(0.5, 3.0)
    target = TargetProfile(margin_comb=draw(margin), margin_mono=draw(margin), scale=scale,
                           strict=draw(st.booleans()))
    ratio = (draw(st.integers(1, 3)), *draw(st.lists(st.integers(0, 3), min_size=3, max_size=3)))
    return (efficacy, transform, target, ratio, draw(st.booleans()), draw(st.integers(1, 400)),
            draw(st.integers(0, 2**32 - 1)))


class TestCohortOpening:
    @given(opening_specs())
    @settings(max_examples=200, deadline=None)
    def test_cached_opening_equals_a_fresh_derivation(self, case):
        efficacy, transform, target, ratio, soc_dropped, n_fin, seed = case
        g = rng(seed)
        for _ in range(4):  # a support of at most 3 values a rate: later draws may hit the cache
            truth = draw_cohort_truth(efficacy, g)
            arms, truth_class, template, cum_probs, blocks = cohort_opening(
                truth, transform, soc_dropped, ratio, target, n_fin)
            want = tuple(arm for arm, r in zip(ARM_ORDER, ratio)
                         if r > 0 and not (arm == "soc" and soc_dropped))
            assert arms == want
            assert truth_class == classify_truth(truth, target, "soc" in want)
            slots = [ARM_INDEX[arm] for arm in want for _ in range(ratio[ARM_INDEX[arm]])]
            assert template.dtype == np.int64 and template.tolist() == slots
            columns = [cum_pair_probs(transform, rr) for rr in truth[:4]]
            assert cum_probs.dtype == np.float64
            assert cum_probs.tolist() == [list(row) for row in zip(*columns)]
            assert blocks == -(-n_fin // len(slots)) and (blocks - 1) * len(slots) < n_fin
            assert not template.flags.writeable and not cum_probs.flags.writeable

    def test_cache_misses_are_the_distinct_keys(self, example_spec):
        # one transform and SoC slots under all_plac: a cohort's truth and arms
        # give its opening's key, (truth, transform, soc_dropped)
        p = example_spec.platform
        assert len(example_spec.endpoint.transforms) == 1 and p.allocation_ratio[3] > 0
        cohort_opening.cache_clear()
        cohorts = [c for k in range(200)
                   for c in simulate_trial(example_spec, derive_rng(5, 0, k)).cohorts]
        keys = {(c.truth, "soc" in c.arms) for c in cohorts}
        info = cohort_opening.cache_info()
        assert (info.misses, info.hits) == (len(keys), len(cohorts) - len(keys))
        assert 1 < len(keys) < len(cohorts) and info.currsize == len(keys)

    def test_each_opening_draws_its_truth_through_the_module_name(self, example_spec,
                                                                  monkeypatch):
        # the benchmark's tracer wraps engine.draw_cohort_truth by name and
        # reports its calls as the cohorts opened
        real, drawn = engine.draw_cohort_truth, []
        monkeypatch.setattr(engine, "draw_cohort_truth",
                            lambda *args: drawn.append(real(*args)) or drawn[-1])
        trials = [simulate_trial(example_spec, derive_rng(6, 0, k)) for k in range(100)]
        assert drawn == [c.truth for t in trials for c in t.cohorts]
        assert len(drawn) > len(trials)


class TestSimulateTrial:
    def test_single_cohort_when_entry_probability_zero(self):
        spec = make_scenario(cohort_random=0.0, cohorts_max=5)
        result = simulate_trial(spec, derive_rng(1, 0, 0))
        assert len(result.cohorts) == 1

    def test_cohorts_never_exceed_max(self):
        spec = make_scenario(cohort_random=0.3, cohorts_max=3)
        for k in range(30):
            result = simulate_trial(spec, derive_rng(2, 0, k))
            assert len(result.cohorts) <= 3

    def test_conservation_of_patients(self):
        spec = make_scenario(cohort_random=0.05)
        for k in range(20):
            result = simulate_trial(spec, derive_rng(3, 0, k))
            ledger_total = sum(sum(c.pair_counts(arm)) for c in result.cohorts for arm in c.arms)
            assert result.total_n == ledger_total

    def test_sample_size_windows(self):
        spec = make_scenario(cohort_random=0.05)
        block = sum(spec.platform.allocation_ratio)
        for k in range(60):
            result = simulate_trial(spec, derive_rng(4, 0, k))
            for c in result.cohorts:
                for a in c.analyses:
                    if a.halted:
                        continue
                    if a.stage == "interim":
                        assert 50 <= a.n_enrolled < 50 + block
                    else:
                        assert 100 <= a.n_enrolled < 100 + block

    def test_interim_and_final_at_most_once(self):
        spec = make_scenario(cohort_random=0.1)
        for k in range(30):
            result = simulate_trial(spec, derive_rng(5, 0, k))
            for c in result.cohorts:
                stages = [a.stage for a in c.analyses]
                assert stages.count("interim") <= 1
                assert stages.count("final") <= 1

    def test_equal_interim_final_single_final_analysis(self):
        spec = make_scenario(n_int=60, n_fin=60, cohort_random=0.0)
        result = simulate_trial(spec, derive_rng(6, 0, 0))
        (cohort,) = result.cohorts
        assert [a.stage for a in cohort.analyses] == ["final"]
        assert cohort.analyses[0].n_enrolled >= 60

    def test_safety_prob_one_stops_every_cohort_at_first_patient(self):
        spec = make_scenario(safety_prob=1.0, cohort_random=0.5, cohorts_max=4)
        result = simulate_trial(spec, derive_rng(7, 0, 0))
        assert result.cohorts  # at least the initial cohort
        for c in result.cohorts:
            assert c.status == STOPPED_SAFETY
            assert sum(sum(c.pair_counts(arm)) for arm in c.arms) == 1
            assert c.confusion is None

    def test_safety_prob_zero_never_stops(self):
        spec = make_scenario(safety_prob=0.0, cohort_random=0.05)
        for k in range(20):
            result = simulate_trial(spec, derive_rng(8, 0, k))
            assert all(c.status != STOPPED_SAFETY for c in result.cohorts)
            assert not result.safety_stops

    def test_determinism(self):
        spec = make_scenario(cohort_random=0.05, safety_prob=0.001)
        a = simulate_trial(spec, derive_rng(9, 0, 0))
        b = simulate_trial(spec, derive_rng(9, 0, 0))
        assert dump_trajectory(a) == dump_trajectory(b)

    @pytest.mark.parametrize("mode", ["cohort", "dynamic"])
    def test_dumped_analyses_are_objects_of_their_fields(self, mode):
        # records are NamedTuples: a dump must write them keyed by field, never as lists
        spec = make_scenario(cohort_random=0.05, sharing_type=mode)
        analysed = 0
        for k in range(5):
            result = simulate_trial(spec, derive_rng(9, 0, k))
            dumped = json.loads(dump_trajectory(result))["Stage_Data"]["cohorts"]
            for c, cohort in zip(result.cohorts, dumped, strict=True):
                for a, rec in zip(c.analyses, cohort["analyses"], strict=True):
                    assert set(rec) == {*AnalysisRecord._fields, "decision"} - {"verdict"}
                    assert all(set(t) == set(ComparisonData._fields) for t in rec["data"])
                    assert [t._asdict() for t in a.data] == rec["data"]
                    assert len(rec["decision"]["comparisons"]) == len(rec["data"])
                    analysed += len(rec["data"])
        assert analysed

    def test_patient_log_joins_the_recorded_chunks(self, monkeypatch):
        # safety stops record a cut last block; sr_pats halts cohorts with no patients
        spec = make_scenario(cohort_random=0.5, safety_prob=0.01, cohorts_max=10, sr_pats=60)
        chunks = {}
        record = CohortState.record

        def spy(cohort, count, start, stride=0, rounds=1):
            width = count // rounds
            idx = np.array([start + r * stride + j for r in range(rounds) for j in range(width)],
                           dtype=np.int64)
            code = cohort.drawn[cohort.n:cohort.n + count]
            chunks.setdefault(cohort.id, []).append((idx, code >> 2, code >> 1 & 1, code & 1))
            record(cohort, count, start, stride, rounds)

        monkeypatch.setattr(CohortState, "record", spy)
        empty = (np.zeros(0, dtype=np.int64),) * 4
        cohorts = []
        for k in range(60):  # about 1 in 15 trials halts a cohort that has no patients
            chunks.clear()
            result = simulate_trial(spec, derive_rng(31, 0, k))
            cohorts += result.cohorts
            for c in result.cohorts:
                log = c.patients
                joined = [np.concatenate(col) for col in zip(empty, *chunks.get(c.id, ()))]
                assert all(np.array_equal(got, want) for got, want in zip(log, joined, strict=True))
                assert all(col.dtype == np.int64 and col.size == c.n for col in log)
                assert np.all(np.diff(log.idx) > 0)
        assert any(c.n == 0 for c in cohorts)
        assert any(c.status == STOPPED_SAFETY for c in cohorts)

    def test_replay_of_the_documented_draw_order(self):
        # simulate_trial's docstring: the first cohort's four truth uniforms, its
        # transform draw and its 2 * B * b patient uniforms, then the waiting times
        # to the first safety stop and to the first cohort entry
        d = scenario_dict(rates=(0.45, 0.3, 0.25, 0.2), safety_prob=0.006, cohort_random=0.02,
                          cohort_offset=30, n_fin=93, allocation_ratio=[3, 2, 1, 1])
        d["endpoint"] = {"transforms": [{"kind": "identity"},
                                        {"kind": "correlated", "sens": 0.8, "spec": 0.7}],
                         "probs": [0.5, 0.5]}
        spec = parse_scenario(d)
        p = spec.platform
        seed = 9  # its first trial has a safety stop and a second cohort
        result = simulate_trial(spec, derive_rng(seed, 0, 0))

        g = derive_rng(seed, 0, 0)
        truth = draw_cohort_truth(spec.efficacy, g)
        transform = spec.endpoint.sample_transform(g)
        template = [a for a, r in zip(ARM_ORDER, p.allocation_ratio) for _ in range(r)]
        b = len(template)
        u = g.random((2, -(-p.n_fin // b), b))
        arms, pairs = [], []
        for order, outcome in zip(u[0], u[1]):
            # the j-th patient of a block takes the slot with the j-th smallest uniform
            for slot, v in zip(sorted(range(b), key=order.__getitem__), outcome):
                cum = cum_pair_probs(transform, truth[ARM_INDEX[template[slot]]])
                arms.append(ARM_INDEX[template[slot]])
                pairs.append(next((j for j, x in enumerate(cum) if v < x), 3))
        safety = int(g.geometric(p.safety_prob))
        entry = p.cohort_offset - 1 + int(g.geometric(p.cohort_random))

        first = result.cohorts[0]
        assert first.truth == truth
        assert first.patients.arm.tolist() == arms[:first.n]
        log = first.patients
        assert (2 * log.interim + log.final).tolist() == pairs[:first.n]
        assert first.n >= p.n_int and len(set(pairs[:first.n])) == 4
        assert result.safety_stops[0][1] == safety
        assert result.cohorts[1].open_index == entry

    @pytest.mark.parametrize("sharing", ["cohort", "dynamic"])
    def test_warm_plan_cannot_change_a_trajectory(self, example_spec, sharing):
        # the memo keys on (the rule, cells): flags that read anything else
        # would differ between a warm and a cold plan
        spec = dataclasses.replace(example_spec, platform=dataclasses.replace(
            example_spec.platform, sharing_type=sharing))
        plan_for.cache_clear()
        warm = [dump_trajectory(simulate_trial(spec, derive_rng(12, 0, k)))
                for k in range(30)]
        assert plan_for(spec.rules, spec.prior).flags.cache_info().hits > 0
        for k, dump in enumerate(warm):
            plan_for.cache_clear()
            assert dump_trajectory(simulate_trial(spec, derive_rng(12, 0, k))) == dump

    def test_a_dump_needs_the_rules_the_trial_ran(self, example_spec):
        # the dump recomputes each decision under the trial's own plan: a
        # recorded verdict those rules did not give is refused, not written
        result = simulate_trial(example_spec, derive_rng(12, 0, 0))
        dump_trajectory(result)
        c, i = next((c, i) for c in result.cohorts for i, a in enumerate(c.analyses)
                    if a.verdict != "GO")
        verdict = c.analyses[i].verdict
        c.analyses[i] = c.analyses[i]._replace(verdict="GO")
        with pytest.raises(ValueError, match=f"verdict GO is not the rules' {verdict}"):
            dump_trajectory(result)

    def test_sr_drugs_pos_closes_entry_after_first_go(self):
        # strong effects so successes happen; no SoC comparisons
        spec = make_scenario(rates=(0.9, 0.2, 0.2, 0.1), trial_struc="no_plac",
                             cohort_random=0.1, cohorts_max=8, sr_drugs_pos=1)
        seen_success = 0
        for k in range(30):
            result = simulate_trial(spec, derive_rng(10, 0, k))
            if result.successes == 0:
                continue
            seen_success += 1
            assert result.entry_closed_index is not None
            first = result.first_success
            for c in result.cohorts:
                assert c.open_index <= first["patient_counter"]
        assert seen_success > 10

    def test_sr_first_pos_blocks_new_cohorts_after_any_success(self):
        spec = make_scenario(rates=(0.9, 0.2, 0.2, 0.1), trial_struc="no_plac",
                             cohort_random=0.1, cohorts_max=8, sr_first_pos=True)
        for k in range(20):
            result = simulate_trial(spec, derive_rng(11, 0, k))
            if result.first_success is None:
                continue
            assert result.entry_closed_index == result.first_success["patient_counter"]
            for c in result.cohorts:
                assert c.open_index <= result.first_success["patient_counter"]

    def test_sr_first_pos_is_sr_drugs_pos_one_under_run_out(self):
        # both close entry at the first success, through the one path that
        # records entry_closed_index, and let the active cohorts run out
        def staggered(**stopping):
            return make_scenario(rates=(0.6, 0.3, 0.3, 0.1), cohort_random=0.05, cohorts_max=6,
                                 run_out_active_cohorts=True, **stopping)

        first = staggered(sr_first_pos=True, sr_drugs_pos="inf")
        one = staggered(sr_first_pos=False, sr_drugs_pos=1)
        closed = 0
        for k in range(40):
            dump = dump_trajectory(simulate_trial(first, derive_rng(23, 0, k)))
            assert dump_trajectory(simulate_trial(one, derive_rng(23, 0, k))) == dump
            closed += json.loads(dump)["Trial_Overview"]["entry_closed_index"] is not None
        assert closed >= 10, closed

    def test_run_out_lets_active_cohorts_finish(self):
        spec = make_scenario(rates=(0.9, 0.2, 0.2, 0.1), trial_struc="no_plac",
                             cohort_random=0.2, cohorts_max=4, sr_drugs_pos=1,
                             run_out_active_cohorts=True)
        for k in range(20):
            result = simulate_trial(spec, derive_rng(12, 0, k))
            assert all(c.status != HALTED_RECRUITMENT or
                       sum(sum(c.pair_counts(arm)) for arm in c.arms) == 0
                       for c in result.cohorts)

    def test_no_run_out_halts_active_cohorts(self):
        spec = make_scenario(rates=(0.9, 0.2, 0.2, 0.1), trial_struc="no_plac",
                             cohort_random=0.2, cohorts_max=6, sr_drugs_pos=1,
                             run_out_active_cohorts=False)
        halted_analysis_seen = False
        for k in range(40):
            result = simulate_trial(spec, derive_rng(13, 0, k))
            if result.successes == 0:
                continue
            for c in result.cohorts:
                assert c.status != ENROLLING
                halted_analysis_seen |= any(a.halted for a in c.analyses)
        assert halted_analysis_seen

    def test_sr_pats_halts_recruitment_and_concludes(self):
        spec = make_scenario(cohort_random=0.1, cohorts_max=6, sr_pats=120)
        for k in range(15):
            result = simulate_trial(spec, derive_rng(14, 0, k))
            if result.recruitment_halt_index is not None:
                assert result.recruitment_halt_index >= 120
            for c in result.cohorts:
                assert c.status != ENROLLING
            halted = [a for c in result.cohorts for a in c.analyses if a.halted]
            if halted:
                assert all(a.stage == "final" for a in halted)

    def test_cohort_offset_spaces_openings(self):
        spec = make_scenario(cohort_random=0.5, cohorts_max=6, cohort_offset=30)
        for k in range(10):
            result = simulate_trial(spec, derive_rng(15, 0, k))
            opens = sorted(c.open_index for c in result.cohorts)
            assert all(b - a >= 30 for a, b in zip(opens, opens[1:]))

    def test_no_plac_structure_has_no_soc_arm(self):
        spec = make_scenario(trial_struc="no_plac", cohort_random=0.1)
        result = simulate_trial(spec, derive_rng(16, 0, 0))
        for c in result.cohorts:
            assert "soc" not in c.arms
            for a in c.analyses:
                analysed = [t.comparison for t in a.data]
                assert set(analysed) <= {1, 2}

    def test_stop_post_back_omits_soc_after_backbone_beats_it(self):
        # backbone far above SoC: comparison 4 superiority fires at the first
        # interim; cohorts opened afterwards must lack the SoC arm
        rules = {"interim": bayes_stage_rules(sup_margins=(0.0, 0.0, 0.0, 0.0),
                                              sup_conf=0.6, with_fut=False),
                 "final": bayes_stage_rules(sup_margins=(0.0, 0.0, 0.0, 0.0),
                                            sup_conf=0.6, with_fut=False)}
        spec = make_scenario(rates=(0.95, 0.9, 0.9, 0.05), rules=rules,
                             trial_struc="stop_post_back", cohort_random=0.15,
                             cohorts_max=6, n_int=20, n_fin=40)
        plan = plan_for(spec.rules, spec.prior)
        saw_post = False
        for k in range(15):
            result = simulate_trial(spec, derive_rng(17, 0, k))
            firing = [a.patient_counter for c in result.cohorts for a in c.analyses
                      if any(t.comparison == 4 and o.superior for t, o in
                             zip(a.data, explain(plan, a.data, a.stage).comparisons))]
            if not firing:
                continue
            first_fire = min(firing)
            for c in result.cohorts:
                if c.open_index > first_fire:
                    saw_post = True
                    assert "soc" not in c.arms
        assert saw_post

    def test_early_efficacy_with_extreme_separation(self):
        spec = make_scenario(rates=(0.95, 0.2, 0.2, 0.05), trial_struc="no_plac",
                             cohort_random=0.0)
        result = simulate_trial(spec, derive_rng(18, 0, 0))
        (cohort,) = result.cohorts
        assert cohort.status == STOPPED_INTERIM_EFFICACY
        assert result.successes == 1

    def test_equal_arms_stop_early_for_futility(self):
        spec = make_scenario(rates=(0.2, 0.2, 0.2, 0.2), cohort_random=0.0)
        stops = 0
        for k in range(20):
            result = simulate_trial(spec, derive_rng(19, 0, k))
            stops += result.cohorts[0].status == STOPPED_INTERIM_FUTILITY
        assert stops >= 15  # four disjunctive futility chances near P = 0.5

    def test_final_neither_is_unsuccessful(self):
        # superiority unreachable and no futility rules: must run to max N
        rules = {"interim": bayes_stage_rules(sup_conf=0.999999, with_fut=False),
                 "final": bayes_stage_rules(sup_conf=0.999999, with_fut=False)}
        spec = make_scenario(rates=(0.3, 0.25, 0.25, 0.2), rules=rules, cohort_random=0.0)
        result = simulate_trial(spec, derive_rng(20, 0, 0))
        (cohort,) = result.cohorts
        assert cohort.status == COMPLETED_UNSUCCESSFUL
        assert [a.stage for a in cohort.analyses] == ["interim", "final"]

    def test_interim_that_continues_and_final_run_in_one_round(self, monkeypatch):
        # n_fin - n_int is below one block of 5, so the block that reaches n_int
        # also reaches n_fin: the interim continues and the final follows it
        rules = {"interim": bayes_stage_rules(sup_conf=0.999999, with_fut=False),
                 "final": bayes_stage_rules(sup_conf=0.999999, with_fut=False)}
        spec = make_scenario(rates=(0.3, 0.25, 0.25, 0.2), rules=rules, cohort_random=0.0,
                             n_int=58, n_fin=60)
        ran = []  # the analyses each end_round ran
        end_round = engine.Trial.end_round

        def spy(trial):
            before = sum(len(c.analyses) for c in trial.cohorts)
            end_round(trial)
            ran.append(sum(len(c.analyses) for c in trial.cohorts) - before)

        monkeypatch.setattr(engine.Trial, "end_round", spy)
        result = simulate_trial(spec, derive_rng(20, 0, 0))
        (cohort,) = result.cohorts
        assert ran == [2]  # no event: one step of 12 rounds, one end_round
        assert [(a.stage, a.verdict, a.n_enrolled, a.patient_counter)
                for a in cohort.analyses] == [("interim", CONTINUE, 60, 60),
                                              ("final", UNSUCCESSFUL_MAX_N, 60, 60)]
        assert cohort.status == COMPLETED_UNSUCCESSFUL

    def test_first_success_bookkeeping(self):
        spec = make_scenario(rates=(0.9, 0.2, 0.2, 0.1), trial_struc="no_plac",
                             cohort_random=0.1, cohorts_max=5)
        for k in range(10):
            result = simulate_trial(spec, derive_rng(21, 0, k))
            if result.first_success is None:
                assert result.successes == 0
                continue
            fs = result.first_success
            assert 1 <= fs["cohorts_opened"] <= len(result.cohorts)
            assert 0 <= fs["soc_patients"] <= fs["patient_counter"]
            assert fs["patient_counter"] <= result.total_n

    def test_blocks_and_soc_slots(self):
        spec = make_scenario(cohort_random=0.0)  # ratio 2:1:1:1
        result = simulate_trial(spec, derive_rng(22, 0, 0))
        (cohort,) = result.cohorts
        assert result.soc_slot_patients == cohort.blocks * 1


@st.composite
def platform_scenarios(draw):
    """Random valid scenarios over every sharing type and trial structure,
    with safety stops, cohort entry, offsets, sr_pats, uneven ratios and
    comparisons left without rules (up to a whole stage)."""
    cohorts_max = draw(st.integers(1, 6))
    n_int = draw(st.integers(5, 60))
    platform = {
        "cohorts_max": cohorts_max,
        "initial_cohorts": draw(st.integers(1, min(2, cohorts_max))),
        "cohort_random": draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.2))),
        "cohort_offset": draw(st.integers(0, 60)),
        "safety_prob": draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 0.02))),
        "sr_pats": draw(st.one_of(st.just("inf"), st.integers(1, 400))),
        "sr_drugs_pos": draw(st.one_of(st.just("inf"), st.integers(1, 2))),
        "sr_first_pos": draw(st.booleans()),
        "run_out_active_cohorts": draw(st.booleans()),
        "trial_struc": draw(st.sampled_from(TRIAL_STRUCTURES)),
        "sharing_type": draw(st.sampled_from(SHARING_TYPES)),
        "n_int": n_int,
        "n_fin": draw(st.integers(n_int, n_int + 60)),
        "allocation_ratio": [draw(st.integers(1, 3))] + draw(st.lists(st.integers(0, 3),
                                                                      min_size=3, max_size=3)),
    }
    rates = tuple(draw(st.floats(0.0, 1.0)) for _ in range(4))
    stage = bayes_stage_rules()
    some = st.sets(st.sampled_from(COMPARISON_KEYS))
    rules = {name: {key: stage[key] for key in draw(st.one_of(
        st.just(COMPARISON_KEYS), st.just(()), some))} for name in ("interim", "final")}
    d = scenario_dict(rates=rates, rules=rules, **platform)
    if draw(st.booleans()):
        d["endpoint"] = {"transforms": [{"kind": "correlated", "sens": 0.8, "spec": 0.7}],
                         "probs": [1.0]}
    return parse_scenario(d), draw(st.integers(0, 2**32 - 1))


def check_draw(c, p):
    """A cohort's opening drew every block it can enrol, each holding the
    allocation ratio of its arms, and its tally and patient log are the
    enrolled prefix of that draw."""
    template = sorted(ARM_INDEX[a] for a, r in zip(ARM_ORDER, p.allocation_ratio)
                      if a in c.arms for _ in range(r))
    assert c.block == len(template)
    assert c.drawn.size == -(-p.n_fin // c.block) * c.block >= c.n
    assert (np.sort(c.drawn.reshape(-1, c.block) >> 2, axis=1) == template).all()
    assert sum(c.tally) == c.n
    assert c.tally == tuple(np.bincount(c.drawn[:c.n], minlength=16).tolist())
    log = c.patients
    assert log.arm.tolist() == (c.drawn[:c.n] >> 2).tolist()
    assert log.interim.tolist() == (c.drawn[:c.n] >> 1 & 1).tolist()
    assert log.final.tolist() == (c.drawn[:c.n] & 1).tolist()


def mid_block_entries(result):
    """Cohorts that opened inside another cohort's block: that cohort enrolled
    the patient before and the patient after the entry."""
    return [c for c in result.cohorts if c.open_index > 0 and any(
        {c.open_index - 1, c.open_index} <= set(d.patients.idx.tolist())
        for d in result.cohorts if d is not c)]


def analysed(arms, stage_rules):
    """The comparisons a cohort with ``arms`` should analyse at a stage."""
    return [k for k, (num, den) in COMPARISON_ARMS.items()
            if num in arms and den in arms and not stage_rules[k - 1].empty]


class TestInvariants:
    @given(platform_scenarios())
    # no shrink phase: shrinking a failing scenario takes about a minute before it reports
    @settings(max_examples=300, deadline=None,
              phases=(Phase.explicit, Phase.reuse, Phase.generate))
    def test_engine_invariants(self, case):
        spec, seed = case
        p = spec.platform
        result = simulate_trial(spec, derive_rng(seed, 0, 0))

        # every enrolment index exactly once, increasing within a cohort
        idx = [c.patients.idx for c in result.cohorts]
        assert all(np.all(np.diff(i) > 0) for i in idx)
        assert np.array_equal(np.sort(np.concatenate(idx)), np.arange(result.total_n))

        # cohorts: at most cohorts_max, opened in patient order
        assert len(result.cohorts) <= p.cohorts_max
        opens = [c.open_index for c in result.cohorts]
        assert opens == sorted(opens)
        assert sorted(result.safety_stops) == sorted(
            (c.id, c.close_index) for c in result.cohorts if c.status == STOPPED_SAFETY)

        # platform stopping: recruitment halts on sr_pats, or on sr_drugs_pos
        # without run-out; entry closes on a halt, on sr_drugs_pos or, under
        # sr_first_pos, on any success, and no cohort opens after that
        successes = result.successes
        halted = result.total_n >= p.sr_pats or (successes >= p.sr_drugs_pos
                                                 and not p.run_out_active_cohorts)
        assert (result.recruitment_halt_index is not None) == halted
        assert (result.entry_closed_index is not None) == (
            halted or successes >= p.sr_drugs_pos or (p.sr_first_pos and successes >= 1))
        if result.entry_closed_index is not None:
            assert opens[-1] <= result.entry_closed_index

        # under stop_post_*, SoC leaves exactly the cohorts that open after an
        # analysis whose dumped decision has a comparison of DROPS_SOC superior
        if p.trial_struc in DROPS_SOC and p.allocation_ratio[3] > 0:
            plan = plan_for(spec.rules, spec.prior)
            fired = [a.patient_counter for c in result.cohorts for a in c.analyses
                     if any(t.comparison in DROPS_SOC[p.trial_struc] and o.superior for t, o
                            in zip(a.data, explain(plan, a.data, a.stage).comparisons))]
            for c in result.cohorts:
                assert ("soc" in c.arms) == all(at >= c.open_index for at in fired)

        for c in result.cohorts:
            check_draw(c, p)
            ratio = {arm: r for arm, r in zip(ARM_ORDER, p.allocation_ratio) if arm in c.arms}
            block = sum(ratio.values())
            per_arm = {arm: sum(c.pair_counts(arm)) for arm in c.arms}
            n = sum(per_arm.values())
            if c.status == STOPPED_SAFETY:
                # the last block is cut after the patient that stopped it
                assert c.patients.idx[-1] == c.close_index - 1
                for arm, arm_n in per_arm.items():
                    assert ratio[arm] * (c.blocks - 1) <= arm_n <= ratio[arm] * c.blocks
            else:
                # whole blocks only: n is a multiple of the block size
                assert all(arm_n == ratio[arm] * c.blocks for arm, arm_n in per_arm.items())
            for a in c.analyses:
                if a.halted:
                    continue
                size = p.n_fin if a.stage == "final" else p.n_int
                assert size <= a.n_enrolled < size + block
            patients = c.patients
            for arm in c.arms:
                rec = arm_record(c, patients, arm)
                n00, n01, n10, n11 = rec["pairs"]
                assert rec["n"] == per_arm[arm] == n00 + n01 + n10 + n11
                assert rec["bio_responders"] == n10 + n11
                assert rec["hist_responders"] == n01 + n11
                assert rec["true_rate"] == c.truth[ARM_INDEX[arm]]
                assert sum(rec["bio"]) == rec["bio_responders"]
                assert sum(rec["hist"]) == rec["hist_responders"]
                assert len(rec["enroll_idx"]) == rec["n"]
            for a in c.analyses:
                self.check_analysed_counts(result, c, a, spec)
            # a halted cohort is analysed unless it has nothing to analyse
            if c.status == HALTED_RECRUITMENT or any(a.halted for a in c.analyses):
                assert (c.status == HALTED_RECRUITMENT) == (
                    n == 0 or not analysed(c.arms, spec.rules.final))

    def test_draws_through_safety_stops_and_mid_block_entries(self):
        spec = make_scenario(cohort_random=0.3, safety_prob=0.01, cohorts_max=10,
                             allocation_ratio=[3, 2, 1, 1])
        stops = entries = 0
        for k in range(40):
            result = simulate_trial(spec, derive_rng(32, 0, k))
            for c in result.cohorts:
                check_draw(c, spec.platform)
            stops += len(result.safety_stops)
            entries += len(mid_block_entries(result))
        assert stops >= 10 and entries >= 10, (stops, entries)

    def test_concurrent_pool_after_a_mid_block_entry(self):
        """Under ``concurrent``, a cohort that opened inside another cohort's
        block pools exactly the patients the others enrolled after its entry."""
        spec = make_scenario(cohort_random=0.3, cohorts_max=10, sharing_type="concurrent")
        entries = partial = 0
        for k in range(40):
            result = simulate_trial(spec, derive_rng(33, 0, k))
            for c in mid_block_entries(result):
                entries += 1
                partial += any(0 < n < d.n for d, n in zip(result.cohorts, c.n_at_open))
                for stage in ("interim", "final"):
                    for t in assemble_analysis_data(result.cohorts, c, ALL, "concurrent", stage):
                        den = COMPARISON_ARMS[t.comparison][1]
                        if den not in SHARED_ARMS:
                            continue
                        resp = total = 0
                        for d in result.cohorts:
                            if d is c:
                                continue
                            log = d.patients
                            keep = (log.arm == ARM_INDEX[den]) & (log.idx >= c.open_index)
                            outcome = log.interim if stage == "interim" else log.final
                            resp += int(outcome[keep].sum())
                            total += int(keep.sum())
                        assert (t.external_resp, t.external_total) == (resp, total)
        assert entries >= 10 and partial >= 10, (entries, partial)

    @staticmethod
    def check_analysed_counts(result, c, a, spec):
        """The analysis records of cohort ``c`` at analysis ``a`` are one per
        analysed comparison, each exactly the counts of the patient logs that
        the sharing mode admits."""
        mode = spec.platform.sharing_type
        def counts(cohort, arm, start=0):
            # (responders, total) of ``arm`` on ``cohort`` at ``a``'s endpoint
            # over enrolment indices in [start, a.patient_counter)
            log = cohort.patients
            keep = (log.arm == ARM_ORDER.index(arm)) & (log.idx >= start) & (
                log.idx < a.patient_counter)
            outcome = log.interim if a.stage == "interim" else log.final
            return int(outcome[keep].sum()), int(keep.sum())

        expected = analysed(c.arms, spec.rules.for_stage(a.stage))
        assert [t.comparison for t in a.data] == expected
        # the dumped decision.comparisons[i] is the outcome of data[i] under its
        # comparison's rules, and its verdict the one the trial acted on
        decision = explain(plan_for(spec.rules, spec.prior), a.data, a.stage)
        assert decision.verdict == a.verdict
        stage_rules = spec.rules.for_stage(a.stage)
        assert decision.comparisons == tuple(
            comparison_outcome(stage_rules[t.comparison - 1], t[:4], spec.prior)
            for t in a.data)
        for t in a.data:
            assert type(t) is ComparisonData
            assert t.t_resp + t.t_nonresp >= 1 and t.c_resp + t.c_nonresp >= 1
            num, den = COMPARISON_ARMS[t.comparison]
            r, n = counts(c, num)
            ext_r = ext_n = 0
            if mode != "cohort" and den in SHARED_ARMS:
                start = c.open_index if mode == "concurrent" else 0
                for other in result.cohorts:
                    if other is not c:
                        er, en = counts(other, den, start)
                        ext_r, ext_n = ext_r + er, ext_n + en
            assert (t.external_resp, t.external_total) == (ext_r, ext_n)
            assert (t.share_weight is None) == (ext_n == 0)
            assert mode == "dynamic" or t.share_weight in (None, 1.0)
            own_r, own_n = counts(c, den)
            w = t.share_weight or 0.0
            # the first four fields are the cells, the comparator's pooled as the engine adds them
            c_resp, c_total = own_r + w * ext_r, own_n + w * ext_n
            assert t[:4] == (r, n - r, c_resp, c_total - c_resp)
