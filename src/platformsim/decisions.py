"""Decision rules, and their evaluation for one cohort at one analysis stage.

Rule protocol: each rule kind is one frozen dataclass deriving from
:class:`Rule`.  Its fields are its YAML keys, their metadata (``schema.param``)
declares their valid values, and class attributes declare its YAML key
(``key``, also the trace ``kind``), whether it reads only the numerator
arm's own counts (``single_arm``) and whether it can declare superiority
(``superiority``) and futility (``futility``).  ``statistic(cells, prior)``
computes its numbers from a 2x2 table's four cells (``stats.Cells``) and
``judge(statistic)`` turns them into (superior, futile, promising), the one
place its thresholds are applied; ``threshold`` is what a trace shows of
them.  ``evaluate(cells, prior)`` builds a :class:`RuleTrace` from the two
parts for dumps (:func:`explain`).  ``conflicts(rules)`` warns about GO/STOP
regions a rule shares with the other rules of its comparison.  Adding a rule
kind takes one such class plus one ``config.ComparisonRules`` field named
after its key (the field order is the evaluation and trace order).

Everything one scenario analyses lives in its :class:`AnalysisPlan`: each
stage's rules, the prior, the comparisons each arm set analyses and the memo
of rule flags, the one cache of analysis results.  A rule's (superior,
futile) flags are a pure function of (the rule, the 2x2 cells, prior), so
the memo keys on (the index of the rule among the plan's distinct rules,
cells): equal rules on two comparisons or stages share entries.  A miss
computes ``judge(statistic(cells, prior))`` and builds no table or trace.
:func:`plan_for` holds one plan per (rules, prior) per process;
``runner.run_grid`` empties it when a run starts, before any fork, so each
run and worker starts cold.  The memo only saves work.  The kernel's own
tables in ``stats`` (the quadrature's nodes, the exact margin sum's
coefficient vectors) are not result caches: each holds a pure function of
its key, never a probability.  A :class:`ComparisonData` record's first
four fields are its cells, so ``t[:4]`` is the table the rules and the memo
read.  Each record given to :func:`evaluate_cohort` has a patient on both
arms.

Combination semantics: every configured superiority rule on every analysed
comparison must hold to declare GO, while any single futility rule firing
anywhere declares STOP.  If contradictory rules make both hold at once,
STOP wins (conservative).  With no superiority rules configured at a stage,
GO is impossible at that stage (nothing can be "fulfilled"), which is what
makes interim-futility-only / final-superiority-only rule sets work.

Evaluation order: a run needs an analysis's verdict only, so
:func:`evaluate_cohort` evaluates the rules that verdict needs.  First the
futility-capable rules of every analysed comparison, in record and field
order, returning STOP_FUTILITY at the first that fires; then the
superiority-capable rules in the same order, returning CONTINUE (interim) or
UNSUCCESSFUL_MAX_N (final) at the first that does not hold, and GO when all
hold.  A rule the verdict does not need is never evaluated, so a
``stats.QuadratureError`` or ``ValueError`` it would raise does not fail the
trial.  :func:`is_superior` answers a comparison's superiority through the
same memo.  :func:`explain` evaluates every rule and folds the outcomes with
:func:`combine`, which gives the same verdict; only trajectory dumps call
it, so rule traces exist only there.

The "promising" flag is recorded in traces and dumps only; it never
changes a verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import TYPE_CHECKING, ClassVar, NamedTuple, Sequence

from .schema import param
from .stats import (Cells, PosteriorBeta, ci, one_sided_prop_test, point_estimate,
                    prob_exceeds, prob_greater_by_margin)

if TYPE_CHECKING:
    from .config import BetaPrior, ComparisonRules, DecisionRuleSet

INTERIM = "interim"
FINAL = "final"

GO = "GO"
STOP_FUTILITY = "STOP_FUTILITY"
CONTINUE = "CONTINUE"
UNSUCCESSFUL_MAX_N = "UNSUCCESSFUL_MAX_N"

#: the arms, in the order of ``platform.allocation_ratio``
ARM_ORDER = ("comb", "mono_a", "mono_b", "soc")

#: comparison index -> (numerator arm, comparator arm)
COMPARISON_ARMS = {1: ("comb", "mono_a"), 2: ("comb", "mono_b"),
                   3: ("mono_a", "soc"), 4: ("mono_b", "soc")}


class ComparisonData(NamedTuple):
    """The counts one comparison is analysed on, as dumped: the 2x2 table,
    whose cells are the first four fields (treatment = the numerator arm's
    own patients, comparator = its own patients plus ``share_weight`` times
    the external pool), and that pool."""

    t_resp: float
    t_nonresp: float
    c_resp: float
    c_nonresp: float
    comparison: int
    share_weight: float | None = None  # None when no external data entered the table
    external_resp: float = 0.0
    external_total: float = 0.0


@dataclass(frozen=True)
class RuleTrace:
    """One entry per configured rule: what was computed against what
    threshold.  ``satisfied`` is the rule's primary condition (superiority
    for GO-capable rules, futility for STOP-only rules)."""

    kind: str
    statistic: tuple[float, ...]
    threshold: tuple[float, ...]
    satisfied: bool
    superior: bool = False
    futile: bool = False
    promising: bool = False


# --- rule kinds ------------------------------------------------------------

_MARGIN = {"name": "margin"}
_THRESHOLD = {"name": "threshold", "lo": 0.0, "hi": 1.0}
_CONF = {"name": "confidence", "lo": 0.0, "hi": 1.0}
_PROM = {"name": "promising confidence", "lo": 0.0, "hi": 1.0}
P_ADJUSTMENTS = ("none", "bonferroni_half")


@dataclass(frozen=True)
class Rule:
    """Base of every rule kind (see the module docstring)."""

    key: ClassVar[str]
    single_arm: ClassVar[bool] = False
    superiority: ClassVar[bool] = False
    futility: ClassVar[bool] = False

    def evaluate(self, cells: Cells, prior: BetaPrior) -> RuleTrace:
        """The rule's trace on the table ``cells``; both arms must hold a patient."""
        _check_arms(cells)
        statistic = self.statistic(cells, prior)
        superior, futile, promising = self.judge(statistic)
        return RuleTrace(self.key, statistic, self.threshold,
                         satisfied=superior if self.superiority else futile,
                         superior=superior, futile=futile, promising=promising)

    def conflicts(self, rules: ComparisonRules) -> list[str]:
        return []


@dataclass(frozen=True)
class _BayesRows(Rule):
    """Bayesian rule whose rows start with a margin (two-arm: P(X > Y +
    margin)) or a threshold (single-arm: P(X > threshold)), then a confidence."""

    threshold = property(lambda self: tuple(row[1] for row in self.rows))

    def statistic(self, cells, prior):
        x = PosteriorBeta(prior.alpha + cells[0], prior.beta + cells[1])
        if self.single_arm:
            return tuple([prob_exceeds(x, row[0]) for row in self.rows])
        y = PosteriorBeta(prior.alpha + cells[2], prior.beta + cells[3])
        return tuple([prob_greater_by_margin(x, y, row[0]) for row in self.rows])


@dataclass(frozen=True)
class BayesSupRule(_BayesRows):
    """Rows of (margin, confidence, promising_confidence): superior iff
    P(X > Y + margin) > confidence for every row.  A promising threshold of
    1.0 can never be crossed and disables the promising flag for that row."""

    key = "bayes_sup"
    superiority = True
    rival = "bayes_fut"  # the futility kind whose regions conflicts() checks
    rows: tuple[tuple[float, float, float], ...] = param(nonempty=True,
                                                         columns=(_MARGIN, _CONF, _PROM))

    def judge(self, statistic):
        superior = all([p > conf for p, (_, conf, _) in zip(statistic, self.rows)])
        return superior, False, not superior and all(
            [p > prom for p, (_, _, prom) in zip(statistic, self.rows)])

    def conflicts(self, rules):
        return [f"superiority (margin {sm}, conf {sc}) and futility (margin {fm}, conf {fc}) "
                f"regions overlap; both can fire simultaneously"
                for fut in getattr(rules, self.rival)
                for sm, sc, _ in self.rows for fm, fc in fut.rows if fm <= sm and fc > sc]


@dataclass(frozen=True)
class BayesFutRule(_BayesRows):
    """Rows of (margin, confidence): futile iff P(X > Y + margin) <
    confidence for every row."""

    key = "bayes_fut"
    futility = True
    rows: tuple[tuple[float, float], ...] = param(nonempty=True, columns=(_MARGIN, _CONF))

    def judge(self, statistic):
        return False, all([p < conf for p, (_, conf) in zip(statistic, self.rows)]), False


@dataclass(frozen=True)
class BayesSASupRule(BayesSupRule):
    """Single-arm variant: rows of (threshold, confidence,
    promising_confidence); superior iff P(X > threshold) > confidence."""

    key = "bayes_sa_sup"
    single_arm = True
    rival = "bayes_sa_fut"
    rows: tuple[tuple[float, float, float], ...] = param(nonempty=True,
                                                         columns=(_THRESHOLD, _CONF, _PROM))


@dataclass(frozen=True)
class BayesSAFutRule(BayesFutRule):
    """Single-arm variant: rows of (threshold, confidence); futile iff
    P(X > threshold) < confidence for every row."""

    key = "bayes_sa_fut"
    single_arm = True
    rows: tuple[tuple[float, float], ...] = param(nonempty=True, columns=(_THRESHOLD, _CONF))


@dataclass(frozen=True)
class _FreqRule(Rule):
    """Rule on the one-sided p-value of the pooled two-proportion z test (``correct``:
    continuity-corrected); its thresholds are halved under ``bonferroni_half``."""

    half = property(lambda self: 0.5 if self.p_adj == "bonferroni_half" else 1.0)

    def statistic(self, cells, prior):
        return (one_sided_prop_test(cells, correct=self.correct),)


@dataclass(frozen=True)
class FreqSupRule(_FreqRule):
    """Superior iff the p-value is below ``p_sup``; ``p_prom`` = 0 disables
    the promising flag."""

    key = "freq_sup"
    superiority = True
    p_sup: float = param(lo=0.0, hi=1.0)
    p_prom: float = param(0.0, lo=0.0, hi=1.0)
    p_adj: str = param("none", choices=P_ADJUSTMENTS)
    correct: bool = False
    threshold = property(lambda self: (self.p_sup * self.half,))

    def judge(self, statistic):
        (p,), half = statistic, self.half
        superior = p < self.p_sup * half
        return superior, False, (not superior) and p < self.p_prom * half


@dataclass(frozen=True)
class FreqFutRule(_FreqRule):
    """Futile iff the p-value is >= ``p_fut``."""

    key = "freq_fut"
    futility = True
    p_fut: float = param(lo=0.0, hi=1.0)
    p_adj: str = param("none", choices=P_ADJUSTMENTS)
    correct: bool = False
    threshold = property(lambda self: (self.p_fut * self.half,))

    def judge(self, statistic):
        return False, statistic[0] >= self.p_fut * self.half, False


@dataclass(frozen=True)
class EstSupFutRule(Rule):
    """Point-estimate rule (risk or odds ratio): superior iff the estimate
    >= p_hat_sup, futile iff it is <= p_hat_fut."""

    key = "est_sup_fut"
    superiority = futility = True
    est: str = param(choices=("RR", "OR"))
    p_hat_sup: float = param(inf=True)
    p_hat_fut: float = param(inf=True)
    p_hat_prom: float = param(math.inf, inf=True)
    threshold = property(lambda self: (self.p_hat_sup, self.p_hat_fut))

    def statistic(self, cells, prior):
        return (point_estimate(cells, self.est),)

    def judge(self, statistic):
        (e,) = statistic
        superior = e >= self.p_hat_sup
        return superior, e <= self.p_hat_fut, (not superior) and e >= self.p_hat_prom

    def conflicts(self, rules):
        if self.p_hat_fut >= self.p_hat_sup:
            return ["futility threshold >= superiority threshold; both can fire"]
        return []


@dataclass(frozen=True)
class CISupFutRule(Rule):
    """Confidence-interval rule (risk difference, risk or odds ratio):
    superior iff the upper bound >= lower_sup, futile iff the lower bound
    <= upper_fut."""

    key = "ci_sup_fut"
    superiority = futility = True
    est: str = param(choices=("AR", "RR", "OR"))
    level: float = param(lo=0.0, hi=1.0, open=True)
    lower_sup: float = param(inf=True)
    upper_fut: float = param(inf=True)
    lower_prom: float = param(math.inf, inf=True)
    threshold = property(lambda self: (self.lower_sup, self.upper_fut))

    def statistic(self, cells, prior):
        return ci(cells, self.est, self.level)

    def judge(self, statistic):
        lo, hi = statistic
        superior = hi >= self.lower_sup
        return superior, lo <= self.upper_fut, (not superior) and hi >= self.lower_prom


# --- evaluation ------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonOutcome:
    superior: bool      # all sup-capable rules satisfied (and at least one present)
    futile: bool        # any futility-capable rule fired
    promising: bool     # every sup-capable rule superior or promising
    n_sup_rules: int
    traces: tuple[RuleTrace, ...] = ()


@dataclass(frozen=True)
class CohortDecision:
    verdict: str
    stage: str
    promising: bool
    comparisons: tuple[ComparisonOutcome, ...]
    note: str = ""


class Verdict(NamedTuple):
    """What one analysis decided (``verdict``), at which ``stage``."""

    verdict: str
    stage: str


def _check_arms(cells: Cells) -> None:
    if cells[0] + cells[1] < 1.0 or cells[2] + cells[3] < 1.0:
        raise ValueError(f"an arm of the table {cells} holds fewer than one patient")


class AnalysisPlan:
    """One scenario's ``rules``, ``prior``, ``comparisons``, ``rule_ids`` and ``flags`` memo."""

    def __init__(self, rules: DecisionRuleSet, prior: BetaPrior):
        self.rules, self.prior = rules, prior
        stages = (rules.interim, rules.final)
        distinct = list(dict.fromkeys(r for stage in stages for comp in stage for r in comp))
        index = {rule: i for i, rule in enumerate(distinct)}
        #: stage -> the indices among the distinct rules of comparison c's futility-capable
        #: and of its superiority-capable rules, in field order, at c - 1
        self.rule_ids = {s: tuple((tuple(index[r] for r in comp if r.futility),
                                   tuple(index[r] for r in comp if r.superiority))
                                  for comp in stage) for s, stage in zip((INTERIM, FINAL), stages)}

        # closures, not methods: a dropped plan frees its memo without a cycle
        @cache
        def comparisons(arms: tuple[str, ...], stage: str) -> tuple[int, ...]:
            """Both arms in a cohort with ``arms`` and a rule configured (at most 32 keys)."""
            stage_rules = rules.for_stage(stage)
            return tuple(c for c, (num, den) in COMPARISON_ARMS.items()
                         if num in arms and den in arms and not stage_rules[c - 1].empty)

        # an entry holds about 0.3 KB (tracemalloc, seed 7): 4,096 take 1.3 MB.  Kernel
        # calls on grid_pool (one process, seed 7): 19,597 at 4,096 entries, 18,965 at
        # 5,632 and 16,592 unbounded; the 3,812 of dynamic_share all fit
        @lru_cache(maxsize=4096)
        def flags(rule_id: int, cells: Cells) -> tuple[bool, bool]:
            """(superior, futile) of the distinct rule ``rule_id`` on the 2x2 table
            ``cells``; both arms must hold a patient."""
            _check_arms(cells)
            rule = distinct[rule_id]
            return rule.judge(rule.statistic(cells, prior))[:2]

        self.comparisons, self.flags = comparisons, flags


#: ``plan_for(rules, prior)``: the plan of the rules and prior this process runs, kept
#: until other ones come or ``runner.run_grid`` empties it when a run starts
plan_for = lru_cache(maxsize=1)(AnalysisPlan)


def evaluate_cohort(plan: AnalysisPlan, data: Sequence[ComparisonData],
                    stage: str) -> Verdict:
    """The verdict of one cohort at one stage on the records ``data``, from
    the rules it needs (see the module docstring): :func:`combine`'s verdict
    over :func:`explain`'s outcomes."""
    rule_ids = plan.rule_ids[stage]
    flags = plan.flags
    tables = [(rule_ids[t.comparison - 1], t[:4]) for t in data]
    for (futility, _), cells in tables:
        for rule_id in futility:
            if flags(rule_id, cells)[1]:
                return Verdict(STOP_FUTILITY, stage)
    not_go = CONTINUE if stage == INTERIM else UNSUCCESSFUL_MAX_N
    go = False  # GO needs a superiority rule
    for (_, superiority), cells in tables:
        for rule_id in superiority:
            if not flags(rule_id, cells)[0]:
                return Verdict(not_go, stage)
            go = True
    return Verdict(GO if go else not_go, stage)


def is_superior(plan: AnalysisPlan, t: ComparisonData, stage: str) -> bool:
    """Whether the superiority rules of ``t``'s comparison at ``stage`` all
    hold on it, at least one being configured: its outcome's ``superior``."""
    superiority = plan.rule_ids[stage][t.comparison - 1][1]
    cells = t[:4]
    return bool(superiority) and all(plan.flags(rule_id, cells)[0] for rule_id in superiority)


def comparison_outcome(rules: ComparisonRules, cells: Cells,
                       prior: BetaPrior) -> ComparisonOutcome:
    """Every rule of ``rules`` on the table ``cells``, in field order; both
    arms must hold a patient."""
    traces = tuple([rule.evaluate(cells, prior) for rule in rules])
    sup = [trace for rule, trace in zip(rules, traces) if rule.superiority]
    return ComparisonOutcome(
        superior=bool(sup) and all(trace.superior for trace in sup),
        futile=any(trace.futile for trace in traces),
        promising=bool(sup) and all(trace.superior or trace.promising for trace in sup),
        n_sup_rules=len(sup), traces=traces)


def combine(outcomes: Sequence[ComparisonOutcome], stage: str) -> CohortDecision:
    """Fold per-comparison outcomes into one verdict.

    GO needs every comparison's superiority rules satisfied (with at least
    one superiority rule configured overall); STOP_FUTILITY needs any
    single futility rule to fire and wins over a simultaneous GO.  Otherwise
    the cohort continues (interim) or ends unsuccessful at maximum sample
    size (final).
    """
    any_futile = any(o.futile for o in outcomes)
    sup_bearing = [o for o in outcomes if o.n_sup_rules > 0]
    go = bool(sup_bearing) and all(o.superior for o in sup_bearing)
    promising = (not go) and bool(sup_bearing) and \
        all(o.superior or o.promising for o in sup_bearing)
    note = ""
    if any_futile:
        verdict = STOP_FUTILITY
        if go:
            note = "superiority and futility both satisfied; futility wins (conservative)"
    elif go:
        verdict = GO
    elif stage == INTERIM:
        verdict = CONTINUE
    else:
        verdict = UNSUCCESSFUL_MAX_N
        note = "superiority criterion not reached at maximum sample size"
    return CohortDecision(verdict=verdict, stage=stage, promising=promising,
                          comparisons=tuple(outcomes), note=note)


def explain(plan: AnalysisPlan, data: Sequence[ComparisonData], stage: str) -> CohortDecision:
    """What a dump shows of one analysis: every rule of every record of
    ``data`` evaluated (no memo) and folded by :func:`combine`, with
    ``comparisons[i]`` belonging to ``data[i]``."""
    stage_rules = plan.rules.for_stage(stage)
    return combine([comparison_outcome(stage_rules[t.comparison - 1], t[:4], plan.prior)
                    for t in data], stage)
