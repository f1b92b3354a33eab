"""Single platform-trial simulation: cohort lifecycle, block randomization,
outcome generation, sharing-aware analysis data assembly, interim/final
analyses and platform-level stopping.

Time is discrete and measured in the platform-wide patient counter; there
is no calendar time or recruitment-speed modelling.  Per iteration of the
main loop every enrolling cohort receives one randomization block; after
each included patient a safety-stop and a new-cohort Bernoulli are drawn,
so cohorts enter the platform at random patient positions.  Analyses
trigger on the cohort's total enrollment, which can overshoot the nominal
interim/final sizes by at most one block.

One trial owns exactly one random generator and is strictly sequential;
parallelism happens across trials, never inside one.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .config import ScenarioSpec
from .decisions import (COMPARISON_ARMS, FINAL, GO, INTERIM, STOP_FUTILITY,
                        UNSUCCESSFUL_MAX_N, CohortDecision, ComparisonData,
                        evaluate_cohort)
from .efficacy import CohortTruth, classify_truth, draw_cohort_truth
from .stats import TwoByTwo, one_sided_prop_test

ARM_ORDER = ("comb", "mono_a", "mono_b", "soc")
SHARED_ARMS = ("mono_b", "soc")  # comparator arms augmented by data sharing

ENROLLING = "enrolling"
STOPPED_INTERIM_FUTILITY = "stopped_interim_futility"
STOPPED_INTERIM_EFFICACY = "stopped_interim_efficacy"
STOPPED_SAFETY = "stopped_safety"
COMPLETED_GO = "completed_go"
COMPLETED_UNSUCCESSFUL = "completed_unsuccessful"
COMPLETED_FUTILITY = "completed_futility"
HALTED_RECRUITMENT = "halted_recruitment"

POSITIVE_STATUSES = frozenset({STOPPED_INTERIM_EFFICACY, COMPLETED_GO})
NEGATIVE_STATUSES = frozenset({STOPPED_INTERIM_FUTILITY, COMPLETED_FUTILITY,
                               COMPLETED_UNSUCCESSFUL})


class ArmLedger:
    """Ordered per-arm patient record with prefix sums for range queries."""

    __slots__ = ("idx", "bio", "hist", "cum_bio", "cum_hist", "n", "tot_bio", "tot_hist")

    def __init__(self):
        self.idx: list[int] = []
        self.bio: list[int] = []
        self.hist: list[int] = []
        self.cum_bio: list[int] = [0]
        self.cum_hist: list[int] = [0]
        self.n = 0
        self.tot_bio = 0
        self.tot_hist = 0

    def add(self, enroll_idx: int, bio: int, hist: int) -> None:
        self.idx.append(enroll_idx)
        self.bio.append(bio)
        self.hist.append(hist)
        self.n += 1
        self.tot_bio += bio
        self.tot_hist += hist
        self.cum_bio.append(self.tot_bio)
        self.cum_hist.append(self.tot_hist)

    def counts(self, stage: str) -> tuple[int, int]:
        """(responders, total) at the given endpoint stage."""
        return (self.tot_bio if stage == INTERIM else self.tot_hist, self.n)

    def counts_from(self, start_idx: int, stage: str) -> tuple[int, int]:
        """(responders, total) over patients with enrollment index >= start_idx."""
        j = bisect.bisect_left(self.idx, start_idx)
        cum = self.cum_bio if stage == INTERIM else self.cum_hist
        return (cum[self.n] - cum[j], self.n - j)

    def pair_counts(self) -> tuple[int, int, int, int]:
        n00 = n01 = n10 = n11 = 0
        for b, h in zip(self.bio, self.hist):
            if b:
                if h:
                    n11 += 1
                else:
                    n10 += 1
            elif h:
                n01 += 1
            else:
                n00 += 1
        return (n00, n01, n10, n11)


@dataclass(frozen=True)
class ComparisonDataSummary:
    """Counts (after sharing) actually used for one comparison at one analysis."""

    comparison: int
    t_resp: float
    t_nonresp: float
    c_resp: float
    c_nonresp: float
    share_weight: float | None  # None when no external data entered the table
    external_resp: float
    external_total: float


@dataclass(frozen=True)
class AnalysisRecord:
    stage: str
    n_enrolled: int
    patient_counter: int
    halted: bool
    data: tuple[ComparisonDataSummary, ...]
    decision: CohortDecision


class CohortState:
    """Mutable working state of one cohort inside a running trial."""

    __slots__ = ("id", "open_index", "close_index", "arms", "has_soc", "truth",
                 "truth_class", "transform", "cum_probs", "status", "ledgers",
                 "analyses", "blocks", "block_template", "active_comparisons")

    def __init__(self, cid: int, open_index: int, arms: tuple[str, ...],
                 truth: CohortTruth, truth_class: str, transform, ratio):
        self.id = cid
        self.open_index = open_index
        self.close_index: int | None = None
        self.arms = arms
        self.has_soc = "soc" in arms
        self.truth = truth
        self.truth_class = truth_class
        self.transform = transform
        self.status = ENROLLING
        self.ledgers = {arm: ArmLedger() for arm in arms}
        self.analyses: list[AnalysisRecord] = []
        self.blocks = 0
        template = []
        for arm, r in zip(ARM_ORDER, ratio):
            if arm in arms:
                template.extend([arm] * r)
        self.block_template = tuple(template)
        self.active_comparisons = tuple(
            c for c, (num, den) in COMPARISON_ARMS.items() if num in arms and den in arms)
        self.cum_probs = {arm: cum_pair_probs(transform, truth.rate(arm)) for arm in arms}

    @property
    def total_n(self) -> int:
        return sum(led.n for led in self.ledgers.values())

    @property
    def has_interim(self) -> bool:
        return any(a.stage == INTERIM for a in self.analyses)

    @property
    def has_final(self) -> bool:
        return any(a.stage == FINAL for a in self.analyses)


# ---------------------------------------------------------------------------
# result records


@dataclass(frozen=True)
class ArmResult:
    n: int
    bio_responders: int
    hist_responders: int
    pairs: tuple[int, int, int, int]
    true_rate: float
    enroll_idx: tuple[int, ...]
    bio: tuple[int, ...]
    hist: tuple[int, ...]


@dataclass(frozen=True)
class CohortResult:
    id: int
    open_index: int
    close_index: int | None
    arms: tuple[str, ...]
    truth: dict[str, float]
    truth_clamped: bool
    truth_class: str
    status: str
    blocks: int
    per_arm: dict[str, ArmResult]
    analyses: tuple[AnalysisRecord, ...]
    confusion: str | None


@dataclass(frozen=True)
class TrialResult:
    scenario_id: str
    total_n: int
    cohorts: tuple[CohortResult, ...]
    successes: int
    first_success: dict | None
    entry_closed_index: int | None
    recruitment_halt_index: int | None
    safety_stops: tuple[tuple[int, int], ...]  # (cohort id, patient counter)
    soc_slot_patients: int


# ---------------------------------------------------------------------------
# operations


def allocate_block(cohort: CohortState, rng) -> list[str]:
    """One randomization block: exact per-arm counts from the allocation
    ratio restricted to the cohort's present arms, in uniformly random
    within-block order."""
    template = cohort.block_template
    order = rng.permutation(len(template))
    return [template[i] for i in order]


def cum_pair_probs(transform, rr: float) -> tuple[float, float, float]:
    """Cumulative probabilities of the outcome pairs 0/0, 0/1 and 1/0 (1/1
    takes the rest) under ``transform`` at true final rate ``rr``."""
    p00, p01, p10, _ = transform(rr)
    return (p00, p00 + p01, p00 + p01 + p10)


def gen_outcome_pair(cum: tuple[float, float, float], rng) -> tuple[int, int]:
    """Draw one (interim, final) outcome pair given ``cum_pair_probs``."""
    u = rng.random()
    if u < cum[0]:
        return (0, 0)
    if u < cum[1]:
        return (0, 1)
    if u < cum[2]:
        return (1, 0)
    return (1, 1)


def _dynamic_weight(own_resp: float, own_n: float, ext_resp: float, ext_n: float) -> float:
    """Borrowing weight in [0, 1] that grows with homogeneity between the
    cohort's own comparator data and the external pool.

    Implemented as the two-sided p-value of the pooled one-sided z test,
    w = min(1, 2 * min(p, 1-p)): identical rates give w = 1, grossly
    different rates give w near 0.  With no own data to judge homogeneity
    the pool is shared fully.
    """
    if own_n < 1.0 or ext_n < 1.0:
        return 1.0
    p = one_sided_prop_test(TwoByTwo(own_resp, own_n - own_resp, ext_resp, ext_n - ext_resp))
    return min(1.0, 2.0 * min(p, 1.0 - p))


def _external_pool(cohorts, cohort: CohortState, arm: str, stage: str,
                   mode: str) -> tuple[float, float]:
    resp = 0.0
    tot = 0.0
    for other in cohorts:
        if other is cohort:
            continue
        led = other.ledgers.get(arm)
        if led is None or led.n == 0:
            continue
        if mode == "concurrent":
            r, n = led.counts_from(cohort.open_index, stage)
        else:
            r, n = led.counts(stage)
        resp += r
        tot += n
    return resp, tot


def assemble_analysis_data(cohorts, cohort: CohortState, mode: str, stage: str
                           ) -> tuple[dict[int, ComparisonData], tuple[ComparisonDataSummary, ...]]:
    """Build the four comparisons' tables from the cohort's own arms at the
    given endpoint stage, augmenting SoC / backbone comparator cells with
    external data per the sharing mode.

    cohort: own data only.  all: every patient enrolled on other cohorts'
    matching arms so far.  concurrent: only those enrolled while this cohort
    has been open.  dynamic: the full pool, downweighted by homogeneity
    (fractional counts).
    """
    data: dict[int, ComparisonData] = {}
    summaries: list[ComparisonDataSummary] = []
    for comp in cohort.active_comparisons:
        num, den = COMPARISON_ARMS[comp]
        num_r, num_n = cohort.ledgers[num].counts(stage)
        den_r, den_n = cohort.ledgers[den].counts(stage)
        weight: float | None = None
        ext_r = ext_n = 0.0
        if mode != "cohort" and den in SHARED_ARMS:
            ext_r, ext_n = _external_pool(cohorts, cohort, den, stage, mode)
            if ext_n > 0:
                weight = _dynamic_weight(den_r, den_n, ext_r, ext_n) if mode == "dynamic" else 1.0
                den_r = den_r + weight * ext_r
                den_n = den_n + weight * ext_n
        table = TwoByTwo(num_r, num_n - num_r, den_r, den_n - den_r)
        data[comp] = ComparisonData(table=table, arm_responders=float(num_r),
                                    arm_total=float(num_n))
        summaries.append(ComparisonDataSummary(
            comparison=comp, t_resp=table.t_resp, t_nonresp=table.t_nonresp,
            c_resp=table.c_resp, c_nonresp=table.c_nonresp,
            share_weight=weight, external_resp=ext_r, external_total=ext_n))
    return data, tuple(summaries)


def classify_decision(cohort_status: str, truth_class: str) -> str | None:
    """Confusion outcome of a decided cohort; None for cohorts that reached
    no efficacy decision (safety stops, recruitment-halted without analysis)."""
    if cohort_status == ENROLLING:
        raise ValueError("cohort has not reached a terminal status")
    if cohort_status in POSITIVE_STATUSES:
        return "TP" if truth_class == "superior" else "FP"
    if cohort_status in NEGATIVE_STATUSES:
        return "FN" if truth_class == "superior" else "TN"
    return None


class _Platform:
    """Mutable platform state for one trial."""

    def __init__(self, spec: ScenarioSpec, rng):
        self.spec = spec
        self.rng = rng
        self.patient_counter = 0
        self.soc_enrolled = 0
        self.cohorts: list[CohortState] = []
        self.successes = 0
        self.recruitment_open = True
        self.last_open_index = 0
        self.mono_vs_soc_sup = False  # any monotherapy found superior to SoC
        self.back_vs_soc_sup = False  # backbone monotherapy found superior to SoC
        self.first_success: dict | None = None
        self.entry_closed_index: int | None = None
        self.recruitment_halt_index: int | None = None
        self.safety_stops: list[tuple[int, int]] = []
        self.soc_slots = 0
        self.sr_pats_fired = False

    # --- cohort entry -----------------------------------------------------

    def _new_cohort_has_soc(self) -> bool:
        struc = self.spec.platform.trial_struc
        if struc == "all_plac":
            return True
        if struc == "no_plac":
            return False
        if struc == "stop_post_back":
            return not self.back_vs_soc_sup
        return not self.mono_vs_soc_sup  # stop_post_mono

    def open_cohort(self) -> CohortState:
        spec = self.spec
        ratio = spec.platform.allocation_ratio
        arms = []
        has_soc = self._new_cohort_has_soc()
        for arm, r in zip(ARM_ORDER, ratio):
            if r > 0 and (arm != "soc" or has_soc):
                arms.append(arm)
        arms = tuple(arms)
        truth = draw_cohort_truth(spec.efficacy, self.rng)
        transform = spec.endpoint.sample_transform(self.rng)
        truth_class = classify_truth(truth, spec.target, has_soc_comparisons="soc" in arms)
        cohort = CohortState(len(self.cohorts), self.patient_counter, arms,
                             truth, truth_class, transform, ratio)
        self.cohorts.append(cohort)
        self.last_open_index = self.patient_counter
        return cohort

    def may_open_cohort(self) -> bool:
        p = self.spec.platform
        if not self.recruitment_open or len(self.cohorts) >= p.cohorts_max:
            return False
        if p.sr_first_pos and self.successes >= 1:
            return False
        return self.patient_counter - self.last_open_index >= p.cohort_offset

    def close_entry(self) -> None:
        if self.recruitment_open:
            self.recruitment_open = False
            self.entry_closed_index = self.patient_counter

    # --- enrollment --------------------------------------------------------

    def enroll_block(self, cohort: CohortState) -> None:
        spec = self.spec
        rng = self.rng
        safety_prob = spec.platform.safety_prob
        cohort_random = spec.platform.cohort_random
        cum_probs = cohort.cum_probs
        ledgers = cohort.ledgers
        cohort.blocks += 1
        self.soc_slots += spec.platform.allocation_ratio[3]
        for arm in allocate_block(cohort, rng):
            self.patient_counter += 1
            if arm == "soc":
                self.soc_enrolled += 1
            bio, hist = gen_outcome_pair(cum_probs[arm], rng)
            ledgers[arm].add(self.patient_counter - 1, bio, hist)
            # one safety and one cohort-entry draw per included patient
            u_safety = rng.random()
            u_entry = rng.random()
            if u_safety < safety_prob:
                cohort.status = STOPPED_SAFETY
                cohort.close_index = self.patient_counter
                self.safety_stops.append((cohort.id, self.patient_counter))
            if u_entry < cohort_random and self.may_open_cohort():
                self.open_cohort()
            if cohort.status != ENROLLING:
                break  # rest of this cohort's block is not enrolled

    # --- analyses ----------------------------------------------------------

    def run_analysis(self, cohort: CohortState, stage: str, halted: bool = False) -> CohortDecision:
        spec = self.spec
        data, summaries = assemble_analysis_data(self.cohorts, cohort,
                                                 spec.platform.sharing_type, stage)
        decision = evaluate_cohort(spec.rules.for_stage(stage), data, spec.prior,
                                   stage, cohort.active_comparisons)
        cohort.analyses.append(AnalysisRecord(
            stage=stage, n_enrolled=cohort.total_n, patient_counter=self.patient_counter,
            halted=halted, data=summaries, decision=decision))

        # platform flags for post-success SoC omission in new cohorts
        out3 = decision.outcome(3)
        out4 = decision.outcome(4)
        if out3 is not None and out3.superior:
            self.mono_vs_soc_sup = True
        if out4 is not None and out4.superior:
            self.mono_vs_soc_sup = True
            self.back_vs_soc_sup = True

        if decision.verdict == GO:
            cohort.status = STOPPED_INTERIM_EFFICACY if stage == INTERIM else COMPLETED_GO
            cohort.close_index = self.patient_counter
            self.successes += 1
            if self.first_success is None:
                self.first_success = {
                    "cohort_id": cohort.id,
                    "patient_counter": self.patient_counter,
                    "soc_patients": self.soc_enrolled,
                    "cohorts_opened": len(self.cohorts),
                    "stage": stage,
                }
        elif decision.verdict == STOP_FUTILITY:
            cohort.status = STOPPED_INTERIM_FUTILITY if stage == INTERIM else COMPLETED_FUTILITY
            cohort.close_index = self.patient_counter
        elif decision.verdict == UNSUCCESSFUL_MAX_N:
            cohort.status = COMPLETED_UNSUCCESSFUL
            cohort.close_index = self.patient_counter
        # CONTINUE keeps enrolling
        return decision

    def halt_enrolling_cohorts(self) -> None:
        """Stop recruitment everywhere and conclude on accumulated data.

        An enrolling cohort only ever gains whole blocks, so once it has
        patients every arm holds data and any comparison with final-stage
        rules can be analysed."""
        self.close_entry()
        if self.recruitment_halt_index is None:
            self.recruitment_halt_index = self.patient_counter
        final_rules = self.spec.rules.final
        for cohort in self.cohorts:
            if cohort.status != ENROLLING:
                continue
            if cohort.total_n > 0 and any(not final_rules[c - 1].empty
                                          for c in cohort.active_comparisons):
                self.run_analysis(cohort, FINAL, halted=True)
                if cohort.status == ENROLLING:  # CONTINUE cannot happen at final
                    cohort.status = COMPLETED_UNSUCCESSFUL
                    cohort.close_index = self.patient_counter
            else:
                cohort.status = HALTED_RECRUITMENT
                cohort.close_index = self.patient_counter


def simulate_trial(spec: ScenarioSpec, rng) -> TrialResult:
    """Simulate one platform-trial trajectory to completion.

    Identical (spec, generator state) pairs produce identical results; the
    generator is consumed in a fixed documented order (cohort opening: four
    truth draws then one transform draw; per patient: outcome, safety,
    cohort-entry uniforms; per block: one permutation).
    """
    state = _Platform(spec, rng)
    p = spec.platform
    for _ in range(p.initial_cohorts):
        state.open_cohort()

    while True:
        enrolling = [c for c in state.cohorts if c.status == ENROLLING]
        if not enrolling:
            break
        for cohort in enrolling:
            if cohort.status == ENROLLING:
                state.enroll_block(cohort)

        # size-triggered analyses, in cohort order
        for cohort in state.cohorts:
            if cohort.status != ENROLLING:
                continue
            size = cohort.total_n
            # with n_int == n_fin the stages coincide: only the final runs
            if p.n_int < p.n_fin and size >= p.n_int and not cohort.has_interim:
                state.run_analysis(cohort, INTERIM)
            if cohort.status == ENROLLING and size >= p.n_fin and not cohort.has_final:
                state.run_analysis(cohort, FINAL)

        # platform-level stopping
        if state.successes >= p.sr_drugs_pos:
            state.close_entry()
            if not p.run_out_active_cohorts:
                state.halt_enrolling_cohorts()
        if state.patient_counter >= p.sr_pats and not state.sr_pats_fired:
            state.sr_pats_fired = True
            state.halt_enrolling_cohorts()

    cohorts = []
    for c in state.cohorts:
        per_arm = {}
        for arm in c.arms:
            led = c.ledgers[arm]
            per_arm[arm] = ArmResult(
                n=led.n, bio_responders=led.tot_bio, hist_responders=led.tot_hist,
                pairs=led.pair_counts(), true_rate=c.truth.rate(arm),
                enroll_idx=tuple(led.idx), bio=tuple(led.bio), hist=tuple(led.hist))
        cohorts.append(CohortResult(
            id=c.id, open_index=c.open_index, close_index=c.close_index,
            arms=c.arms,
            truth={arm: c.truth.rate(arm) for arm in ARM_ORDER},
            truth_clamped=c.truth.clamped,
            truth_class=c.truth_class, status=c.status, blocks=c.blocks,
            per_arm=per_arm, analyses=tuple(c.analyses),
            confusion=classify_decision(c.status, c.truth_class)))
    return TrialResult(
        scenario_id=spec.id,
        total_n=state.patient_counter,
        cohorts=tuple(cohorts),
        successes=state.successes,
        first_success=state.first_success,
        entry_closed_index=state.entry_closed_index,
        recruitment_halt_index=state.recruitment_halt_index,
        safety_stops=tuple(state.safety_stops),
        soc_slot_patients=state.soc_slots,
    )
