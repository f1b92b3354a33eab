"""Single platform-trial simulation: cohort lifecycle, block randomization,
outcome generation, sharing-aware analysis data assembly, interim/final
analyses and platform-level stopping.

Time is discrete and measured in the platform-wide patient counter; there
is no calendar time or recruitment-speed modelling.  Per round every
enrolling cohort receives one randomization block, in cohort order.  Each
included patient stops its cohort for safety with probability
``safety_prob`` and opens a new cohort with probability ``cohort_random``
(once ``cohort_offset`` patients have enrolled since the last opening), so
cohorts enter the platform at random patient positions.  Analyses trigger at
the end of a round on the cohort's total enrollment, which can overshoot the
nominal interim/final sizes by at most one block.

A cohort draws all the patients it can ever enrol when it opens: a final
analysis always ends enrolment, so it never takes more than ceil(n_fin / b)
blocks of b patients.  One generator call gives their block orders and
outcome pairs, kept as one code 4 * arm + 2 * interim + final outcome a
patient.  Only this module decodes a code (``arm_counts``, ``Patients``);
other modules read per-arm values, true rates too, by ``ARM_ORDER``
position.  An opening's arms, truth class, template, pair probabilities and
block count are cached per drawn truth and transform (``cohort_opening``).

The engine steps from event to event.  The patients at which the next safety
stop and the next cohort entry happen are drawn as geometric waiting times.
One step enrolls k whole rounds: up to the next size-triggered analysis or
``sr_pats``, and before the next safety stop or cohort entry, or the one
round that holds it.  Enrolment draws nothing.  One loop enrols a step: each
cohort takes the next k blocks of its draw, and where an event falls in its
block, which only happens when k = 1, it walks the events' patient counters
through that block first.  One helper (``Trial._next_analysis``) gives a
cohort's next analysis, both to size a step and to run the analyses due at
its end, and one table (``CLOSING_STATUS``) maps a verdict at a stage to the
status that closes the cohort.

Platform stopping follows a round's analyses.  Entry closes only through
``Trial.close_entry`` (``entry_closed_index``): at ``sr_drugs_pos``
successes, at the first under ``sr_first_pos``, or on a halt.  Recruitment
halts at ``sr_pats`` patients, or at ``sr_drugs_pos`` successes without
run-out, and that ends the trial.  ``Trial.soc_dropped`` alone decides
whether an opening cohort gets SoC: true from the start under ``no_plac``,
and under ``stop_post_*`` once a comparison of ``DROPS_SOC`` is superior.

A cohort keeps no running count: it enrols its draw in order, so its
per-code tally is the count of its draw's enrolled prefix, taken when it is
read.  A cohort records the other cohorts' enrolled sizes at its entry, so
the ``concurrent`` sharing pool counts each one's draw since then, once for
both shared arms.

``simulate_trial`` returns the ``Trial`` it ran, with the ``CohortState``
objects of its cohorts, as the trial's one record, read-only once returned:
per-arm counts are read off the tally (``arm_counts``), a cohort's block
count off its size, and the patient log is joined from its recorded chunks
only where it is read, for trajectory dumps.

One trial owns exactly one random generator and is strictly sequential;
parallelism happens across trials, never inside one.  Rules, analysed
comparisons and the memo of rule flags come from the scenario's analysis plan
(``decisions.plan_for``).  An analysis record (``AnalysisRecord``) keeps its
data and its verdict only; the rule traces behind a verdict exist only in
trajectory dumps (``decisions.explain``).  It and its data records
(``decisions.ComparisonData``) are NamedTuples.
"""

from __future__ import annotations

import functools
import math
from operator import add
from typing import NamedTuple

import numpy as np

from .config import ScenarioSpec, TargetProfile
from .decisions import (ARM_ORDER, COMPARISON_ARMS, FINAL, GO, INTERIM, STOP_FUTILITY,
                        UNSUCCESSFUL_MAX_N, ComparisonData, evaluate_cohort, is_superior,
                        plan_for)
from .efficacy import CohortTruth, classify_truth, draw_cohort_truth
from .stats import one_sided_prop_test

#: version of the documented order in which ``simulate_trial`` consumes its
#: generator; a change of the draws (not of the simulated law) bumps it
STREAM_VERSION = 3

ARM_INDEX = {arm: i for i, arm in enumerate(ARM_ORDER)}
SHARED_ARMS = ("mono_b", "soc")  # comparator arms augmented by data sharing
_SHARED_INDEX = frozenset(map(ARM_INDEX.get, SHARED_ARMS))
#: comparison index -> the ARM_ORDER positions of its (numerator, comparator) arms
_COMPARISON_INDEX = {c: tuple(map(ARM_INDEX.get, arms)) for c, arms in COMPARISON_ARMS.items()}

#: trial structure -> the comparisons whose superiority drops SoC from the cohorts
#: that open afterwards: the backbone's, or either monotherapy's, against SoC
DROPS_SOC = {"stop_post_back": (4,), "stop_post_mono": (3, 4)}

ENROLLING = "enrolling"
STOPPED_INTERIM_FUTILITY = "stopped_interim_futility"
STOPPED_INTERIM_EFFICACY = "stopped_interim_efficacy"
STOPPED_SAFETY = "stopped_safety"
COMPLETED_GO = "completed_go"
COMPLETED_UNSUCCESSFUL = "completed_unsuccessful"
COMPLETED_FUTILITY = "completed_futility"
HALTED_RECRUITMENT = "halted_recruitment"

#: (verdict, stage) -> the status the verdict closes its cohort with; CONTINUE keeps
#: the cohort enrolling, and UNSUCCESSFUL_MAX_N is a final verdict only
CLOSING_STATUS = {
    (GO, INTERIM): STOPPED_INTERIM_EFFICACY, (GO, FINAL): COMPLETED_GO,
    (STOP_FUTILITY, INTERIM): STOPPED_INTERIM_FUTILITY, (STOP_FUTILITY, FINAL): COMPLETED_FUTILITY,
    (UNSUCCESSFUL_MAX_N, FINAL): COMPLETED_UNSUCCESSFUL,
}
POSITIVE_STATUSES = frozenset({STOPPED_INTERIM_EFFICACY, COMPLETED_GO})
NEGATIVE_STATUSES = frozenset({STOPPED_INTERIM_FUTILITY, COMPLETED_FUTILITY,
                               COMPLETED_UNSUCCESSFUL})


def arm_counts(tally) -> list[tuple[int, int, int]]:
    """Each arm's (patients, interim responders, final responders), in
    ``ARM_ORDER``, from a ``tally``: the count of each code 4 * arm + 2 *
    interim + final outcome.  No other module decodes a code."""
    cells = iter(tally)
    return [(n00 + n01 + n10 + n11, n10 + n11, n01 + n11)
            for n00, n01, n10, n11 in zip(cells, cells, cells, cells)]


class Patients(NamedTuple):
    """One cohort's patients in enrolment order: enrolment index, arm (index
    into ``ARM_ORDER``) and interim and final outcome (0 or 1)."""

    idx: np.ndarray
    arm: np.ndarray
    interim: np.ndarray
    final: np.ndarray


@functools.lru_cache(maxsize=1024)
def cohort_opening(truth: CohortTruth, transform, soc_dropped: bool, ratio: tuple[int, ...],
                   target: TargetProfile, n_fin: int):
    """An opening at drawn ``truth`` and ``transform``: arms, truth class, the
    read-only template and cum_probs of ``draw_patients``, and block count."""
    arms = tuple(a for a, r in zip(ARM_ORDER, ratio) if r > 0 and (a != "soc" or not soc_dropped))
    template = np.array([ARM_INDEX[a] for a, r in zip(ARM_ORDER, ratio) if a in arms
                         for _ in range(r)], dtype=np.int64)
    cum_probs = np.array([cum_pair_probs(transform, rr) for rr in truth[:4]]).T
    template.setflags(write=False)
    cum_probs.setflags(write=False)
    return (arms, classify_truth(truth, target, has_soc_comparisons="soc" in arms), template,
            cum_probs, -(-n_fin // template.size))


class AnalysisRecord(NamedTuple):
    """One analysis of a cohort: its ``data`` records, one per analysed
    comparison, and the ``verdict`` they gave."""

    stage: str
    n_enrolled: int
    patient_counter: int
    halted: bool
    data: tuple[ComparisonData, ...]
    verdict: str


class CohortState:
    """One cohort: the engine's working state while the trial runs, and the
    trial's record of it once ``simulate_trial`` returns.

    ``drawn`` holds the code 4 * arm + outcome pair of every patient the cohort
    can enrol, in enrolment order (see ``draw_patients``); its first ``n`` are
    enrolled.  Their enrolment indices are kept as recorded chunks (see
    ``record``), from which ``patients`` derives them when the log is read.
    ``tally`` counts every code among them, and all per-arm counts follow
    from it (``arm_counts``); it is counted when read and kept until ``n``
    changes.  ``truth`` holds the arms' true rates by ``ARM_ORDER`` position.
    ``n_at_open[i]`` is the enrolled size of cohort i, one of those
    ``opened`` before it, at its entry."""

    __slots__ = ("id", "open_index", "close_index", "arms", "truth", "truth_class",
                 "status", "analyses", "block", "drawn", "n", "n_at_open", "_tally",
                 "_tally_n", "_chunks")

    def __init__(self, cid: int, open_index: int, arms: tuple[str, ...],
                 truth: CohortTruth, truth_class: str, block: int, drawn: np.ndarray,
                 opened):
        self.id = cid
        self.open_index = open_index
        self.close_index: int | None = None
        self.arms = arms
        self.truth = truth
        self.truth_class = truth_class
        self.status = ENROLLING
        self.analyses: list[AnalysisRecord] = []
        self.block = block
        self.drawn = drawn
        self.n = 0
        self.n_at_open = tuple(c.n for c in opened)
        self._tally = (0,) * 16
        self._tally_n = 0  # the n at which _tally was counted
        self._chunks = [(0, 0, 1, 0)]  # (start, stride, rounds, width)

    def record(self, count: int, start: int, stride: int = 0, rounds: int = 1) -> None:
        """Enrol the next ``count`` drawn patients: ``rounds`` runs of
        ``count // rounds`` consecutive enrolment indices, the r-th run from
        ``start + r * stride`` on.  The indices themselves are derived only
        when ``patients`` is read."""
        n = self.n + count
        if n > self.drawn.size:
            raise RuntimeError(f"cohort {self.id} would enrol {n} patients, but its opening "
                               f"drew {self.drawn.size}")
        self._chunks.append((start, stride, rounds, count // rounds))
        self.n = n

    @property
    def tally(self) -> tuple[int, ...]:
        """The count of every code among the enrolled patients."""
        if self._tally_n != self.n:
            self._tally = tuple(np.bincount(self.drawn[:self.n], minlength=16).tolist())
            self._tally_n = self.n
        return self._tally

    @property
    def patients(self) -> Patients:
        """The patient log, joined from the recorded chunks on each read."""
        idx = [(stride * np.arange(rounds)[:, None] + np.arange(start, start + width)).ravel()
               for start, stride, rounds, width in self._chunks]
        code = self.drawn[:self.n]
        return Patients(np.concatenate(idx), code >> 2, code >> 1 & 1, code & 1)

    @property
    def blocks(self) -> int:
        """The randomization blocks the cohort began: a safety stop cuts its
        last block after the stopping patient, who is enrolled."""
        return -(-self.n // self.block)

    @property
    def confusion(self) -> str | None:
        """The confusion outcome of a finished cohort (``classify_decision``)."""
        return classify_decision(self.status, self.truth_class)

    def pair_counts(self, arm: str) -> tuple[int, int, int, int]:
        i = 4 * ARM_INDEX[arm]
        return self.tally[i:i + 4]


# ---------------------------------------------------------------------------
# operations


def draw_patients(template: np.ndarray, cum_probs: np.ndarray, blocks: int,
                  rng) -> np.ndarray:
    """``blocks`` randomization blocks of one cohort from one generator call,
    as the read-only codes 4 * arm + outcome pair of its patients in
    enrolment order (arm: index into ``ARM_ORDER``; pair: 2 * interim + final
    outcome).

    The call's 2 * blocks * b uniforms (b = ``template.size``) are read as
    shape (2, blocks, b).  Block orders come from the first half: each block
    holds the arms of ``template`` in uniformly random order.  Each patient's
    pair is the first of 0/0, 0/1, 1/0 whose cumulative probability in its
    arm's column of ``cum_probs`` exceeds its uniform from the second half,
    else 1/1.
    """
    u = rng.random(2 * blocks * template.size).reshape(2, blocks, template.size)
    # distinct uniforms have one sorted order; the stable sort is quicker on short rows
    arm = template[u[0].argsort(axis=1, kind="stable")].ravel()
    code = 4 * arm + (u[1].ravel() >= cum_probs.take(arm, axis=1)).sum(axis=0)
    code.setflags(write=False)
    return code


def cum_pair_probs(transform, rr: float) -> tuple[float, float, float]:
    """Cumulative probabilities of the outcome pairs 0/0, 0/1 and 1/0 (1/1
    takes the rest) under ``transform`` at true final rate ``rr``."""
    p00, p01, p10, _ = transform(rr)
    return (p00, p00 + p01, p00 + p01 + p10)


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
    p = one_sided_prop_test((own_resp, own_n - own_resp, ext_resp, ext_n - ext_resp))
    return min(1.0, 2.0 * min(p, 1.0 - p))


def _external_tally(cohorts, cohort: CohortState, mode: str) -> tuple[int, ...]:
    """The count of every code over the other cohorts' enrolled patients;
    under ``concurrent`` only those enrolled since ``cohort`` opened.  Each
    other cohort is counted once, an empty one not at all."""
    at_open = cohort.n_at_open if mode == "concurrent" else ()
    pool = (0,) * 16
    for other in cohorts:
        if other is not cohort and other.n > 0:
            count = (np.bincount(other.drawn[at_open[other.id]:other.n], minlength=16).tolist()
                     if other.id < len(at_open) else other.tally)
            pool = tuple(map(add, pool, count))
    return pool


def assemble_analysis_data(cohorts, cohort: CohortState, comparisons: tuple[int, ...],
                           mode: str, stage: str) -> tuple[ComparisonData, ...]:
    """One record per comparison in ``comparisons``: the cohort's own arms at
    the given endpoint stage, with SoC / backbone comparator cells augmented
    by external data per the sharing mode.

    cohort: own data only.  all: every patient enrolled on other cohorts'
    matching arms so far.  concurrent: only those enrolled while this cohort
    has been open.  dynamic: the full pool, downweighted by homogeneity
    (fractional counts).  The other cohorts are counted into one tally, and
    each shared comparator arm's pool and weight are read off it once, also
    for SoC, the comparator of comparisons 3 and 4.
    """
    r = 1 if stage == INTERIM else 2  # where an arm_counts entry holds the stage's responders
    own = arm_counts(cohort.tally)
    # by arm position: the comparator's share weight, external responders and total
    ext = [(None, 0.0, 0.0)] * len(ARM_ORDER)
    if mode != "cohort":
        shared = {_COMPARISON_INDEX[comp][1] for comp in comparisons} & _SHARED_INDEX
        pool = arm_counts(_external_tally(cohorts, cohort, mode)) if shared else ()
        for i in shared:
            ext_n, ext_r = float(pool[i][0]), float(pool[i][r])
            if ext_n > 0:
                ext[i] = (_dynamic_weight(own[i][r], own[i][0], ext_r, ext_n)
                          if mode == "dynamic" else 1.0, ext_r, ext_n)
    records = []
    for comp in comparisons:
        num, den = _COMPARISON_INDEX[comp]
        num_n, num_r = own[num][0], own[num][r]
        den_n, den_r = own[den][0], own[den][r]
        weight, ext_r, ext_n = ext[den]
        if weight is not None:
            den_r = den_r + weight * ext_r
            den_n = den_n + weight * ext_n
        records.append(ComparisonData(num_r, num_n - num_r, den_r, den_n - den_r, comp,
                                      weight, ext_r, ext_n))
    return tuple(records)


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


class Trial:
    """One platform trial: the engine's working state while it runs, and the
    trial's record once ``simulate_trial`` returns it, read-only from then on.
    ``total_n`` is the platform-wide patient counter."""

    def __init__(self, spec: ScenarioSpec, rng):
        self.spec = spec
        self.rng = rng
        self.plan = plan_for(spec.rules, spec.prior)
        self.total_n = 0
        self.cohorts: list[CohortState] = []
        self.successes = 0
        self.drops_soc = DROPS_SOC.get(spec.platform.trial_struc, ())
        # cohorts opening from now on get no SoC: set by no_plac or a drops_soc superiority
        self.soc_dropped = spec.platform.trial_struc == "no_plac"
        self.first_success: dict | None = None
        self.entry_closed_index: int | None = None
        self.recruitment_halt_index: int | None = None
        self.safety_stops: list[tuple[int, int]] = []  # (cohort id, patient counter)
        # patient counters of the next safety stop and the next cohort entry
        self.next_safety: float = math.inf
        self.next_entry: float = math.inf

    @property
    def soc_slot_patients(self) -> int:
        """The SoC slots of every block the cohorts began."""
        return self.spec.platform.allocation_ratio[3] * sum(c.blocks for c in self.cohorts)

    def _waiting_time(self, p: float) -> float:
        """Patients up to and including the first success of a Bernoulli(p)
        per patient; infinite for p = 0."""
        return int(self.rng.geometric(p)) if p > 0.0 else math.inf

    # --- cohort entry -----------------------------------------------------

    def open_cohort(self) -> CohortState:
        """Open a cohort.  Its truth (four uniforms), transform and patients are
        drawn in that order; the rest is looked up (``cohort_opening``)."""
        spec, p = self.spec, self.spec.platform
        truth = draw_cohort_truth(spec.efficacy, self.rng)
        transform = spec.endpoint.sample_transform(self.rng)
        arms, truth_class, template, cum_probs, blocks = cohort_opening(
            truth, transform, self.soc_dropped, p.allocation_ratio, spec.target, p.n_fin)
        cohort = CohortState(len(self.cohorts), self.total_n, arms, truth, truth_class,
                             template.size, draw_patients(template, cum_probs, blocks, self.rng),
                             self.cohorts)
        self.cohorts.append(cohort)
        return cohort

    def schedule_entry(self) -> None:
        """Draw the next cohort entry: the first entry success among the
        patients that ``cohort_offset`` lets open a cohort."""
        p = self.spec.platform
        if self.entry_closed_index is None and len(self.cohorts) < p.cohorts_max:
            first = max(self.cohorts[-1].open_index + p.cohort_offset, self.total_n + 1)
            self.next_entry = first - 1 + self._waiting_time(p.cohort_random)
        else:
            self.next_entry = math.inf

    def close_entry(self) -> None:
        if self.entry_closed_index is None:
            self.entry_closed_index = self.total_n
        self.next_entry = math.inf

    # --- enrollment --------------------------------------------------------

    def enroll(self, enrolling: list[CohortState]) -> None:
        """One step of k whole rounds: up to the next analysis or ``sr_pats``
        and before the next safety stop or cohort entry, or k = 1 when that
        event falls in the coming round.

        Each cohort takes its next k blocks.  An event can only fall in a
        step's first round, so k = 1 when one does: the round then goes
        cohort by cohort from event to event, a safety stop cutting its
        cohort's block after the stopping patient and an entry opening its
        cohort after the entry patient."""
        p = self.spec.platform
        round_n = sum(c.block for c in enrolling)
        first = self.total_n
        next_event = min(self.next_safety, self.next_entry)
        k = min(-(-(self._next_analysis(c)[0] - c.n) // c.block) for c in enrolling)
        if p.sr_pats < math.inf:  # a crossed sr_pats halts every cohort: no step follows
            k = min(k, math.ceil((p.sr_pats - first) / round_n))
        if next_event < math.inf:  # math.inf // round_n is nan
            k = min(k, max(1, (next_event - first - 1) // round_n))
        for cohort in enrolling:
            start, end = first, first + cohort.block  # start: the next unrecorded index
            while next_event <= end:  # after a safety stop at end, every event is past it
                if next_event == self.next_safety:  # the rest of the block is not enrolled
                    cohort.status = STOPPED_SAFETY
                    cohort.close_index = end = next_event
                    self.safety_stops.append((cohort.id, next_event))
                    self.next_safety = next_event + self._waiting_time(p.safety_prob)
                if next_event == self.next_entry:  # sizes noted after the entry patient
                    cohort.record(next_event - start, start)
                    start = self.total_n = next_event
                    self.open_cohort()
                    self.schedule_entry()
                next_event = min(self.next_safety, self.next_entry)
            cohort.record(k * (end - start), start, round_n, k)
            first = end
        self.total_n = first + (k - 1) * round_n

    def _next_analysis(self, cohort: CohortState) -> tuple[int, str]:
        """The size and stage of ``cohort``'s next analysis.  With n_int ==
        n_fin the stages coincide and only the final runs; a final always
        ends enrolment, so an enrolling cohort that was analysed had its
        interim."""
        p = self.spec.platform
        if p.n_int < p.n_fin and not cohort.analyses:
            return p.n_int, INTERIM
        return p.n_fin, FINAL

    # --- analyses ----------------------------------------------------------

    def run_analysis(self, cohort: CohortState, stage: str, halted: bool = False) -> None:
        data = assemble_analysis_data(self.cohorts, cohort,
                                      self.plan.comparisons(cohort.arms, stage),
                                      self.spec.platform.sharing_type, stage)
        verdict = evaluate_cohort(self.plan, data, stage).verdict
        cohort.analyses.append(AnalysisRecord(
            stage=stage, n_enrolled=cohort.n, patient_counter=self.total_n,
            halted=halted, data=data, verdict=verdict))

        # the platform flag for post-success SoC omission in new cohorts
        if self.drops_soc and not self.soc_dropped:
            self.soc_dropped = any(t.comparison in self.drops_soc
                                   and is_superior(self.plan, t, stage) for t in data)

        status = CLOSING_STATUS.get((verdict, stage))
        if status is not None:
            cohort.status = status
            cohort.close_index = self.total_n
        if verdict == GO:
            self.successes += 1
            if self.first_success is None:
                self.first_success = {
                    "cohort_id": cohort.id,
                    "patient_counter": self.total_n,
                    "soc_patients": sum(arm_counts(c.tally)[ARM_INDEX["soc"]][0] for c in self.cohorts),
                    "cohorts_opened": len(self.cohorts),
                    "stage": stage,
                }

    def halt_enrolling_cohorts(self) -> None:
        """Stop recruitment everywhere and conclude on accumulated data.

        An enrolling cohort only ever gains whole blocks, so once it has
        patients every arm holds data; it is analysed at the final stage
        when it analyses any comparison there."""
        self.close_entry()
        self.recruitment_halt_index = self.total_n
        for cohort in self.cohorts:
            if cohort.status != ENROLLING:
                continue
            if cohort.n > 0 and self.plan.comparisons(cohort.arms, FINAL):
                self.run_analysis(cohort, FINAL, halted=True)  # never CONTINUE
            else:
                cohort.status = HALTED_RECRUITMENT
                cohort.close_index = self.total_n

    def end_round(self) -> None:
        """Size-triggered analyses in cohort order, each cohort's due ones in
        turn (an interim that continues, then the final), then platform-level
        stopping."""
        p = self.spec.platform
        for cohort in self.cohorts:
            while cohort.status == ENROLLING:
                size, stage = self._next_analysis(cohort)
                if cohort.n < size:
                    break
                self.run_analysis(cohort, stage)

        if self.successes >= p.sr_drugs_pos or (p.sr_first_pos and self.successes):
            self.close_entry()
        if ((self.successes >= p.sr_drugs_pos and not p.run_out_active_cohorts)
                or self.total_n >= p.sr_pats):
            self.halt_enrolling_cohorts()  # leaves no cohort enrolling: the trial ends


def simulate_trial(spec: ScenarioSpec, rng) -> Trial:
    """Simulate one platform-trial trajectory to completion and return its
    ``Trial``, read-only from then on.

    Identical (spec, generator state) pairs produce identical results.  The
    generator is consumed in a fixed documented order (random stream
    ``STREAM_VERSION`` = 3):

    - each cohort opening: four truth uniforms in one call, then one
      transform draw, then its patients in one call of 2 * B * b uniforms
      (b the block size, B = ceil(n_fin / b)), read as shape (2, B, b): the
      block orders from the first half and the outcome uniforms from the
      second (``draw_patients``);
    - after the initial cohorts: the waiting time to the first safety stop
      (if ``safety_prob`` > 0), then the one to the first cohort entry (if
      ``cohort_random`` > 0 and a cohort can enter);
    - at a safety stop: the next safety waiting time; at a cohort entry: the
      new cohort's opening draws, then the next entry waiting time (if a
      cohort can still enter).

    Enrolment draws nothing: each cohort enrols its drawn patients in order.
    """
    trial = Trial(spec, rng)
    p = spec.platform
    for _ in range(p.initial_cohorts):
        trial.open_cohort()
    trial.next_safety = trial._waiting_time(p.safety_prob)
    trial.schedule_entry()

    while True:
        enrolling = [c for c in trial.cohorts if c.status == ENROLLING]
        if not enrolling:
            break
        trial.enroll(enrolling)
        trial.end_round()
    return trial
