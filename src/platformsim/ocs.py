"""Aggregation of many simulated trials into operating characteristics.

Each trial is kept as one immutable ``TrialSummary`` record, and every OC is
one entry of ``METRICS``, in CSV column order, that reads its per-trial value
from one record as ``value(summary)`` (a per-arm OC reads its arm's entry of
a per-arm field).  ``TrialAccumulator.finalize`` maps each entry over the
records in iteration order and applies one of four kinds of aggregate:

- ``MEAN``: the mean of a per-trial value;
- ``COND_MEAN``: the mean over the trials where the per-trial value is
  defined (not None); FWER and Disj_Power condition on trials with at
  least one truly futile or truly superior decided cohort, and their
  "_BA" variants are plain means.  Some keep the per-trial values as a
  ``Dist_*`` vector;
- ``RATIO``: a pooled ratio, the sum of a per-trial numerator ``value``
  over the sum of a per-trial denominator ``den`` (FDR, PTP, PTT1ER sum
  confusion counts);
- ``POOLED_SD``: the sample SD of the cohort true rates of one arm, pooled
  over all trials (summed about the first rate, so equal rates give
  exactly 0).

Whenever a conditional mean has no defined trial or a ratio's denominator
is empty, the value is reported as 0.0 and the metric is listed in
``undefined`` so downstream analysis cannot mistake it for a real zero.
The flagged metrics (FDR, PTP, PTT1ER, FWER, Disj_Power, the first-success
means and the per-trial rates) also get a ``<name>_undefined`` column; the
per-arm ``Avg_RR_*`` and the cohort stop percentages are listed in
``undefined`` only.

Only cohorts that reached an efficacy decision enter confusion-based
metrics; safety-stopped and recruitment-halted cohorts are tracked
separately.  Rates/percentages are reported as proportions in [0, 1].

Aggregation is accumulator-based: per-trial summaries are keyed by
iteration index, so merging per-worker partials is associative,
commutative and independent of scheduling.  Totals are added left to right
in iteration order (``_total``), so they round alike on every Python version.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import add, attrgetter
from typing import Any, Callable, NamedTuple, Sequence

from .engine import (ARM_INDEX, ARM_ORDER, STOPPED_INTERIM_EFFICACY,
                     STOPPED_INTERIM_FUTILITY, STOPPED_SAFETY, Trial, arm_counts)

#: column suffix of each arm's per-arm OCs
ARM_SUFFIX = dict(zip(ARM_ORDER, ("Comb", "Mono", "Back", "Plac")))


class TrialSummary(NamedTuple):
    """Everything the aggregator needs from one trial, immutable (and so
    hashable) all the way down.  Per-arm fields are tuples in ``ARM_ORDER``:
    one count per arm, or for ``rr`` the tuple of the arm's true rates, one
    per cohort in cohort order (so ``sum(rr[i])`` and ``len(rr[i])`` give
    the arm's rate total and cohort count)."""

    total_n: int
    pat: tuple[int, ...]
    suc_bio: tuple[int, ...]
    suc_hist: tuple[int, ...]
    cohorts: int
    tp: int
    fp: int
    tn: int
    fn: int
    safety_stops: int
    int_stops: int
    int_gos: int
    rr: tuple[tuple[float, ...], ...]  # the cohorts' true rates
    sup_pat: int                      # patients on arms truly better than SoC
    soc_slots: int
    pat_plac_first_suc: int | None
    cohorts_first_suc: int | None
    cohorts_max: int


def _total(xs) -> Any:
    """The sum of ``xs`` added left to right, one rounding a step: Python
    3.12's ``sum`` compensates float rounding, so its float totals differ
    in the last bits from those of 3.10 and 3.11."""
    return functools.reduce(add, xs, 0)


def summarize_trial(result: Trial, cohorts_max: int) -> TrialSummary:
    pat, suc_bio, suc_hist = ([0] * len(ARM_ORDER) for _ in range(3))
    rr = [[] for _ in ARM_ORDER]
    sup_pat = 0
    for c in result.cohorts:
        truth, counts = c.truth, arm_counts(c.tally)
        for arm in c.arms:
            i = ARM_INDEX[arm]
            n, bio, hist = counts[i]
            pat[i] += n
            suc_bio[i] += bio
            suc_hist[i] += hist
            rr[i].append(truth[i])
            if arm != "soc" and truth[i] > truth.pi_soc:
                sup_pat += n
    confusion = [c.confusion for c in result.cohorts]
    status = [c.status for c in result.cohorts]
    first = result.first_success
    return TrialSummary(
        total_n=result.total_n, pat=tuple(pat), suc_bio=tuple(suc_bio),
        suc_hist=tuple(suc_hist), cohorts=len(result.cohorts),
        tp=confusion.count("TP"), fp=confusion.count("FP"), tn=confusion.count("TN"),
        fn=confusion.count("FN"), safety_stops=status.count(STOPPED_SAFETY),
        int_stops=status.count(STOPPED_INTERIM_FUTILITY),
        int_gos=status.count(STOPPED_INTERIM_EFFICACY), rr=tuple(map(tuple, rr)),
        sup_pat=sup_pat, soc_slots=result.soc_slot_patients,
        pat_plac_first_suc=None if first is None else first["soc_patients"],
        cohorts_first_suc=None if first is None else first["cohorts_opened"],
        cohorts_max=cohorts_max,
    )


MEAN, COND_MEAN, RATIO, POOLED_SD = "mean", "cond_mean", "ratio", "pooled_sd"


@dataclass(frozen=True)
class Metric:
    """One OC column: ``kind`` aggregates the per-trial ``value(summary)``
    over the records; a ``RATIO`` divides its total by the total of
    ``den(summary)``."""

    name: str
    kind: str
    value: Callable[[TrialSummary], Any]
    den: Callable[[TrialSummary], Any] | None = None
    flagged: bool = False             # gets a ``<name>_undefined`` column
    dist: str | None = None           # COND_MEAN: name of the per-trial vector


def _per_arm(name: str, kind: str, field: str,
             total: Callable[[TrialSummary], Any] | None = None,
             of: Callable[[Any], Any] | None = None,
             den: Callable[[Any], Any] | None = None) -> list[Metric]:
    """``<name>_<suffix>`` for every arm, whose per-trial value is the arm's
    entry of ``field`` (passed through ``of``, and through ``den`` for a
    ratio's denominator), after ``<name>`` itself when ``total`` gives its
    per-trial value."""
    get = attrgetter(field)
    own = [] if total is None else [Metric(name, kind, total)]
    return own + [
        Metric(f"{name}_{suffix}", kind,
               (lambda s, i=i: get(s)[i]) if of is None else (lambda s, i=i: of(get(s)[i])),
               den=den and (lambda s, i=i: den(get(s)[i])))
        for i, suffix in enumerate(ARM_SUFFIX.values())]


#: the OC table in CSV column order
METRICS: tuple[Metric, ...] = (
    *_per_arm("Avg_Pat", MEAN, "pat", total=attrgetter("total_n")),
    *_per_arm("Avg_RR", RATIO, "rr", of=_total, den=len),
    # sample SD over all cohort-level true rates
    *_per_arm("SD_RR", POOLED_SD, "rr"),
    *_per_arm("Avg_Suc_Hist", MEAN, "suc_hist", total=lambda s: sum(s.suc_hist)),
    *_per_arm("Avg_Suc_Bio", MEAN, "suc_bio", total=lambda s: sum(s.suc_bio)),
    Metric("Avg_Cohorts", MEAN, attrgetter("cohorts")),
    Metric("Avg_TP", MEAN, attrgetter("tp")),
    Metric("Avg_FP", MEAN, attrgetter("fp")),
    Metric("Avg_TN", MEAN, attrgetter("tn")),
    Metric("Avg_FN", MEAN, attrgetter("fn")),
    Metric("FDR", RATIO, attrgetter("fp"), den=lambda s: s.fp + s.tp, flagged=True),
    Metric("PTP", RATIO, attrgetter("tp"), den=lambda s: s.tp + s.fn, flagged=True),
    Metric("PTT1ER", RATIO, attrgetter("fp"), den=lambda s: s.fp + s.tn, flagged=True),
    # conditioned on trials with a truly futile / truly superior decided cohort
    Metric("FWER", COND_MEAN,
           lambda s: (1.0 if s.fp >= 1 else 0.0) if s.fp + s.tn else None,
           flagged=True, dist="Dist_FWER"),
    Metric("FWER_BA", MEAN, lambda s: 1.0 if s.fp >= 1 else 0.0),
    Metric("Disj_Power", COND_MEAN,
           lambda s: (1.0 if s.tp >= 1 else 0.0) if s.tp + s.fn else None,
           flagged=True, dist="Dist_Disj_Power"),
    Metric("Disj_Power_BA", MEAN, lambda s: 1.0 if s.tp >= 1 else 0.0),
    Metric("Avg_Perc_Pat_Sup_Plac_Th", MEAN,
           lambda s: s.sup_pat / s.total_n * (s.cohorts / s.cohorts_max) if s.total_n else 0.0),
    Metric("Avg_Perc_Pat_Sup_Plac_Real", MEAN,
           lambda s: s.sup_pat / s.total_n if s.total_n else 0.0),
    Metric("Avg_Pat_Plac_First_Suc", COND_MEAN, attrgetter("pat_plac_first_suc"), flagged=True),
    Metric("Avg_Pat_Plac_Pool", MEAN, attrgetter("soc_slots")),
    Metric("Avg_Cohorts_First_Suc", COND_MEAN, attrgetter("cohorts_first_suc"), flagged=True),
    Metric("Avg_any_P", MEAN, lambda s: 1.0 if s.tp + s.fn else 0.0),
    Metric("Coh_Safety_STOP_Perc", RATIO, attrgetter("safety_stops"), den=attrgetter("cohorts")),
    Metric("Coh_Int_STOP_Perc", RATIO, attrgetter("int_stops"), den=attrgetter("cohorts")),
    Metric("Coh_Int_GO_Perc", RATIO, attrgetter("int_gos"), den=attrgetter("cohorts")),
    Metric("Avg_Safety_STOP_Trial", MEAN, attrgetter("safety_stops")),
    Metric("Avg_Int_STOP_Trial", MEAN, attrgetter("int_stops")),
    Metric("Avg_Int_GO_Trial", MEAN, attrgetter("int_gos")),
    Metric("Avg_PTP_Trial", COND_MEAN,
           lambda s: s.tp / (s.tp + s.fn) if s.tp + s.fn > 0 else None,
           flagged=True, dist="Dist_PTP"),
    Metric("Avg_PTT1ER_Trial", COND_MEAN,
           lambda s: s.fp / (s.fp + s.tn) if s.fp + s.tn > 0 else None,
           flagged=True, dist="Dist_PTT1ER"),
    Metric("Avg_FDR_Trial", COND_MEAN,
           lambda s: s.fp / (s.fp + s.tp) if s.fp + s.tp > 0 else None,
           flagged=True, dist="Dist_FDR"),
)
_COLUMN = {m.name: i for i, m in enumerate(METRICS)}
_DIST = {m.dist: i for i, m in enumerate(m for m in METRICS if m.dist)}


@dataclass(frozen=True)
class OperatingCharacteristics:
    """One aggregate record: ``values`` in ``SCALAR_COLUMNS`` order and the
    per-iteration ``dists`` (None where a trial-level metric is undefined)
    in ``DIST_COLUMNS`` order.  Every column and vector is also an
    attribute of its name (``ocs.FWER``, ``ocs.Dist_PTP``)."""

    iterations: int
    values: tuple[float, ...]
    dists: tuple[tuple, ...]
    undefined: tuple[str, ...] = ()

    SCALAR_COLUMNS = tuple(_COLUMN)
    FLAGGED_METRICS = tuple(m.name for m in METRICS if m.flagged)
    DIST_COLUMNS = tuple(_DIST)

    def __getattr__(self, name: str):
        if name in _COLUMN:
            return self.values[_COLUMN[name]]
        if name in _DIST:
            return self.dists[_DIST[name]]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def scalar_row(self) -> dict:
        row = {"iterations": self.iterations}
        row.update(zip(self.SCALAR_COLUMNS, self.values))
        for name in self.FLAGGED_METRICS:
            row[f"{name}_undefined"] = name in self.undefined
        return row

    def to_json_dict(self) -> dict:
        out = self.scalar_row()
        out["undefined"] = list(self.undefined)
        for name, vec in zip(self.DIST_COLUMNS, self.dists):
            out[name] = list(vec)
        return out


class TrialAccumulator:
    """Per-trial summaries keyed by iteration index; the merge of two
    accumulators built from disjoint index sets equals the accumulator built
    from their union, regardless of order."""

    def __init__(self):
        self.records: dict[int, TrialSummary] = {}

    def add(self, iteration_index: int, result: Trial, cohorts_max: int) -> None:
        if iteration_index in self.records:
            raise ValueError(f"iteration {iteration_index} already accumulated")
        self.records[iteration_index] = summarize_trial(result, cohorts_max)

    def merge_in(self, other: "TrialAccumulator") -> None:
        overlap = self.records.keys() & other.records.keys()
        if overlap:
            raise ValueError(f"overlapping iteration indices: {sorted(overlap)[:5]}")
        self.records.update(other.records)

    def finalize(self) -> OperatingCharacteristics:
        if not self.records:
            raise ValueError("no trials accumulated")
        items = [self.records[k] for k in sorted(self.records)]
        n = len(items)
        values, dists, undefined = [], [], []
        for m in METRICS:
            vals = list(map(m.value, items))
            if m.kind is MEAN:
                value = _total(vals) / n
            elif m.kind is COND_MEAN:
                if m.dist:
                    dists.append(tuple(vals))
                vals = [v for v in vals if v is not None]
                value = _total(vals) / len(vals) if vals else None
            elif m.kind is RATIO:
                cnt = sum(map(m.den, items))
                value = _total(vals) / cnt if cnt > 0 else None
            else:
                value = _sample_sd([x for rates in vals for x in rates])
            if value is None:
                undefined.append(m.name)
                value = 0.0
            values.append(value)
        return OperatingCharacteristics(
            iterations=n, values=tuple(values), dists=tuple(dists),
            undefined=tuple(sorted(undefined)))


def _sample_sd(xs: Sequence[float]) -> float:
    """Sample SD of ``xs`` (0.0 for fewer than two), summed about the first
    value: no cancellation when the spread is small, and exactly 0.0 when
    all values are equal."""
    if len(xs) < 2:
        return 0.0
    d = [x - xs[0] for x in xs]
    s = _total(d)
    return math.sqrt(max(0.0, (_total(x * x for x in d) - s * s / len(d)) / (len(d) - 1)))

