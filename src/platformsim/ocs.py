"""Aggregation of many simulated trials into operating characteristics.

Every OC is one entry of ``METRICS``, in CSV column order, and is one of
four kinds of aggregate over the trials (in iteration order):

- ``MEAN``: the mean of a per-trial value;
- ``COND_MEAN``: the mean over the trials where the per-trial value is
  defined (not None); FWER and Disj_Power condition on trials with at
  least one truly futile or truly superior decided cohort, and their
  "_BA" variants are plain means.  Some keep the per-trial values as a
  ``Dist_*`` vector;
- ``RATIO``: a pooled ratio, the sum of a per-trial numerator over the sum
  of a per-trial denominator (FDR, PTP, PTT1ER sum confusion counts);
- ``POOLED_SD``: the sample SD of the cohort true rates of one arm, pooled
  over all trials.

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
commutative and independent of scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from .engine import (ARM_ORDER, STOPPED_INTERIM_EFFICACY, STOPPED_INTERIM_FUTILITY,
                     STOPPED_SAFETY, TrialResult)

#: column suffix of each arm's per-arm OCs
ARM_SUFFIX = dict(zip(ARM_ORDER, ("Comb", "Mono", "Back", "Plac")))
_ARM_INDEX = {arm: i for i, arm in enumerate(ARM_ORDER)}


class TrialSummary(NamedTuple):
    """Everything the aggregator needs from one trial.  Per-arm fields hold
    one count or sum per arm, in ``ARM_ORDER``."""

    total_n: int
    pat: list[int]
    suc_bio: list[int]
    suc_hist: list[int]
    cohorts: int
    tp: int
    fp: int
    tn: int
    fn: int
    safety_stops: int
    int_stops: int
    int_gos: int
    rr_sum: list[float]
    rr_sumsq: list[float]
    rr_count: list[int]
    sup_pat: int                      # patients on arms truly better than SoC
    soc_slots: int
    pat_plac_first_suc: int | None
    cohorts_first_suc: int | None
    cohorts_max: int


def summarize_trial(result: TrialResult, cohorts_max: int) -> TrialSummary:
    pat, suc_bio, suc_hist, rr_count = ([0] * len(ARM_ORDER) for _ in range(4))
    rr_sum, rr_sumsq = ([0.0] * len(ARM_ORDER) for _ in range(2))
    tp = fp = tn = fn = 0
    safety = int_stop = int_go = 0
    sup_pat = 0
    for c in result.cohorts:
        soc_rate = c.truth["soc"]
        for arm, rec in c.per_arm.items():
            i = _ARM_INDEX[arm]
            pat[i] += rec.n
            suc_bio[i] += rec.bio_responders
            suc_hist[i] += rec.hist_responders
            rr_sum[i] += rec.true_rate
            rr_sumsq[i] += rec.true_rate ** 2
            rr_count[i] += 1
            if arm != "soc" and rec.true_rate > soc_rate:
                sup_pat += rec.n
        if c.confusion == "TP":
            tp += 1
        elif c.confusion == "FP":
            fp += 1
        elif c.confusion == "TN":
            tn += 1
        elif c.confusion == "FN":
            fn += 1
        if c.status == STOPPED_SAFETY:
            safety += 1
        elif c.status == STOPPED_INTERIM_FUTILITY:
            int_stop += 1
        elif c.status == STOPPED_INTERIM_EFFICACY:
            int_go += 1
    first = result.first_success
    return TrialSummary(
        total_n=result.total_n, pat=pat, suc_bio=suc_bio, suc_hist=suc_hist,
        cohorts=len(result.cohorts), tp=tp, fp=fp, tn=tn, fn=fn,
        safety_stops=safety, int_stops=int_stop, int_gos=int_go,
        rr_sum=rr_sum, rr_sumsq=rr_sumsq, rr_count=rr_count,
        sup_pat=sup_pat, soc_slots=result.soc_slot_patients,
        pat_plac_first_suc=None if first is None else first["soc_patients"],
        cohorts_first_suc=None if first is None else first["cohorts_opened"],
        cohorts_max=cohorts_max,
    )


MEAN, COND_MEAN, RATIO, POOLED_SD = "mean", "cond_mean", "ratio", "pooled_sd"


@dataclass(frozen=True)
class Metric:
    """One OC column: ``kind`` aggregates the per-trial ``value``, which is
    the name of a ``TrialSummary`` field (taken at ``arm`` for a per-arm
    field) or a function whose parameters name the fields it reads."""

    name: str
    kind: str
    value: str | Callable[..., Any]
    den: tuple[str, ...] = ()         # RATIO, POOLED_SD: fields whose totals add up
    sq: str | None = None             # POOLED_SD: field of per-trial sums of squares
    arm: str | None = None
    flagged: bool = False             # gets a ``<name>_undefined`` column
    dist: str | None = None           # COND_MEAN: name of the per-trial vector


def _per_arm(name: str, kind: str, value: str,
             total: str | Callable[..., Any] | None = None, **kw) -> list[Metric]:
    """``<name>_<suffix>`` for every arm, after ``<name>`` itself when
    ``total`` gives its per-trial value."""
    own = [] if total is None else [Metric(name, kind, total)]
    return own + [Metric(f"{name}_{suffix}", kind, value, arm=arm, **kw)
                  for arm, suffix in ARM_SUFFIX.items()]


#: the OC table in CSV column order
METRICS: tuple[Metric, ...] = (
    *_per_arm("Avg_Pat", MEAN, "pat", total="total_n"),
    *_per_arm("Avg_RR", RATIO, "rr_sum", den=("rr_count",)),
    # sample SD over all cohort-level true rates
    *_per_arm("SD_RR", POOLED_SD, "rr_sum", den=("rr_count",), sq="rr_sumsq"),
    *_per_arm("Avg_Suc_Hist", MEAN, "suc_hist", total=lambda suc_hist: sum(suc_hist)),
    *_per_arm("Avg_Suc_Bio", MEAN, "suc_bio", total=lambda suc_bio: sum(suc_bio)),
    Metric("Avg_Cohorts", MEAN, "cohorts"),
    Metric("Avg_TP", MEAN, "tp"),
    Metric("Avg_FP", MEAN, "fp"),
    Metric("Avg_TN", MEAN, "tn"),
    Metric("Avg_FN", MEAN, "fn"),
    Metric("FDR", RATIO, "fp", den=("fp", "tp"), flagged=True),
    Metric("PTP", RATIO, "tp", den=("tp", "fn"), flagged=True),
    Metric("PTT1ER", RATIO, "fp", den=("fp", "tn"), flagged=True),
    # conditioned on trials with a truly futile / truly superior decided cohort
    Metric("FWER", COND_MEAN, lambda fp, tn: (1.0 if fp >= 1 else 0.0) if fp + tn else None,
           flagged=True, dist="Dist_FWER"),
    Metric("FWER_BA", MEAN, lambda fp: 1.0 if fp >= 1 else 0.0),
    Metric("Disj_Power", COND_MEAN,
           lambda tp, fn: (1.0 if tp >= 1 else 0.0) if tp + fn else None,
           flagged=True, dist="Dist_Disj_Power"),
    Metric("Disj_Power_BA", MEAN, lambda tp: 1.0 if tp >= 1 else 0.0),
    Metric("Avg_Perc_Pat_Sup_Plac_Th", MEAN,
           lambda sup_pat, total_n, cohorts, cohorts_max:
               sup_pat / total_n * (cohorts / cohorts_max) if total_n else 0.0),
    Metric("Avg_Perc_Pat_Sup_Plac_Real", MEAN,
           lambda sup_pat, total_n: sup_pat / total_n if total_n else 0.0),
    Metric("Avg_Pat_Plac_First_Suc", COND_MEAN, "pat_plac_first_suc", flagged=True),
    Metric("Avg_Pat_Plac_Pool", MEAN, "soc_slots"),
    Metric("Avg_Cohorts_First_Suc", COND_MEAN, "cohorts_first_suc", flagged=True),
    Metric("Avg_any_P", MEAN, lambda tp, fn: 1.0 if tp + fn else 0.0),
    Metric("Coh_Safety_STOP_Perc", RATIO, "safety_stops", den=("cohorts",)),
    Metric("Coh_Int_STOP_Perc", RATIO, "int_stops", den=("cohorts",)),
    Metric("Coh_Int_GO_Perc", RATIO, "int_gos", den=("cohorts",)),
    Metric("Avg_Safety_STOP_Trial", MEAN, "safety_stops"),
    Metric("Avg_Int_STOP_Trial", MEAN, "int_stops"),
    Metric("Avg_Int_GO_Trial", MEAN, "int_gos"),
    Metric("Avg_PTP_Trial", COND_MEAN,
           lambda tp, fn: tp / (tp + fn) if tp + fn > 0 else None,
           flagged=True, dist="Dist_PTP"),
    Metric("Avg_PTT1ER_Trial", COND_MEAN,
           lambda fp, tn: fp / (fp + tn) if fp + tn > 0 else None,
           flagged=True, dist="Dist_PTT1ER"),
    Metric("Avg_FDR_Trial", COND_MEAN,
           lambda fp, tp: fp / (fp + tp) if fp + tp > 0 else None,
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

    def add(self, iteration_index: int, result: TrialResult, cohorts_max: int) -> None:
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
        columns = dict(zip(TrialSummary._fields, zip(*items)))

        def column(value, arm=None):
            """Per-trial values, in iteration order, of one table entry."""
            if callable(value):
                code = value.__code__
                args = code.co_varnames[:code.co_argcount]
                return list(map(value, *(columns[f] for f in args)))
            if arm is None:
                return columns[value]
            if (value, arm) not in columns:
                columns.update(zip([(value, a) for a in ARM_ORDER], zip(*columns[value])))
            return columns[value, arm]

        values = []
        dists = []
        undefined = []
        for m in METRICS:
            vals = column(m.value, m.arm)
            if m.kind is MEAN:
                value = sum(vals) / n
            elif m.kind is COND_MEAN:
                if m.dist:
                    dists.append(tuple(vals))
                vals = [v for v in vals if v is not None]
                value = sum(vals) / len(vals) if vals else None
            else:
                cnt = sum(sum(column(f, m.arm)) for f in m.den)
                if m.kind is RATIO:
                    value = sum(vals) / cnt if cnt > 0 else None
                elif cnt > 1:           # POOLED_SD
                    mean = sum(vals) / cnt
                    s2 = sum(column(m.sq, m.arm))
                    value = math.sqrt(max(0.0, (s2 - cnt * mean * mean) / (cnt - 1)))
                else:
                    value = 0.0
            if value is None:
                undefined.append(m.name)
                value = 0.0
            values.append(value)
        return OperatingCharacteristics(
            iterations=n, values=tuple(values), dists=tuple(dists),
            undefined=tuple(sorted(undefined)))


def merge(a: TrialAccumulator, b: TrialAccumulator) -> TrialAccumulator:
    """Merge accumulators from disjoint iteration sets (associative and
    commutative; overlapping indices are an error)."""
    out = TrialAccumulator()
    out.merge_in(a)
    out.merge_in(b)
    return out


def aggregate(results: Sequence[TrialResult], cohorts_max: int | None = None) -> OperatingCharacteristics:
    """Aggregate trial results (in iteration order) into one OC record."""
    if not results:
        raise ValueError("results must be non-empty")
    if cohorts_max is None:
        cohorts_max = max(max((len(r.cohorts) for r in results), default=1), 1)
    acc = TrialAccumulator()
    for i, r in enumerate(results):
        acc.add(i, r, cohorts_max)
    return acc.finalize()
