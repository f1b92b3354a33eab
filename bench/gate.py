"""Correctness gate: a run's operating characteristics against a stored
reference of the same workload.

The reference holds, per scenario, each gated OC's value from a long run at
a fixed seed and its per-trial standard deviation sigma, so that the Monte
Carlo SE of an n-trial estimate is sigma / sqrt(n).  A run passes when
every gated OC lies within ``K_SIGMA`` combined SEs of the reference.  The
gate does not depend on the seed, so a declared change of the random stream
passes it when the simulated behaviour is unchanged.
"""

from __future__ import annotations

import math

GATED = ("FWER_BA", "Disj_Power_BA", "PTP", "FDR", "Avg_Pat", "Avg_Cohorts")

K_SIGMA = 5.0

#: OCs that move in steps of 1/n (or finer).  Near a bound (a rate close to
#: 0 or 1, a cohort count close to its cap) they count rare events, whose
#: tail is far heavier than the normal one at small n; SLACK_STEPS such
#: steps are added to their tolerance.
DISCRETE = frozenset({"FWER_BA", "Disj_Power_BA", "PTP", "FDR", "Avg_Cohorts"})
SLACK_STEPS = 3


def _sd(values) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    return math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


def _ratio_sigma(nums, dens) -> float:
    # delta method for sum(num) / sum(den): per-trial influence values
    total = sum(dens)
    if total <= 0:
        return 0.0
    r = sum(nums) / total
    mean_den = total / len(dens)
    return _sd([(a - r * b) / mean_den for a, b in zip(nums, dens)])


def per_trial_sigmas(records) -> dict[str, float]:
    """Per-trial SD of each gated OC from ``ocs.TrialSummary`` records."""
    return {
        "FWER_BA": _sd([1.0 if t.fp >= 1 else 0.0 for t in records]),
        "Disj_Power_BA": _sd([1.0 if t.tp >= 1 else 0.0 for t in records]),
        "PTP": _ratio_sigma([t.tp for t in records], [t.tp + t.fn for t in records]),
        "FDR": _ratio_sigma([t.fp for t in records], [t.fp + t.tp for t in records]),
        "Avg_Pat": _sd([float(t.total_n) for t in records]),
        "Avg_Cohorts": _sd([float(t.cohorts) for t in records]),
    }


def reference_entry(ocs, records) -> dict:
    """Reference record of one scenario from its OCs and per-trial records."""
    sigmas = per_trial_sigmas(records)
    return {m: {"value": getattr(ocs, m), "sigma": sigmas[m],
                "undefined": m in ocs.undefined} for m in GATED}


def tolerance(metric: str, sigma: float, n: int, n_ref: int) -> float:
    """Largest accepted |run - reference| for an n-trial run.  An OC that
    never varied over the reference trials must match it exactly."""
    if sigma == 0.0:
        return 1e-12
    tol = K_SIGMA * sigma * math.sqrt(1.0 / n + 1.0 / n_ref)
    if metric in DISCRETE:
        tol += SLACK_STEPS / n
    return tol


def check(rows: dict, reference: dict) -> list[str]:
    """Failures of a run against one workload's reference.

    ``rows`` maps scenario index (str) to an OC row with ``iterations``,
    the gated OCs and ``undefined``; an empty list means the run passes.
    """
    failures = []
    n_ref = reference["n"]
    for index, ref in reference["scenarios"].items():
        row = rows.get(index)
        if row is None:
            failures.append(f"scenario {index}: missing from the run's output")
            continue
        n = int(row["iterations"])
        for metric, r in ref.items():
            if r["undefined"] or metric in row["undefined"]:
                continue
            diff = abs(row[metric] - r["value"])
            tol = tolerance(metric, r["sigma"], n, n_ref)
            if diff > tol:
                failures.append(f"scenario {index}: {metric} = {row[metric]:.6g}, reference "
                                f"{r['value']:.6g}, |diff| {diff:.3g} > tolerance {tol:.3g}")
    extra = set(rows) - set(reference["scenarios"])
    if extra:
        failures.append(f"scenarios not in the reference: {sorted(extra)}")
    return failures
