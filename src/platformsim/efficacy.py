"""True response-rate sampling per cohort and truth classification against
the target product profile."""

from __future__ import annotations

from typing import NamedTuple

from .config import EfficacySpec, TargetProfile

SUPERIOR = "superior"
FUTILE = "futile"


class CohortTruth(NamedTuple):
    """Sampled true final response rates of one cohort's arms: its first four
    fields are the rates in ``decisions.ARM_ORDER``, so ``truth[i]`` is the
    rate of the arm at position i and ``truth[:4]`` all four.

    Rates are derived for all four roles even when the cohort carries no SoC
    arm (relative effects still compose on top of the SoC draw).  ``clamped``
    records whether any composed rate had to be clipped into [0, 1].
    """

    pi_comb: float
    pi_mono_a: float
    pi_mono_b: float
    pi_soc: float
    clamped: bool = False


def apply_effect(base: float, gamma: float, scale: str) -> float:
    """Apply a relative effect to a base rate on the given scale.

    risk_difference adds, risk_ratio multiplies, odds_ratio multiplies the
    odds; the result is clamped into [0, 1].  A base rate of 1 has infinite
    odds, so any odds-ratio effect leaves it at 1.
    """
    return _clamp(_raw_effect(base, gamma, scale))


def _clamp(rate: float) -> float:
    return min(1.0, max(0.0, rate))


def draw_cohort_truth(spec: EfficacySpec, rng) -> CohortTruth:
    """Draw one cohort's true rates.

    In absolute mode the four rates are drawn independently.  In relative
    modes the SoC rate is drawn first and the mono/combination rates are
    composed left-to-right on the chosen scale:
    mono = soc (+) g_mono, comb = ((soc (+) g_a) (+) g_b) (+) g_comb.

    The four uniforms come from one generator call, in the order the draws
    are named here: comb, mono_a, mono_b, soc in absolute mode, and soc,
    mono_a, mono_b, comb in relative modes.
    """
    u0, u1, u2, u3 = rng.random(4).tolist()
    if spec.random_type == "absolute":
        return CohortTruth(spec.comb.value_at(u0), spec.mono_a.value_at(u1),
                           spec.mono_b.value_at(u2), spec.soc.value_at(u3))

    scale = spec.random_type
    pi_soc = spec.soc.value_at(u0)
    g_a = spec.mono_a.value_at(u1)
    g_b = spec.mono_b.value_at(u2)
    g_comb = spec.comb.value_at(u3)
    raw_a = _raw_effect(pi_soc, g_a, scale)
    raw_b = _raw_effect(pi_soc, g_b, scale)
    raw_comb = _raw_effect(_raw_effect(raw_a, g_b, scale), g_comb, scale)
    pi_a, pi_b, pi_comb = _clamp(raw_a), _clamp(raw_b), _clamp(raw_comb)
    clamped = (pi_a != raw_a) or (pi_b != raw_b) or (pi_comb != raw_comb)
    return CohortTruth(pi_comb, pi_a, pi_b, pi_soc, clamped=clamped)


def _raw_effect(base: float, gamma: float, scale: str) -> float:
    # additive/multiplicative composition is left unclamped so that clamping
    # is applied (and reported) exactly once; the odds scale is closed in [0, 1]
    if scale == "risk_difference":
        return base + gamma
    if scale == "risk_ratio":
        return base * gamma
    if scale == "odds_ratio":
        if base >= 1.0:
            return 1.0
        odds = base / (1.0 - base) * gamma
        return odds / (1.0 + odds)
    raise ValueError(f"unknown effect scale {scale!r}")


def exceeds_by_margin(x: float, y: float, margin: float, scale: str, strict: bool = True) -> bool:
    """True when x is better than y by at least ``margin`` on ``scale``."""
    bar = apply_effect(y, margin, scale)
    return x > bar if strict else x >= bar


def classify_truth(truth: CohortTruth, target: TargetProfile, has_soc_comparisons: bool) -> str:
    """Classify a cohort as truly 'superior' or 'futile' under the profile.

    Superior requires the combination to beat both monotherapies by
    ``margin_comb`` and, when SoC comparisons are part of the cohort, each
    monotherapy to beat SoC by ``margin_mono``; any failed condition makes
    the cohort futile.
    """
    scale = target.scale_name
    ok = (exceeds_by_margin(truth.pi_comb, truth.pi_mono_a, target.margin_comb, scale, target.strict)
          and exceeds_by_margin(truth.pi_comb, truth.pi_mono_b, target.margin_comb, scale, target.strict))
    if ok and has_soc_comparisons:
        ok = (exceeds_by_margin(truth.pi_mono_a, truth.pi_soc, target.margin_mono, scale, target.strict)
              and exceeds_by_margin(truth.pi_mono_b, truth.pi_soc, target.margin_mono, scale, target.strict))
    return SUPERIOR if ok else FUTILE
