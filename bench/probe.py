"""Accuracy probe of the posterior-comparison kernel
``stats.prob_greater_by_margin`` against an independent mpmath reference.

The kernel integrates over Y's density; the reference integrates over X's,
P(X > Y + delta) = int f_X(x) * I_{x - delta}(a_Y, b_Y) dx, by tanh-sinh
quadrature at 30 digits, with breakpoints around X's mass so that narrow
posteriors are resolved.  Tanh-sinh copes with the endpoint singularities
of shape parameters below 1.  One point costs 30-300 ms.

The kernel's stated contract is an absolute error of 1e-6; a probe point
beyond it counts as out of contract.  The count is reported, never gated.
"""

from __future__ import annotations

import mpmath

CONTRACT = 1e-6

#: (a_X, b_X, a_Y, b_Y, delta).  The first two have shape parameters below
#: 1, where the kernel's integrand is singular at an endpoint.
FIXED_POINTS = (
    (0.5, 50.5, 0.5, 50.5, 0.0),
    (0.5, 20.5, 0.5, 60.5, 0.0),
    (1.0, 1.0, 1.0, 1.0, 0.0),
    (12.0, 40.0, 5.0, 45.0, 0.1),
    (30.5, 70.25, 10.75, 90.5, 0.05),
    (3.0, 7.0, 7.0, 3.0, -0.2),
)


def reference_prob(ax: float, bx: float, ay: float, by: float, delta: float,
                   dps: int = 30) -> float:
    """P(X > Y + delta) for independent X ~ Beta(ax, bx), Y ~ Beta(ay, by)."""
    with mpmath.workdps(dps):
        ax, bx, ay, by, delta = (mpmath.mpf(v) for v in (ax, bx, ay, by, delta))
        log_norm = mpmath.log(mpmath.beta(ax, bx))

        def integrand(x):
            if x <= 0 or x >= 1:
                return mpmath.mpf(0)
            dens = mpmath.exp((ax - 1) * mpmath.log(x) + (bx - 1) * mpmath.log1p(-x)
                              - log_norm)
            return dens * mpmath.betainc(ay, by, 0, x - delta, regularized=True)

        lo = max(mpmath.mpf(0), delta)       # below it Y + delta > X for sure
        hi = min(mpmath.mpf(1), 1 + delta)   # above it Y + delta < X for sure
        total = mpmath.mpf(0)
        if delta < 0:
            total += 1 - mpmath.betainc(ax, bx, 0, hi, regularized=True)
        if hi > lo:
            mean = ax / (ax + bx)
            sd = mpmath.sqrt(ax * bx / ((ax + bx) ** 2 * (ax + bx + 1)))
            points = {lo, hi}
            for c in (-8, -4, -2, -1, 0, 1, 2, 4, 8):
                p = mean + c * sd
                if lo < p < hi:
                    points.add(p)
            total += mpmath.quad(integrand, sorted(points))
        return float(total)


def probe(points) -> dict:
    """Kernel error at each point: ``max_abs_err``, ``out_of_contract`` and
    the per-point rows."""
    from platformsim.stats import PosteriorBeta, prob_greater_by_margin

    rows = []
    for ax, bx, ay, by, delta in points:
        got = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        want = reference_prob(ax, bx, ay, by, delta)
        rows.append({"args": [ax, bx, ay, by, delta], "kernel": got, "reference": want,
                     "abs_err": abs(got - want)})
    return {"max_abs_err": max(r["abs_err"] for r in rows),
            "out_of_contract": sum(r["abs_err"] > CONTRACT for r in rows),
            "rows": rows}
