"""Numerical statistics primitives: Beta posterior comparisons, one-sided
two-proportion tests, and point estimates / confidence intervals for 2x2
count tables.  A table is its four cells, a plain tuple (:data:`Cells`).

Everything here is pure and deterministic (never Monte Carlo), so decisions
cannot depend on thread count or scheduling.  :func:`prob_greater_by_margin`
states the posterior comparison's paths and the shapes over which it meets
its accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

__all__ = [
    "PosteriorBeta", "QuadratureError", "MIN_SHAPE", "MAX_PRIOR_SHAPE", "prob_greater_by_margin",
    "prob_exceeds", "one_sided_prop_test", "point_estimate", "ci",
]


@dataclass(frozen=True)
class PosteriorBeta:
    """Beta(alpha, beta) posterior for a response rate."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError(
                f"Beta parameters must be finite and > 0, got ({self.alpha}, {self.beta})")


#: a 2x2 table's cells: treatment responders and non-responders, then the comparator's.
#: Counts may be fractional: dynamic sharing downweights external comparator patients
Cells = tuple[float, float, float, float]


class QuadratureError(ArithmeticError):
    """``prob_greater_by_margin`` got a shape below ``MIN_SHAPE``, above 2e9 or NaN, or no
    two successive levels of panels at most ``_PANEL_WIDTH`` wide agreed by ``_MAX_PANELS``;
    ``args`` is (a_X, b_X, a_Y, b_Y, delta)."""


#: The smallest Beta shape ``prob_greater_by_margin`` answers for, and so the smallest
#: prior shape validation admits (``config.BetaPrior``)
MIN_SHAPE = 0.01
#: The largest prior shape validation admits (``config.BetaPrior``): half the largest
#: shape ``prob_greater_by_margin`` answers for, which leaves 1e9 for the counts
MAX_PRIOR_SHAPE = 1e9


# 32-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

_QUAD_TOL = 5e-8  # coarse pairs of estimates can agree to 5e-7 while 3e-6 off
_MAX_PANELS = 512
# Wider panels (in z) can agree while both miss the edge of S_X, about 1 wide, that a large
# b_X gives: for X ~ Beta(0.05, 2515) against Beta(0.05, 0.05), 4 and 8 panels of a window
# 447 wide agree to 2.4e-8 and are 2.7e-6 off.  Windows of shapes >= 1 are at most 46.1
# wide, so this bound first binds below shape 1, where it asks for up to 512 panels
_PANEL_WIDTH = 16.0
_TAIL = 1e-10  # Y mass each cut-off logit tail may hold
# Above this shape or sum of shapes (far above a trial's counts) lgamma differences lose
# digits, and the tail bounds can reach past 80 SDs of logit(Y): so narrow a posterior can
# fall between the coarse passes' nodes, which then agree on about 0
_LARGE = 1e4
_SPREAD = 80.0  # the z-window's half-width there, in SDs of logit(Y)
_MAX_SHAPE = 2e9  # identical posteriors give 0.5 to 2.4e-7 up to here, 1.2e-6 off at 1e10
# Cook's sum costs about 0.55 us a term and the quadrature 75-100 us a call at shapes
# near 150 (CPython 3.11, one core of a shared 2-vCPU host): they break even near 140
_COOK_MAX_TERMS = 140
# The exact margin sum scales its coefficients by about their largest entries; within the
# cost cap one that matters first underflows near shape 520: (520, 520, 1, 57, 0.3) is
# 1.6e-10 and (540, 540, 1, 55, 0.3) 0.07 off a log-space sum, while all of
# {1, 2, 3, 6, 10, 30, 100, 200, 400}^4 at 12 margins meets 1.5e-12.  Its time against
# the quadrature's, over 18 lanes per a_X b_Y with b_X, a_Y in 20-150 and margins 0.05
# and 0.1, is 0.15-0.42 up to a_X b_Y = 10,000, 0.23-0.75 at 30,000, 0.24-0.78 at 40,000
# and 0.40-1.28 at 62,500 when its coefficient tables hold the lane's keys; with both
# tables missed it is 0.34-1.26, 0.54-1.55, 0.83-1.70 and 1.23-2.30 (same host).  The cap
# stays where the cold sum and the quadrature break even: moving it reroutes lanes
_MARGIN_MAX_SHAPE = 400
_MARGIN_MAX_TERMS = 30_000
_LOG_FACT = special.gammaln(np.arange(1.0, 4 * _MARGIN_MAX_SHAPE))  # log k! for k < 1599
_COUNT = np.arange(_MARGIN_MAX_SHAPE + 1.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


@lru_cache(maxsize=64)
def _nodes(levels: tuple[int, ...], p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    # GL-32 on each panel count in `levels` over (0, 1), merged in ascending order and
    # mapped by s = t^p / (t^p + (1-t)^q): s and one row of weights * ds/dt per level
    t = np.concatenate([((np.arange(n)[:, None] + 0.5 * (1.0 + _GL_NODES)) / n).ravel()
                        for n in levels])
    w = np.concatenate([np.tile(_GL_WEIGHTS, n) / (2 * n) for n in levels])
    level = np.repeat(np.arange(len(levels)), [32 * n for n in levels])
    order = np.argsort(t)
    t = t[order]
    a, b = t ** p, (1.0 - t) ** q
    ds = (p / t + q / (1.0 - t)) * a * b / (a + b) ** 2
    weights = np.zeros((len(levels), t.size))
    weights[level[order], np.arange(t.size)] = w[order] * ds
    return a / (a + b), weights


def _estimates(ax, bx, ay, by, delta, zl, zr, lnorm, levels, p, q) -> np.ndarray:
    # int f_Y(y) S_X(y + delta) dy over z = logit(y) in [zl, zr], once per level
    s, weights = _nodes(levels, p, q)
    z = zl + (zr - zl) * s
    ly, lm = special.log_expit(z), special.log_expit(-z)  # log y, log(1 - y)
    x, xm = np.maximum(np.exp(ly) + delta, 0.0), np.maximum(np.exp(lm) - delta, 0.0)
    # S_X from whichever of x, 1 - x is small, so neither end loses digits;
    # SciPy's betaincc would take about 9x as long as 1 - betainc
    k = np.searchsorted(x, 0.5)
    surv = np.concatenate((1.0 - special.betainc(ax, bx, x[:k]), special.betainc(bx, ax, xm[k:])))
    return (zr - zl) * (weights @ (np.exp(ay * ly + by * lm - lnorm) * surv))


def _quadrature(ax: float, bx: float, ay: float, by: float, delta: float) -> float:
    args = (ax, bx, ay, by, delta)
    # integrate over the posterior narrower on the logit scale (variance about
    # 1/a + 1/(2a^2) per shape): P(X > Y + d) = 1 - P(Y > X - d)
    flip = 4 * (1 / ax + 1 / bx + 0.5 / ax ** 2 + 0.5 / bx ** 2) < (
        1 / ay + 1 / by + 0.5 / ay ** 2 + 0.5 / by ** 2)
    if flip:
        ax, bx, ay, by, delta = ay, by, ax, bx, -delta
    lo, hi = max(0.0, -delta), min(1.0, 1.0 - delta)
    # all mass with Y <= -delta wins outright (X > Y + delta always)
    prob = float(special.betainc(ay, by, min(1.0, -delta))) if delta < 0.0 else 0.0
    lnorm = _log_beta(ay, by)
    # logit(Y) has tails below e^(a z) / (a B) and e^(-b z) / (b B): cut at _TAIL
    zl = max(special.logit(lo), (math.log(_TAIL * ay) + lnorm) / ay)
    # logit(1 - delta) from delta itself: 1 - delta is inexact relative to a small delta
    cut = math.log1p(-delta) - math.log(delta) if 0.0 < delta < 1.0 else special.logit(hi)
    zr = min(cut, -(math.log(_TAIL * by) + lnorm) / by)
    if delta >= 0.0:  # then 1 - x <= e^(-z), and S_X(x) falls below about e^(-b z) / (b B)
        zr = min(zr, -(math.log(_TAIL * bx) + _log_beta(ax, bx)) / bx)
    if ay + by > _LARGE:  # logit(Y) is log-concave: beyond K SDs lies under e^(1 - K) of it
        mean = special.digamma(ay) - special.digamma(by)
        spread = _SPREAD * math.sqrt(special.zeta(2.0, ay) + special.zeta(2.0, by))  # trigamma
        zl, zr = max(zl, mean - spread), min(zr, mean + spread)
    if lo < hi and zl < zr:
        # at a cut end S_X has a term in x^a_X or (1 - x)^b_X; t^2 smooths a fractional power
        p = 2 if delta < 0.0 and not ax.is_integer() else 1
        q = 2 if delta > 0.0 and not bx.is_integer() else 1
        quad = (ax, bx, ay, by, delta, zl, zr, lnorm)
        prev, cur = _estimates(*quad, (2, 4), p, q)
        n = 4
        while abs(cur - prev) >= _QUAD_TOL or zr - zl > _PANEL_WIDTH * n:
            n *= 2
            if n > _MAX_PANELS:
                raise QuadratureError(*args)
            prev, (cur,) = cur, _estimates(*quad, (n,), p, q)
        prob += float(cur)
    prob = min(1.0, max(0.0, prob))
    return 1.0 - prob if flip else prob


def _log_beta(a: float, b: float) -> float:
    # lgamma's terms cancel and lose 1e-6 at a + b = 2e9, so above _LARGE Stirling's rests
    # r(x) = lgamma(x) - (x - 1/2) log x + x (a series past 100, to 1e-17) leave only 1e-7
    s = a + b
    if s <= _LARGE:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(s)
    r = [math.lgamma(x) - (x - 0.5) * math.log(x) + x if x < 100.0 else
         _HALF_LOG_2PI + (1 / 12 - (1 / 360 - 1 / (1260 * x * x)) / (x * x)) / x for x in (a, b, s)]
    return (r[0] + r[1] - r[2] - 0.5 * math.log(s)
            + (a - 0.5) * math.log(a / s) + (b - 0.5) * math.log(b / s))


def _cook(a: float, b: float, c: float, d: float) -> float:
    # P(X > Y) for X ~ Beta(a, b) with integer a and Y ~ Beta(c, d): the finite sum of
    # Cook (2005), "Exact calculation of beta inequalities", over i < a.  Term 0 is
    # B(c, b + d) / B(c, d); it underflows for large shapes, so terms stay in log space
    s = b + c + d
    log_term = math.lgamma(b + d) + math.lgamma(c + d) - math.lgamma(s) - math.lgamma(d)
    log_terms = [log_term]
    for i in range(int(a) - 1):
        log_term += math.log((c + i) / (s + i) * ((b + i) / (1 + i)))
        log_terms.append(log_term)
    top = max(log_terms)
    return min(1.0, math.exp(top) * math.fsum([math.exp(t - top) for t in log_terms]))


# Each coefficient table holds at most 512 read-only arrays of at most _MARGIN_MAX_SHAPE
# doubles: 3.6 KB an entry with its header, key and cache node, so 1.83 MB apiece at worst
# (tracemalloc).  An entry is a pure function of its key, so a hit returns the very bits a
# recomputation would
@lru_cache(maxsize=512)
def _margin_a(a: int, b: int, delta: float) -> tuple[float, np.ndarray]:
    # _exact_margin's scaled A for X ~ Beta(a, b): one betainc vector per (a, b, delta)
    n = a + b - 1
    log_choose = _LOG_FACT[n] - _LOG_FACT[:a] - _LOG_FACT[b:n + 1][::-1]
    scale = float(log_choose[min(a - 1, n // 2)])
    coef = np.exp(log_choose - scale) * special.betainc(b, _COUNT[a:0:-1], 1.0 - delta)
    coef.flags.writeable = False
    return scale, coef


@lru_cache(maxsize=512)
def _margin_d(d: int, delta: float) -> tuple[float, np.ndarray]:
    # _exact_margin's scaled D for Y ~ Beta(c, d): it does not depend on c
    log_d = _LOG_FACT[d - 1] - _LOG_FACT[:d] - _LOG_FACT[d - 1::-1] + _COUNT[:d] * math.log(delta)
    scale = float(log_d[int((d - 1) * delta / (1.0 + delta))])
    coef = np.exp(log_d - scale)
    coef.flags.writeable = False
    return scale, coef


def _exact_margin(a: int, b: int, c: int, d: int, delta: float) -> float:
    # P(X > Y + delta) for X ~ Beta(a, b), Y ~ Beta(c, d) with integer shapes and
    # 0 < delta < 1.  With n = a + b - 1 and y = (1 - delta) v,
    #   P = (1 - delta)^c / B(c, d) sum_s B(c + s, n + d - s) (A * D)_s
    # where A_j = C(n, j) P(Bin(n - j, delta) <= a - 1 - j) = C(n, j) I_(1-delta)(b, a - j),
    # j < a, are the Bernstein coefficients of S_X(delta + (1 - delta) v), and
    # D_k = C(d - 1, k) delta^k, k < d, those of (1 - (1 - delta) v)^(d - 1): no term is
    # negative, so nothing cancels.  A and D are scaled by about their largest entries
    n = a + b - 1
    scale_a, coef_a = _margin_a(a, b, delta)
    scale_d, coef_d = _margin_d(d, delta)
    # np.convolve(coef_a, coef_d) without its argument handling: the longer operand first
    conv = (np.correlate(coef_d, coef_a[::-1], "full") if d > a
            else np.correlate(coef_a, coef_d[::-1], "full"))
    # the B(c + s, n + d - s) span far more than a double's range, so each term goes
    # through log space; an (A * D)_s that underflowed is left out
    if np.count_nonzero(conv) == conv.size:
        log_terms = np.log(conv)
    else:
        log_terms = np.log(conv, out=np.full(conv.size, -np.inf), where=conv > 0.0)
    log_terms += _LOG_FACT[c - 1:c + a + d - 2] + _LOG_FACT[b:n + d][::-1]
    top = log_terms.item(log_terms.argmax())  # argmax and count_nonzero skip ufunc reduce set-up
    if top == -math.inf:
        return 0.0
    log_terms -= top
    log_prob = (math.log(np.exp(log_terms, out=log_terms).sum()) + top + scale_a + scale_d
                + c * math.log1p(-delta) - _LOG_FACT.item(n + c + d - 1)
                - _LOG_FACT.item(c - 1) - _LOG_FACT.item(d - 1) + _LOG_FACT.item(c + d - 1))
    return math.exp(min(0.0, log_prob))


def prob_greater_by_margin(x: PosteriorBeta, y: PosteriorBeta, delta: float) -> float:
    """P(X > Y + delta) for independent Beta posteriors, to 1e-6 absolute.

    Every shape is a prior shape plus counts, and validation admits prior
    shapes in [``MIN_SHAPE``, ``MAX_PRIOR_SHAPE``] = [0.01, 1e9]
    (``config.BetaPrior``), so with up to 1e9 counts shapes lie in [0.01,
    2e9].  Tests check 0.01 to 0.05 against shapes to 1e9 + 0.5 (identical
    posteriors come within 2.6e-7 of 1/2), 0.05 to 5000 at random,
    and large-shape cases to 1e9.  Shapes below 0.01 or above 2e9 raise
    QuadratureError: below 0.01 the quadrature loses the mass of X's CDF
    where exp(logit(y)) underflows (a shape of 0.005 against 1e9 + 0.5 would
    be 3.6e-4 off).  The margin may be negative
    (non-inferiority).  A Beta(1, 1) prior plus whole counts gives integer
    shapes, which two exact paths serve:

    - delta = 0 with an integer shape k <= 140 and no shape above 1e4:
      Cook's finite sum of k terms, within about 1e-10 of the quadrature.
      It runs over the integer shape with the fewest terms, the first of a
      tie in the order a_X, b_Y, a_Y, b_X.  Past 140 terms it costs more
      than the quadrature; above 1e4 its lgamma differences lose digits.
    - 0 < |delta| < 1 with four integer shapes of at most 400 and a_X b_Y of
      at most 30,000 (for delta < 0, 1 - P(Y > X + |delta|) with a_Y b_X):
      a finite sum of a_X + b_Y - 1 non-negative terms, within 2e-12 of a
      log-space reference.  Above 400 its scaled coefficients can underflow
      (0.07 off at (540, 540, 1, 55, 0.3)); past 30,000 it costs as much as
      the quadrature or more when it must compute its coefficients afresh.
      Two bounded tables of 512 entries keep those coefficients, X's per
      (a_X, b_X, delta) and Y's per (b_Y, delta), so a posterior that meets
      many partners at one margin computes its betainc vector once.

    Under ``cohort``, ``all`` and ``concurrent`` sharing with such a prior,
    only arms past these caps reach the quadrature.  It computes
    F_Y(-delta) + int f_Y(y) S_X(y + delta) dy over z = logit(y), where Y's
    density has no singular end, after swapping the roles of X and Y if X is
    the narrower posterior, and over at most 80 SDs of logit(Y) about its
    mean when Y's shapes sum past 1e4.  The end map t -> t^2 / (t^2 + 1 - t),
    or its mirror, smooths the fractional power S_X has where a margin cuts
    the range at x = 0 or 1.  Panels are at most 16 wide in z, so that below
    shape 1, where the window can span thousands, coarse levels cannot agree
    while both miss the edge a large b_X gives S_X.  Raises QuadratureError
    rather than return an unconverged value if successive Gauss-Legendre
    panel doublings do not agree to 5e-8 by 512 panels, and ValueError on a
    NaN margin.  A margin
    of inf gives exactly 0, one of -inf exactly 1.
    """
    ax, bx, ay, by, delta = (float(x.alpha), float(x.beta), float(y.alpha), float(y.beta),
                             float(delta))
    if not (MIN_SHAPE <= ax <= _MAX_SHAPE and MIN_SHAPE <= bx <= _MAX_SHAPE
            and MIN_SHAPE <= ay <= _MAX_SHAPE and MIN_SHAPE <= by <= _MAX_SHAPE
            and delta == delta):
        if delta != delta:
            raise ValueError("the margin is NaN")
        raise QuadratureError(ax, bx, ay, by, delta)
    top = max(ax, bx, ay, by)
    if delta == 0.0 and top <= _LARGE:  # Cook's term 0 is an lgamma difference: 2e-6 off at 1e9
        # Cook's sum runs over an integer shape: a_X or b_Y give P(X > Y), a_Y or b_X
        # give P(Y > X); take the fewest terms, if few enough to beat the quadrature,
        # the first of a tie in the order a_X, b_Y, a_Y, b_X
        lane, terms = -1, _COOK_MAX_TERMS + 1.0
        for i, shape in enumerate((ax, by, ay, bx)):
            if shape < terms and shape.is_integer():
                lane, terms = i, shape
        if lane >= 0:
            prob = _cook(*((ax, bx, ay, by), (by, ay, bx, ax), (ay, by, ax, bx),
                           (bx, ax, by, ay))[lane])
            return prob if lane < 2 else 1.0 - prob
    elif (0.0 < abs(delta) < 1.0 and top <= _MARGIN_MAX_SHAPE and ax.is_integer()
          and bx.is_integer() and ay.is_integer() and by.is_integer()):
        # the sum takes a positive margin: P(X > Y + delta) = 1 - P(Y > X - delta)
        a, b, c, d = (ax, bx, ay, by) if delta > 0.0 else (ay, by, ax, bx)
        if a * d <= _MARGIN_MAX_TERMS:
            prob = _exact_margin(int(a), int(b), int(c), int(d), abs(delta))
            return prob if delta > 0.0 else 1.0 - prob
    return _quadrature(ax, bx, ay, by, delta)


def prob_exceeds(x: PosteriorBeta, v: float) -> float:
    """P(X > v) = 1 - I_v(alpha, beta)."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {v}")
    return 1.0 - float(special.betainc(x.alpha, x.beta, v))


def _check_cells(cells: Cells) -> None:
    if not all(0.0 <= c < math.inf for c in cells):
        raise ValueError(f"cells must be finite and >= 0, got the table {tuple(cells)}")


def one_sided_prop_test(cells: Cells, correct: bool = False) -> float:
    """One-sided pooled two-proportion z test of H1: treatment > comparator
    on the table ``cells``.

    Returns p = 1 - Phi(z) with the pooled-variance z statistic; this is the
    one-sided equivalent of the uncorrected chi-square test.  With
    ``correct`` the difference is shrunk toward zero by the usual continuity
    term.  A pooled rate of exactly 0 or 1 carries no information about the
    contrast; by convention p = 0.5 is returned then.
    """
    _check_cells(cells)
    t_resp, t_nonresp, c_resp, c_nonresp = cells
    n_t, n_c = t_resp + t_nonresp, c_resp + c_nonresp
    if n_t < 1.0 or n_c < 1.0:
        raise ValueError("both arm totals must be >= 1")
    pooled = (t_resp + c_resp) / (n_t + n_c)
    if pooled <= 0.0 or pooled >= 1.0:
        return 0.5
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n_t + 1.0 / n_c))
    diff = t_resp / n_t - c_resp / n_c
    if correct:
        shift = 0.5 * (1.0 / n_t + 1.0 / n_c)
        diff = math.copysign(max(0.0, abs(diff) - shift), diff)
    z = diff / se
    return float(special.ndtr(-z))


def point_estimate(cells: Cells, kind: str) -> float:
    """Risk ratio ("RR") or odds ratio ("OR") of treatment vs comparator on
    the table ``cells``.

    If any cell is zero, 0.5 is added to all four cells first
    (Haldane-Anscombe) so the estimate is always finite and positive.
    """
    if kind not in ("RR", "OR"):
        raise ValueError(f"kind must be 'RR' or 'OR', got {kind!r}")
    _check_cells(cells)
    a, b, c, d = cells
    if min(a, b, c, d) == 0.0:
        a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    if kind == "RR":
        return (a / (a + b)) / (c / (c + d))
    return (a * d) / (b * c)


def ci(cells: Cells, kind: str, level: float) -> tuple[float, float]:
    """Confidence interval for the risk difference ("AR"), risk ratio ("RR")
    or odds ratio ("OR") of treatment vs comparator on the table ``cells``.

    AR uses the Wald interval on the observed rates.  RR and OR use
    log-scale intervals on 0.5-adjusted cells (small-sample correction):
    RR with se = sqrt(1/a - 1/(a+b) + 1/c - 1/(c+d)), OR (Woolf) with
    se = sqrt(1/a + 1/b + 1/c + 1/d).
    """
    if kind not in ("AR", "RR", "OR"):
        raise ValueError(f"kind must be 'AR', 'RR' or 'OR', got {kind!r}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    _check_cells(cells)
    z = float(special.ndtri(1.0 - (1.0 - level) / 2.0))
    a, b, c, d = cells
    if kind == "AR":
        n_t, n_c = a + b, c + d
        if n_t < 1.0 or n_c < 1.0:
            raise ValueError("both arm totals must be >= 1")
        p_t, p_c = a / n_t, c / n_c
        se = math.sqrt(p_t * (1.0 - p_t) / n_t + p_c * (1.0 - p_c) / n_c)
        diff = p_t - p_c
        return (diff - z * se, diff + z * se)
    a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
    if kind == "RR":
        est = (a / (a + b)) / (c / (c + d))
        se = math.sqrt(1.0 / a - 1.0 / (a + b) + 1.0 / c - 1.0 / (c + d))
    else:
        est = (a * d) / (b * c)
        se = math.sqrt(1.0 / a + 1.0 / b + 1.0 / c + 1.0 / d)
    log_est = math.log(est)
    return (math.exp(log_est - z * se), math.exp(log_est + z * se))
