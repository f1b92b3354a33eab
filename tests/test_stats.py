import dataclasses
import hashlib
import math
import re
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betaln, gammaln, logsumexp

from platformsim import stats
from platformsim.config import BayesSupRule, BetaPrior
from platformsim.stats import (PosteriorBeta, QuadratureError, ci, one_sided_prop_test,
                               point_estimate, prob_exceeds, prob_greater_by_margin)


def cook_prob_greater(ax: int, bx: float, ay: float, by: float) -> float:
    """P(X > Y) for X ~ Beta(ax, bx) with integer ax and Y ~ Beta(ay, by):
    the finite sum of Cook (2005), "Exact calculation of beta inequalities",
    over i < ax, with each term in log space."""
    i = np.arange(ax)
    log_terms = betaln(ay + i, bx + by) - np.log(bx + i) - betaln(1 + i, bx) - betaln(ay, by)
    return float(np.exp(log_terms).sum())


def margin_reference(ax: int, bx: int, ay: int, by: int, delta: float) -> float:
    """P(X > Y + delta) for integer shapes and 0 < |delta| < 1: with n = ax + bx - 1,
    (1 - delta)^ay / B(ay, by) sum_j sum_k A_j D_k B(ay + j + k, n + by - j - k) over
    j < ax, k < by, where A_j = C(n, j) P(Bin(n - j, delta) <= ax - 1 - j) and
    D_k = C(by - 1, k) delta^k.  Every term, binomial tail included, is summed in
    log space, so nothing underflows."""
    if delta < 0.0:
        return 1.0 - margin_reference(ay, by, ax, bx, -delta)
    a, b, c, d = ax, bx, ay, by
    n = a + b - 1
    log_fact = gammaln(np.arange(1.0, n + c + d + 1))  # log k!
    j = np.arange(a)
    m, i = (n - j)[:, None], j[None, :]  # row j: log P(Bin(m, delta) = i) for i <= m - b
    log_pmf = np.where(i <= m - b, log_fact[m] - log_fact[i] - log_fact[np.maximum(m - i, 0)]
                       + i * np.log(delta) + (m - i) * np.log1p(-delta), -np.inf)
    log_a = log_fact[n] - log_fact[j] - log_fact[n - j] + logsumexp(log_pmf, axis=1)
    k = np.arange(d)
    log_d = log_fact[d - 1] - log_fact[k] - log_fact[d - 1 - k] + k * np.log(delta)
    s = j[:, None] + k[None, :]
    terms = log_a[:, None] + log_d[None, :] + log_fact[c + s - 1] + log_fact[n + d - s - 1]
    return float(np.exp(c * np.log1p(-delta) - betaln(c, d) - log_fact[n + c + d - 1]
                        + logsumexp(terms)))


def shapes(hi):
    return st.floats(0.05, hi, exclude_min=True)


class TestProbGreaterByMargin:
    def test_symmetry_half(self):
        x = PosteriorBeta(7.0, 5.0)
        assert prob_greater_by_margin(x, x, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_beta21_vs_uniform(self):
        # P(X > Y) = int 2x * x dx = 2/3
        p = prob_greater_by_margin(PosteriorBeta(2, 1), PosteriorBeta(1, 1), 0.0)
        assert p == pytest.approx(2.0 / 3.0, abs=1e-6)

    def test_beta21_vs_uniform_with_margin(self):
        # 0.9 - (1 - 0.001)/3 = 0.567 exactly
        p = prob_greater_by_margin(PosteriorBeta(2, 1), PosteriorBeta(1, 1), 0.1)
        assert p == pytest.approx(0.567, abs=1e-6)

    def test_matches_monte_carlo_oracle(self):
        rng = np.random.default_rng(99)
        x = rng.beta(31, 21, 10_000_000)
        y = rng.beta(21, 31, 10_000_000)
        mc = float(np.mean(x > y + 0.1))
        quad = prob_greater_by_margin(PosteriorBeta(31, 21), PosteriorBeta(21, 31), 0.1)
        assert quad == pytest.approx(mc, abs=5e-4)

    def test_monotone_in_margin(self):
        x, y = PosteriorBeta(8, 4), PosteriorBeta(5, 7)
        probs = [prob_greater_by_margin(x, y, d) for d in np.linspace(-1.2, 1.2, 25)]
        assert all(a >= b - 1e-9 for a, b in zip(probs, probs[1:]))

    def test_complement_at_zero_margin(self):
        x, y = PosteriorBeta(9, 3), PosteriorBeta(4, 6)
        total = prob_greater_by_margin(x, y, 0.0) + prob_greater_by_margin(y, x, 0.0)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_extreme_margins(self):
        x, y = PosteriorBeta(2, 2), PosteriorBeta(2, 2)
        assert prob_greater_by_margin(x, y, 1.0) == 0.0
        assert prob_greater_by_margin(x, y, -1.0) == pytest.approx(1.0, abs=1e-9)

    @given(shapes(5000.0), shapes(5000.0), shapes(5000.0), shapes(5000.0),
           st.floats(-0.9, 0.9))
    @settings(max_examples=200, deadline=None)
    def test_always_a_probability(self, ax, bx, ay, by, d):
        x, y = PosteriorBeta(ax, bx), PosteriorBeta(ay, by)
        p = prob_greater_by_margin(x, y, d)
        assert 0.0 <= p <= 1.0
        total = prob_greater_by_margin(x, y, 0.0) + prob_greater_by_margin(y, x, 0.0)
        assert total == pytest.approx(1.0, abs=2e-6)

    # 1 - delta is inexact relative to a small delta, and rounds to 1 below 2^-53: the
    # cut at y = 1 - delta must come from delta itself.  With a_X = a_Y = 1 the probability
    # is int_delta^1 b_Y u^(b_Y - 1) (u - delta)^b_X du, here by mpmath at 40 digits
    @pytest.mark.parametrize("delta, want", [(1.3313743372930965e-21, 0.666583683246406),
                                             (1e-17, 0.666224399145938),
                                             (1e-16, 0.665985607179882),
                                             (1e-14, 0.665051620107714)])
    def test_margin_below_double_resolution(self, delta, want):
        p = prob_greater_by_margin(PosteriorBeta(1.0, 0.0625), PosteriorBeta(1.0, 0.125), delta)
        assert p == pytest.approx(want, abs=1e-6)

    # fractional shapes below 1 put an unbounded slope at an end of the range
    def test_identical_jeffreys_posteriors_half(self):
        x = PosteriorBeta(0.5, 50.5)
        assert prob_greater_by_margin(x, x, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_jeffreys_posteriors(self):
        p = prob_greater_by_margin(PosteriorBeta(0.5, 20.5), PosteriorBeta(0.5, 60.5), 0.0)
        assert p == pytest.approx(0.665515872, abs=1e-6)

    def test_narrow_posteriors_near_zero(self):
        p = prob_greater_by_margin(PosteriorBeta(1.5, 3000), PosteriorBeta(0.5, 1500), 0.0)
        assert p == pytest.approx(0.691881976, abs=1e-6)

    @given(st.integers(1, 300), shapes(3000.0), shapes(3000.0), shapes(3000.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_cook_exact_sum(self, ax, bx, ay, by):
        # the quadrature itself: at margin 0 the public function may take Cook's sum
        p = stats._quadrature(float(ax), bx, ay, by, 0.0)
        assert p == pytest.approx(cook_prob_greater(ax, bx, ay, by), abs=1e-6)

    def test_cook_sum_closed_form(self):
        # P(Beta(2, 1) > U(0, 1)) = 2/3
        assert cook_prob_greater(2, 1.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_unconverged_quadrature_raises(self, monkeypatch):
        args = (1.0, 20.0, 0.5, 45.5, 0.0)  # needs 8 panels
        monkeypatch.setattr(stats, "_MAX_PANELS", 4)
        with pytest.raises(QuadratureError) as info:
            stats._quadrature(*args)
        assert info.value.args == args
        monkeypatch.setattr(stats, "_MAX_PANELS", 8)
        assert stats._quadrature(*args) == pytest.approx(
            cook_prob_greater(1, 20.0, 0.5, 45.5), abs=1e-6)


class TestExactZeroMargin:
    """At margin 0, an integer shape of at most _COOK_MAX_TERMS gives P(X > Y) as
    Cook's finite sum; everything else is left to the quadrature."""

    # one shape an integer in each case, in the order a_X, b_Y, a_Y, b_X; the
    # reference is int f_Y(y) (1 - I_y(a_X, b_X)) dy by mpmath at 40 digits
    @pytest.mark.parametrize("args, want", [((7.0, 12.3, 5.4, 9.7), 0.51601374770410793),
                                            ((6.2, 11.5, 3.3, 14.0), 0.86726779433978368),
                                            ((8.6, 4.1, 9.0, 7.3), 0.76397409028941918),
                                            ((3.7, 15.0, 2.9, 10.4), 0.45347522008089893)])
    def test_each_integer_shape(self, args, want, monkeypatch):
        monkeypatch.setattr(stats, "_quadrature", _must_not_run)
        ax, bx, ay, by = args
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), 0.0)
        assert p == pytest.approx(want, abs=1e-10)

    @given(st.integers(1, stats._COOK_MAX_TERMS), st.integers(0, 3),
           shapes(3000.0), shapes(3000.0), shapes(3000.0))
    @settings(max_examples=300, deadline=None)
    def test_matches_quadrature(self, k, where, s1, s2, s3):
        shape = [s1, s2, s3]
        shape.insert(where, float(k))
        ax, bx, ay, by = shape
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), 0.0)
        assert p == pytest.approx(stats._quadrature(ax, bx, ay, by, 0.0), abs=1e-6)

    @pytest.mark.parametrize("args", [(stats._COOK_MAX_TERMS + 1.0, 2.5, 3.5, 4.5),
                                      (2.5, 3.5, 4.5, stats._COOK_MAX_TERMS + 1.0),
                                      (1e9 + 5, 1e9 + 10, 1e9 + 3, 1e9 + 12)])
    def test_too_many_terms_left_to_quadrature(self, args, monkeypatch):
        monkeypatch.setattr(stats, "_cook", _must_not_run)
        ax, bx, ay, by = args
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), 0.0)
        assert p == stats._quadrature(*args, 0.0)

    def test_large_shapes_do_not_underflow(self):
        # term 0 alone, B(3000, 6000) / B(3000, 3000), is below the smallest double
        assert stats._cook(3000.0, 3000.0, 3000.0, 3000.0) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("args", [(7.5, 12.3, 5.4, 9.7, 0.0), (0.5, 20.5, 0.5, 60.5, 0.0),
                                      (7.0, 12.0, 5.5, 9.0, 0.1), (7.0, 12.0, 5.0, 9.5, -0.1),
                                      (2.0, 2.0, 2.0, 2.0, -1.0)])
    def test_fractional_shapes_and_margins_take_quadrature(self, args, monkeypatch):
        monkeypatch.setattr(stats, "_cook", _must_not_run)
        monkeypatch.setattr(stats, "_exact_margin", _must_not_run)
        seen = []
        quadrature = stats._quadrature
        monkeypatch.setattr(stats, "_quadrature", lambda *a: seen.append(a) or quadrature(*a))
        ax, bx, ay, by, delta = args
        prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert seen == [args]


@st.composite
def margin_lanes(draw):
    """(a_X, b_X, a_Y, b_Y, delta) inside the exact margin sum's caps, delta != 0."""
    a = draw(st.integers(1, stats._MARGIN_MAX_SHAPE))
    d = draw(st.integers(1, min(stats._MARGIN_MAX_SHAPE, stats._MARGIN_MAX_TERMS // a)))
    b = draw(st.integers(1, stats._MARGIN_MAX_SHAPE))
    c = draw(st.integers(1, stats._MARGIN_MAX_SHAPE))
    delta = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # the sum runs over a_X and b_Y at a positive margin, over a_Y and b_X at a negative one
    return (a, b, c, d, delta) if draw(st.booleans()) else (c, d, a, b, -delta)


class TestExactMargin:
    """At 0 < |delta| < 1 with four integer shapes of at most _MARGIN_MAX_SHAPE and at
    most _MARGIN_MAX_TERMS products of the summed shapes, P(X > Y + delta) is an exact
    finite sum; everything else is left to the quadrature."""

    @given(margin_lanes())
    @settings(max_examples=200, deadline=None)
    def test_matches_log_space_reference_and_quadrature(self, lane):
        ax, bx, ay, by, delta = lane
        with mock.patch.object(stats, "_quadrature", _must_not_run):
            p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert p == pytest.approx(margin_reference(*lane), abs=1e-10)
        assert p == pytest.approx(stats._quadrature(*map(float, lane)), abs=1e-8)

    # int f_Y(y) S_X(y + delta) dy (plus F_Y(-delta) at a negative margin) by mpmath at
    # 30 digits
    @pytest.mark.parametrize("args, want", [((13, 37, 13, 84, 0.1), 0.63522983151872747259),
                                            ((13, 37, 13, 84, -0.1), 0.9997147362776467695),
                                            ((5, 7, 3, 9, -0.3), 0.99393561425650639264),
                                            ((40, 60, 25, 75, 0.05), 0.9369227463372226869),
                                            ((2, 30, 9, 4, 0.6), 5.1276475257512175119e-21)])
    def test_matches_mpmath(self, args, want, monkeypatch):
        monkeypatch.setattr(stats, "_quadrature", _must_not_run)
        ax, bx, ay, by, delta = args
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert p == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("args", [(7.0, 12.0, 5.0, 9.0, 0.1), (7.0, 12.0, 5.0, 9.0, -0.1),
                                      (1.0, 1.0, 1.0, 1.0, 1e-16),
                                      (400.0, 3.0, 3.0, 75.0, 0.1), (3.0, 75.0, 400.0, 3.0, -0.1)])
    def test_integer_shapes_at_nonzero_margins_take_the_exact_sum(self, args, monkeypatch):
        monkeypatch.setattr(stats, "_quadrature", _must_not_run)
        monkeypatch.setattr(stats, "_cook", _must_not_run)
        ax, bx, ay, by, delta = args
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert p == pytest.approx(margin_reference(*map(int, args[:4]), delta), abs=1e-10)

    # one shape past the shape cap, or a_X b_Y (a_Y b_X at a negative margin) just past
    # the cost cap
    @pytest.mark.parametrize("args", [(stats._MARGIN_MAX_SHAPE + 1.0, 2.0, 3.0, 4.0, 0.1),
                                      (2.0, 3.0, stats._MARGIN_MAX_SHAPE + 1.0, 4.0, -0.1),
                                      (100.0, 5.0, 5.0, 301.0, 0.1), (5.0, 301.0, 100.0, 5.0, -0.1)])
    def test_beyond_the_caps_left_to_quadrature(self, args, monkeypatch):
        monkeypatch.setattr(stats, "_exact_margin", _must_not_run)
        ax, bx, ay, by, delta = args
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert p == stats._quadrature(*args)

    # the sum's scaled coefficients underflow at these shapes (the last one inside the
    # cost cap): 0.98, 0.36 and 0.07 off
    @pytest.mark.parametrize("args", [(500, 500, 1, 500, 0.3), (684, 6, 3, 700, 0.9),
                                      (540, 540, 1, 55, 0.3)])
    def test_underflow_witnesses(self, args):
        ax, bx, ay, by, delta = args
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert p == pytest.approx(margin_reference(*args), abs=1e-9)


class TestMarginTables:
    """The exact margin sum keeps X's coefficients A per (a_X, b_X, delta) and Y's D per
    (b_Y, delta): a table hit must give the bits a recomputation gives."""

    @given(margin_lanes())
    @settings(max_examples=60, deadline=None)
    def test_warm_tables_give_the_bits_of_cold_ones(self, lane):
        def kernel(ax, bx, ay, by, delta):
            return prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)

        def clear():
            stats._margin_a.cache_clear()
            stats._margin_d.cache_clear()

        clear()
        cold = kernel(*lane)
        both_hit = 0
        for i, v in enumerate(lane):
            # a lane one step away in one shape or in the margin fills the tables first,
            # so a table keyed on too little would hand this lane that lane's coefficients
            clear()
            kernel(*lane[:i], v / 2 if i == 4 else v - 1 if v > 1 else 2, *lane[i + 1:])
            assert kernel(*lane) == cold
            both_hit += min(stats._margin_a.cache_info().hits, stats._margin_d.cache_info().hits)
        # the step in the shape the sum keeps no table for left both of this lane's keys
        assert both_hit >= 1

    @pytest.mark.parametrize("table, key", [("_margin_a", (7, 12, 0.1)), ("_margin_d", (9, 0.1))])
    def test_cached_arrays_are_read_only(self, table, key):
        _, coef = getattr(stats, table)(*key)
        with pytest.raises(ValueError):
            coef[0] = 1.0

    @pytest.mark.parametrize("table", ["_margin_a", "_margin_d"])
    def test_tables_are_bounded(self, table):
        assert getattr(stats, table).cache_info().maxsize is not None


class TestLargeShapes:
    """Shapes far above any trial's counts (a large prior), up to 2e9: narrow
    posteriors must not fall between the quadrature's nodes, and log B must
    not lose the 1e-6 to lgamma cancellation.  Larger shapes raise."""

    @pytest.mark.parametrize("s", [1e6, 1e7, 1e8, 1e9])
    @pytest.mark.parametrize("form", [lambda s: (s, s), lambda s: (s + 0.5, s / 2 + 0.25),
                                      lambda s: (s / 2, s), lambda s: (0.5, s),
                                      lambda s: (2.0, s), lambda s: (s, 3.0)])
    def test_identical_posteriors_give_one_half(self, s, form):
        x = PosteriorBeta(*form(s))
        assert prob_greater_by_margin(x, x, 0.0) == pytest.approx(0.5, abs=1e-6)

    # int f_Y(y) S_X(y + delta) dy with S_X by an inner integral, both by mpmath at
    # 35 digits over 40 SDs of each posterior
    @pytest.mark.parametrize("args, want", [
        ((1e8 + 5, 1e8 + 10, 1e8 + 3, 1e8 + 12, 0.0), 0.50007978845273914519),
        ((3e7 + 0.5, 7e7 + 0.25, 2.9e7 + 0.75, 7.1e7 + 0.5, 0.01), 0.49999316351782330976)])
    def test_matches_mpmath_reference(self, args, want):
        ax, bx, ay, by, delta = args
        p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert p == pytest.approx(want, abs=1e-6)

    def test_narrow_against_wide_posterior(self):
        # X ~ Beta(1e8, 3e8) is a near point mass at 1/4: P(X > Y) = E F_Y(X) =
        # F_Y(1/4) + f_Y'(1/4) Var(X) / 2 + O(1e-17) = 0.040932117576491854 (mpmath)
        p = prob_greater_by_margin(PosteriorBeta(1e8, 3e8), PosteriorBeta(5.5, 5.5), 0.0)
        assert p == pytest.approx(0.040932117576491854, abs=1e-6)

    def test_small_margin_between_identical_posteriors(self):
        # X - Y is symmetric about 0 with density f(0) = B(2a - 1, 2b - 1) / B(a, b)^2
        # at 0, so P(X > Y + d) = 1/2 - f(0) (d - d^3 / (6 Var(X - Y))) to about 1e-14
        # here (0.49384443122226979 by mpmath at 40 digits); it came out as 0.0
        a, b = 3e7, 7e7
        assert stats._quadrature(a, b, a, b, 1e-6) == pytest.approx(0.49384443122226979,
                                                                    abs=1e-6)

    def test_rules_under_a_large_prior(self):
        # Beta(1e8, 1e8) prior, 30/50 against 20/50 responders, margin 1e-6
        rule = BayesSupRule(rows=((1e-6, 0.5, 1.0),))
        trace = rule.evaluate((30, 20, 20, 30), BetaPrior(1e8, 1e8))
        assert trace.statistic == pytest.approx((0.49242055165408704,), abs=1e-6)
        assert not trace.superior

    @pytest.mark.parametrize("args", [(2e9 + 1, 2e9, 2e9, 2e9, 0.0), (1e10, 5.0, 5.0, 5.0, 0.0),
                                      (3.0, 4.0, 1.5, 1e12, 0.1)])
    def test_above_the_supported_range_raises(self, args):
        ax, bx, ay, by, delta = args
        with pytest.raises(QuadratureError) as info:
            prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert info.value.args == args


class TestSmallShapes:
    """Validation admits prior shapes from stats.MIN_SHAPE = 0.01 (config.BetaPrior),
    and every shape is a prior shape plus counts.  Against fractional partners Cook's
    sum cannot answer, so the quadrature must meet 1e-6 down to 0.01.  Below it the
    kernel raises: at 0.005 the quadrature would raise against 100.5 to 1e8 + 0.5,
    and against 1e9 + 0.5 return 0.50036."""

    @pytest.mark.parametrize("b", [100.5, 1000.5, 5000.5, 1e5 + 0.5, 1e6 + 0.5, 1e9 + 0.5])
    @pytest.mark.parametrize("a", [stats.MIN_SHAPE, 0.02, 0.05])
    def test_identical_posteriors_give_one_half(self, a, b, monkeypatch):
        monkeypatch.setattr(stats, "_cook", _must_not_run)
        x = PosteriorBeta(a, b)
        assert prob_greater_by_margin(x, x, 0.0) == pytest.approx(0.5, abs=1e-6)

    def test_wide_window_against_a_sharp_edge(self):
        # Y ~ Beta(0.05, 0.05) spans a z-window 447 wide, and X's large b_X gives S_X an
        # edge about 1 wide in it: 4 and 8 panels agreed there and were 2.7e-6 off.
        # References: mpmath at 30 digits, substituting y = t^(1/a) and 1 - y = t^(1/b)
        x, y = PosteriorBeta(0.05, 2515.0), PosteriorBeta(0.05, 0.05)
        assert prob_greater_by_margin(x, y, 0.0) == pytest.approx(0.16580030751985178, abs=1e-9)
        assert prob_greater_by_margin(y, x, 0.0) == pytest.approx(0.83419969248014822, abs=1e-9)

    @pytest.mark.parametrize("args", [(0.005, 1e9 + 0.5, 0.005, 1e9 + 0.5, 0.0),
                                      (0.005, 3.0, 4.0, 5.0, 0.0), (3.0, 0.005, 4.0, 5.0, 0.1),
                                      (3.0, 4.0, 0.005, 5.0, -0.1), (3.0, 4.0, 5.0, 0.005, 0.0)])
    def test_below_the_domain_raises(self, args):
        ax, bx, ay, by, delta = args
        with pytest.raises(QuadratureError) as info:
            prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        assert info.value.args == args

    def test_validation_admits_exactly_the_kernel_domain(self):
        for f in dataclasses.fields(BetaPrior):
            assert f.metadata["lo"] == stats.MIN_SHAPE
            assert f.metadata["hi"] == stats.MAX_PRIOR_SHAPE
        # the largest prior plus up to 1e9 counts stays inside the kernel's domain
        assert stats.MAX_PRIOR_SHAPE + 1e9 <= stats._MAX_SHAPE


def _must_not_run(*args):
    raise AssertionError(f"unexpected call with {args}")


class TestNonFiniteInputs:
    """A NaN shape or margin raises instead of giving an answer; validation keeps them
    out of scenario files, so only library callers can pass one."""

    @pytest.mark.parametrize("args", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                      (1.0, -math.inf)])
    def test_posterior_needs_finite_shapes(self, args):
        with pytest.raises(ValueError):
            PosteriorBeta(*args)

    def test_prob_exceeds_never_sees_a_nan_shape(self):
        with pytest.raises(ValueError):
            prob_exceeds(PosteriorBeta(math.nan, 1.0), 0.5)

    # the exact sums' lanes and the quadrature's
    @pytest.mark.parametrize("x, y", [((2.0, 3.0), (4.0, 5.0)), ((2.5, 3.5), (4.5, 5.5))])
    def test_nan_margin_raises(self, x, y):
        with pytest.raises(ValueError):
            prob_greater_by_margin(PosteriorBeta(*x), PosteriorBeta(*y), math.nan)

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_nan_shape_raises_in_the_kernel(self, delta):
        # a posterior that never passed PosteriorBeta's check
        x = SimpleNamespace(alpha=math.nan, beta=3.0)
        with pytest.raises(QuadratureError):
            prob_greater_by_margin(x, PosteriorBeta(4.0, 5.0), delta)

    @pytest.mark.parametrize("x, y", [((2.0, 3.0), (4.0, 5.0)), ((2.5, 3.5), (4.5, 5.5)),
                                      ((0.5, 20.5), (1e6, 2e6))])
    def test_infinite_margins_are_exact(self, x, y):
        x, y = PosteriorBeta(*x), PosteriorBeta(*y)
        assert prob_greater_by_margin(x, y, math.inf) == 0.0
        assert prob_greater_by_margin(x, y, -math.inf) == 1.0


#: each 2x2 function, called on a table's cells
TABLE_FUNCTIONS = {
    "z_test": one_sided_prop_test,
    "RR": lambda t: point_estimate(t, "RR"),
    "OR": lambda t: point_estimate(t, "OR"),
    "ci_AR": lambda t: ci(t, "AR", 0.9),
    "ci_RR": lambda t: ci(t, "RR", 0.9),
    "ci_OR": lambda t: ci(t, "OR", 0.9),
}


class TestBadTables:
    """A NaN, infinite or negative cell raises a ``ValueError`` that names
    the table, instead of a nan, a number or a bare math domain error."""

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("name", TABLE_FUNCTIONS)
    def test_bad_cell_raises(self, name, cell):
        for position in range(4):
            cells = [5.0, 5.0, 3.0, 4.0]
            cells[position] = cell
            with pytest.raises(ValueError, match=re.escape(f"got the table {tuple(cells)}")):
                TABLE_FUNCTIONS[name](tuple(cells))

    @pytest.mark.parametrize("name", TABLE_FUNCTIONS)
    def test_zero_cells_still_answer(self, name):
        assert all(math.isfinite(v) for v in np.atleast_1d(TABLE_FUNCTIONS[name](
            (0.0, 5.0, 3.0, 0.0))))


def pinned_lanes() -> list[tuple[float, ...]]:
    """3,000 seeded (a_X, b_X, a_Y, b_Y, delta): 750 at margin 0 with integer and
    half-integer shapes (mostly Cook's sum), 750 each of four integer shapes at positive
    and negative margins (the exact margin sum) and 750 of fractional shapes at any
    margin (the quadrature)."""
    rng = np.random.default_rng(20260219)
    half = rng.integers(1, 120, (750, 4)) + rng.choice([0.0, 0.5], (750, 4))
    whole = rng.integers(1, 150, (1500, 4)).astype(float)
    margin = rng.uniform(0.01, 0.6, 1500) * np.repeat([1.0, -1.0], 750)
    frac = rng.integers(1, 200, (750, 4)) + rng.uniform(0.05, 0.95, (750, 4))
    return ([(*s, 0.0) for s in half.tolist()]
            + [(*s, d) for s, d in zip(whole.tolist(), margin.tolist())]
            + [(*s, d) for s, d in zip(frac.tolist(), rng.uniform(-0.4, 0.4, 750).tolist())])


class TestKernelBits:
    """prob_greater_by_margin to the bit on lanes of every path: a kernel change that
    moves a bit of these values fails here.  Like tests/golden/digests.json, the pin
    holds for the numpy, SciPy and libm builds it was taken with."""

    DIGEST = "b82a9607560c352bc6ee5452e90fee9fbb1fefd25e67e69a27c77bf55e9ca14f"

    def test_values_are_pinned(self):
        lanes = pinned_lanes()
        with mock.patch.object(stats, "_cook", wraps=stats._cook) as cook, \
                mock.patch.object(stats, "_exact_margin", wraps=stats._exact_margin) as margin, \
                mock.patch.object(stats, "_quadrature", wraps=stats._quadrature) as quad:
            values = [repr(prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), d))
                      for ax, bx, ay, by, d in lanes]
        assert cook.call_count > 600 and margin.call_count == 1500 and quad.call_count > 750
        digest = hashlib.sha256("\n".join(values).encode()).hexdigest()
        assert digest == self.DIGEST


def cook_lane(ax, bx, ay, by):
    """The arguments Cook's sum takes at margin 0 and whether its value is complemented,
    or None: the fewest terms among the integer shapes of at most _COOK_MAX_TERMS, the
    first of a tie in the order a_X, b_Y, a_Y, b_X."""
    lanes = [(ax, (ax, bx, ay, by), False), (by, (by, ay, bx, ax), False),
             (ay, (ay, by, ax, bx), True), (bx, (bx, ax, by, ay), True)]
    lanes = [lane for lane in lanes if lane[0] <= stats._COOK_MAX_TERMS and lane[0].is_integer()]
    return min(lanes, key=lambda lane: lane[0])[1:] if lanes else None


# few distinct integers, so that ties are common, and the terms cap on either side
_LANE_SHAPES = st.one_of(st.sampled_from([1.0, 2.0, 3.0, 7.0, 140.0, 141.0]),
                         st.integers(1, 300).map(lambda k: k + 0.5))


class TestCookLane:
    """At margin 0 Cook's sum takes the integer shape with the fewest terms; several
    integer shapes per case, ties included."""

    @staticmethod
    def run(args):
        """P(X > Y), and the arguments of each call to Cook's sum and the quadrature."""
        ax, bx, ay, by = args
        with mock.patch.object(stats, "_cook", wraps=stats._cook) as cook, \
                mock.patch.object(stats, "_quadrature", wraps=stats._quadrature) as quad:
            p = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), 0.0)
        return p, [c.args for c in cook.call_args_list], [c.args for c in quad.call_args_list]

    # two, three and four integer shapes; ties between a_X and b_Y, b_Y and a_Y, a_Y
    # and b_X, and all four; lanes at 141 skipped
    @pytest.mark.parametrize("args, want", [
        ((3.0, 5.0, 4.0, 2.5), ((3.0, 5.0, 4.0, 2.5), False)),
        ((4.0, 4.5, 2.5, 4.0), ((4.0, 4.5, 2.5, 4.0), False)),
        ((6.0, 3.0, 3.0, 3.0), ((3.0, 3.0, 3.0, 6.0), False)),
        ((4.5, 3.0, 3.0, 7.5), ((3.0, 7.5, 4.5, 3.0), True)),
        ((4.5, 2.0, 3.0, 7.5), ((2.0, 4.5, 7.5, 3.0), True)),
        ((5.0, 5.0, 5.0, 5.0), ((5.0, 5.0, 5.0, 5.0), False)),
        ((141.0, 9.0, 2.5, 3.5), ((9.0, 141.0, 3.5, 2.5), True)),
        ((141.0, 140.0, 2.5, 141.0), ((140.0, 141.0, 141.0, 2.5), True))])
    def test_fewest_terms_first_of_a_tie(self, args, want):
        assert cook_lane(*args) == want
        p, cook_calls, quad_calls = self.run(args)
        cook_args, complement = want
        assert (cook_calls, quad_calls) == ([cook_args], [])
        cook = stats._cook(*cook_args)
        assert p == (1.0 - cook if complement else cook)

    # every integer lane past the terms cap, or a shape above 1e4
    @pytest.mark.parametrize("args", [(141.0, 7.5, 2.5, 141.0), (3.0, 20000.0, 4.0, 5.0),
                                      (2.0, 3.0, 4.0, 10000.5)])
    def test_left_to_quadrature(self, args):
        p, cook_calls, quad_calls = self.run(args)
        assert (cook_calls, quad_calls) == ([], [(*args, 0.0)])
        assert p == stats._quadrature(*args, 0.0)

    @given(st.lists(_LANE_SHAPES, min_size=4, max_size=4).filter(
        lambda s: sum(v.is_integer() for v in s) >= 2))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_lane_rule(self, args):
        want = cook_lane(*args)
        p, cook_calls, quad_calls = self.run(args)
        if want is None:
            assert (cook_calls, len(quad_calls)) == ([], 1)
        else:
            cook_args, complement = want
            assert (cook_calls, quad_calls) == ([cook_args], [])
            cook = stats._cook(*cook_args)
            assert p == (1.0 - cook if complement else cook)


class TestProbExceeds:
    def test_zero_threshold(self):
        assert prob_exceeds(PosteriorBeta(3, 4), 0.0) == 1.0

    def test_uniform(self):
        assert prob_exceeds(PosteriorBeta(1, 1), 0.1) == pytest.approx(0.9, abs=1e-12)

    def test_closed_form_alpha_one(self):
        # P(X > x) = (1 - x)^b for X ~ Beta(1, b)
        assert prob_exceeds(PosteriorBeta(1, 4), 0.3) == pytest.approx(0.7 ** 4, abs=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(0.1, 50.0), st.floats(0.1, 50.0))
    @settings(max_examples=100, deadline=None)
    def test_reflection_identity(self, x, a, b):
        # X > x exactly when 1 - X < 1 - x, and 1 - X ~ Beta(b, a)
        assert prob_exceeds(PosteriorBeta(a, b), x) + prob_exceeds(PosteriorBeta(b, a), 1.0 - x) \
            == pytest.approx(1.0, abs=1e-10)

    def test_matches_mpmath_oracle(self):
        # independent high-precision oracle (mpmath's arbitrary-precision
        # regularized incomplete beta) on a random parameter grid
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(12345)
        for _ in range(300):
            x = float(rng.uniform(0.001, 0.999))
            a = float(rng.uniform(0.1, 120.0))
            b = float(rng.uniform(0.1, 120.0))
            expected = float(mp.betainc(a, b, 0, x, regularized=True))
            assert 1.0 - prob_exceeds(PosteriorBeta(a, b), x) == pytest.approx(expected, abs=1e-12)

    def test_threshold_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="threshold"):
            prob_exceeds(PosteriorBeta(1, 1), 1.5)


class TestOneSidedPropTest:
    def test_known_value(self):
        # pooled rate 0.5, se 0.1, z = 2 -> 1 - Phi(2)
        assert one_sided_prop_test((30, 20, 20, 30)) == pytest.approx(
            0.0227501319, abs=1e-9)

    def test_equal_tables(self):
        assert one_sided_prop_test((20, 30, 20, 30)) == pytest.approx(0.5)

    def test_treatment_worse(self):
        assert one_sided_prop_test((10, 40, 20, 30)) > 0.5

    def test_degenerate_pooled_rate(self):
        assert one_sided_prop_test((0, 25, 0, 25)) == 0.5
        assert one_sided_prop_test((25, 0, 25, 0)) == 0.5

    @given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_antisymmetric_under_arm_swap(self, a, b, c, d):
        t = (a, b + 1, c, d + 1)
        swapped = (c, d + 1, a, b + 1)
        pooled = (a + c) / (a + b + c + d + 2)
        if 0.0 < pooled < 1.0:
            assert one_sided_prop_test(t) == pytest.approx(
                1.0 - one_sided_prop_test(swapped), abs=1e-12)

    def test_requires_nonempty_arms(self):
        with pytest.raises(ValueError):
            one_sided_prop_test((0, 0, 5, 5))


class TestPointEstimate:
    def test_rr_and_or(self):
        t = (30, 20, 20, 30)
        assert point_estimate(t, "RR") == pytest.approx(1.5)
        assert point_estimate(t, "OR") == pytest.approx(2.25)

    def test_identical_arms(self):
        t = (20, 30, 20, 30)
        assert point_estimate(t, "RR") == pytest.approx(1.0)
        assert point_estimate(t, "OR") == pytest.approx(1.0)

    def test_zero_cell_correction(self):
        # (10, 0 | 5, 5) -> (10.5, 0.5, 5.5, 5.5) -> OR = (10.5 * 5.5) / (0.5 * 5.5)
        assert point_estimate((10, 0, 5, 5), "OR") == pytest.approx(21.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            point_estimate((1, 1, 1, 1), "HR")


class TestCI:
    def test_ar_symmetric_for_identical_arms(self):
        lo, hi = ci((20, 30, 20, 30), "AR", 0.95)
        assert lo == pytest.approx(-hi, abs=1e-12)

    def test_rr_adjusted_log_interval_oracle(self):
        # direct formula on 0.5-adjusted cells
        from scipy.special import ndtri
        a, b, c, d = 30.5, 20.5, 20.5, 30.5
        rr = (a / (a + b)) / (c / (c + d))
        se = math.sqrt(1 / a - 1 / (a + b) + 1 / c - 1 / (c + d))
        z = ndtri(1 - 0.025)
        lo, hi = ci((30, 20, 20, 30), "RR", 0.95)
        assert lo == pytest.approx(math.exp(math.log(rr) - z * se), abs=1e-9)
        assert hi == pytest.approx(math.exp(math.log(rr) + z * se), abs=1e-9)

    def test_or_woolf_interval_oracle(self):
        from scipy.special import ndtri
        a, b, c, d = 30.5, 20.5, 20.5, 30.5
        orr = (a * d) / (b * c)
        se = math.sqrt(1 / a + 1 / b + 1 / c + 1 / d)
        z = ndtri(1 - 0.025)
        lo, hi = ci((30, 20, 20, 30), "OR", 0.95)
        assert lo == pytest.approx(math.exp(math.log(orr) - z * se), abs=1e-9)
        assert hi == pytest.approx(math.exp(math.log(orr) + z * se), abs=1e-9)

    def test_width_monotone_in_level(self):
        t = (12, 8, 9, 11)
        widths = []
        for level in (0.5, 0.8, 0.9, 0.95, 0.99):
            lo, hi = ci(t, "RR", level)
            widths.append(hi - lo)
        assert all(a < b for a, b in zip(widths, widths[1:]))

    @given(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30), st.integers(0, 30),
           st.sampled_from(["AR", "RR", "OR"]))
    @settings(max_examples=120, deadline=None)
    def test_lower_never_exceeds_upper(self, a, b, c, d, kind):
        lo, hi = ci((a, b + 1, c, d + 1), kind, 0.95)
        assert lo <= hi

    def test_zero_cells_still_finite(self):
        lo, hi = ci((10, 0, 0, 10), "OR", 0.95)
        assert math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi
