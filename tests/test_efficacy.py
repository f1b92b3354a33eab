import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platformsim.config import DiscreteDist, EfficacySpec, TargetProfile
from platformsim.efficacy import (FUTILE, SUPERIOR, CohortTruth, apply_effect,
                                  classify_truth, draw_cohort_truth)


def efficacy(random_type, comb, mono_a, mono_b, soc):
    def dist(v):
        return DiscreteDist(tuple(v[0]), tuple(v[1])) if isinstance(v, tuple) \
            else DiscreteDist((v,), (1.0,))
    return EfficacySpec(random_type=random_type, comb=dist(comb),
                        mono_a=dist(mono_a), mono_b=dist(mono_b), soc=dist(soc))


class TestApplyEffect:
    def test_risk_difference_addition(self):
        assert apply_effect(0.10, 0.15, "risk_difference") == pytest.approx(0.25)

    def test_odds_ratio(self):
        # odds 1/9 -> 2/9 -> (2/9)/(11/9) = 2/11
        assert apply_effect(0.10, 2.0, "odds_ratio") == pytest.approx(2.0 / 11.0)

    @pytest.mark.parametrize("scale,identity", [("risk_difference", 0.0),
                                                ("risk_ratio", 1.0),
                                                ("odds_ratio", 1.0)])
    def test_identity_effect(self, scale, identity):
        for base in (0.0, 0.17, 0.5, 0.93):
            assert apply_effect(base, identity, scale) == pytest.approx(base)

    def test_clamping(self):
        assert apply_effect(0.9, 0.5, "risk_difference") == 1.0
        assert apply_effect(0.1, -0.5, "risk_difference") == 0.0
        assert apply_effect(0.8, 5.0, "risk_ratio") == 1.0

    def test_odds_ratio_at_certainty(self):
        assert apply_effect(1.0, 0.2, "odds_ratio") == 1.0

    @given(st.floats(0.0, 1.0), st.floats(-2.0, 2.0),
           st.sampled_from(["risk_difference", "risk_ratio", "odds_ratio"]))
    @settings(max_examples=200, deadline=None)
    def test_output_in_unit_interval(self, base, gamma, scale):
        if scale in ("risk_ratio", "odds_ratio") and gamma <= 0:
            gamma = abs(gamma) + 1e-6
        assert 0.0 <= apply_effect(base, gamma, scale) <= 1.0


class TestDrawCohortTruth:
    def test_absolute_support(self):
        spec = efficacy("absolute",
                        ((0.35, 0.40, 0.45), (0.4, 0.4, 0.2)),
                        ((0.15, 0.20, 0.25), (0.2, 0.4, 0.4)),
                        ((0.15, 0.20, 0.25), (0.3, 0.4, 0.3)),
                        ((0.10, 0.12, 0.14), (0.25, 0.5, 0.25)))
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = draw_cohort_truth(spec, rng)
            assert t.pi_comb in (0.35, 0.40, 0.45)
            assert t.pi_mono_a in (0.15, 0.20, 0.25)
            assert t.pi_mono_b in (0.15, 0.20, 0.25)
            assert t.pi_soc in (0.10, 0.12, 0.14)

    def test_degenerate_risk_difference_composition(self):
        spec = efficacy("risk_difference", 0.1, 0.1, 0.1, 0.1)
        t = draw_cohort_truth(spec, np.random.default_rng(0))
        assert (t.pi_soc, t.pi_mono_a, t.pi_mono_b, t.pi_comb) == \
            pytest.approx((0.1, 0.2, 0.2, 0.4))
        assert not t.clamped

    def test_empirical_frequencies_within_3_sigma(self):
        values, probs = (0.1, 0.2, 0.7), (0.2, 0.3, 0.5)
        spec = efficacy("absolute", (values, probs), 0.2, 0.2, 0.1)
        rng = np.random.default_rng(42)
        n = 100_000
        draws = [draw_cohort_truth(spec, rng).pi_comb for _ in range(n)]
        for v, p in zip(values, probs):
            freq = sum(d == v for d in draws) / n
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * sigma

    @pytest.mark.parametrize("random_type,identity", [("risk_difference", 0.0),
                                                      ("risk_ratio", 1.0),
                                                      ("odds_ratio", 1.0)])
    def test_identity_gammas_collapse_to_soc(self, random_type, identity):
        spec = efficacy(random_type, identity, identity, identity, 0.3)
        t = draw_cohort_truth(spec, np.random.default_rng(3))
        assert t.pi_comb == t.pi_mono_a == t.pi_mono_b == t.pi_soc == pytest.approx(0.3)

    def test_clamped_flag_on_overflow(self):
        spec = efficacy("risk_difference", 0.5, 0.5, 0.5, 0.4)
        t = draw_cohort_truth(spec, np.random.default_rng(0))
        assert t.pi_comb == 1.0 and t.clamped

    def test_odds_ratio_composition(self):
        spec = efficacy("odds_ratio", 2.0, 2.0, 2.0, 0.10)
        t = draw_cohort_truth(spec, np.random.default_rng(0))
        # odds 1/9 doubled per step
        assert t.pi_mono_a == pytest.approx(2 / 11)
        assert t.pi_comb == pytest.approx((8 / 9) / (1 + 8 / 9))


class TestClassifyTruth:
    target = TargetProfile(margin_comb=0.10, margin_mono=0.05, scale=1)

    def test_clear_superior(self):
        t = CohortTruth(0.40, 0.20, 0.20, 0.10)
        assert classify_truth(t, self.target, True) == SUPERIOR

    def test_comb_margin_fails(self):
        t = CohortTruth(0.25, 0.20, 0.20, 0.10)
        assert classify_truth(t, self.target, True) == FUTILE

    def test_exact_margin_is_futile_when_strict(self):
        # binary-exact values so the boundary really is a tie
        target = TargetProfile(margin_comb=0.25, margin_mono=0.125, scale=1)
        t = CohortTruth(0.5, 0.25, 0.25, 0.125)  # comb exactly mono + margin
        assert classify_truth(t, target, True) == FUTILE

    def test_exact_margin_with_strict_off(self):
        lenient = TargetProfile(margin_comb=0.25, margin_mono=0.125, scale=1, strict=False)
        t = CohortTruth(0.5, 0.25, 0.25, 0.125)
        assert classify_truth(t, lenient, True) == SUPERIOR

    def test_mono_margin_fails_only_with_soc(self):
        t = CohortTruth(0.40, 0.20, 0.20, 0.18)  # monos only 0.02 over SoC
        assert classify_truth(t, self.target, True) == FUTILE
        assert classify_truth(t, self.target, False) == SUPERIOR

    def test_risk_ratio_scale(self):
        target = TargetProfile(margin_comb=1.5, margin_mono=1.2, scale=2)
        t = CohortTruth(0.40, 0.20, 0.20, 0.10)
        assert classify_truth(t, target, True) == SUPERIOR
        t2 = CohortTruth(0.28, 0.20, 0.20, 0.10)  # 0.28 < 0.20 * 1.5
        assert classify_truth(t2, target, True) == FUTILE

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 1.0), st.floats(0.0, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_pi_comb(self, comb, mono_a, mono_b, soc, bump):
        t = CohortTruth(comb, mono_a, mono_b, soc)
        better = CohortTruth(min(1.0, comb + bump), mono_a, mono_b, soc)
        if classify_truth(t, self.target, True) == SUPERIOR:
            assert classify_truth(better, self.target, True) == SUPERIOR
