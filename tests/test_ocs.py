import math
import random

import pytest

from platformsim.engine import (COMPLETED_FUTILITY, COMPLETED_GO,
                                COMPLETED_UNSUCCESSFUL, STOPPED_INTERIM_EFFICACY,
                                STOPPED_INTERIM_FUTILITY, STOPPED_SAFETY,
                                ArmResult, CohortResult, TrialResult,
                                classify_decision, simulate_trial)
from platformsim.ocs import TrialAccumulator, aggregate, merge, summarize_trial
from platformsim.reporting import ocs_csv_columns
from platformsim.runner import derive_rng

from conftest import make_scenario


def fake_cohort(cid, status, truth_class, n_per_arm=10, rates=(0.4, 0.2, 0.2, 0.1)):
    arms = ("comb", "mono_a", "mono_b", "soc")
    per_arm = {}
    for arm, rate in zip(arms, rates):
        resp = int(round(rate * n_per_arm))
        per_arm[arm] = ArmResult(
            n=n_per_arm, bio_responders=resp, hist_responders=resp,
            pairs=(n_per_arm - resp, 0, 0, resp), true_rate=rate,
            enroll_idx=tuple(range(n_per_arm)), bio=(0,) * n_per_arm, hist=(0,) * n_per_arm)
    return CohortResult(
        id=cid, open_index=0, close_index=4 * n_per_arm, arms=arms,
        truth=dict(zip(arms, rates)), truth_clamped=False, truth_class=truth_class,
        status=status, blocks=n_per_arm, per_arm=per_arm, analyses=(),
        confusion=classify_decision(status, truth_class))


def fake_trial(cohort_specs, successes=None, soc_slots=0, rates=None):
    """``rates``: optional true (comb, mono_a, mono_b, soc) rates per cohort."""
    rates = rates or [(0.4, 0.2, 0.2, 0.1)] * len(cohort_specs)
    cohorts = tuple(fake_cohort(i, status, truth, rates=r)
                    for i, ((status, truth), r) in enumerate(zip(cohort_specs, rates)))
    n_success = sum(c.status in (COMPLETED_GO, STOPPED_INTERIM_EFFICACY) for c in cohorts)
    first = None
    if n_success:
        first = {"cohort_id": 0, "patient_counter": 40, "soc_patients": 10,
                 "cohorts_opened": len(cohorts), "stage": "final"}
    return TrialResult(
        scenario_id="fixture", total_n=sum(40 for _ in cohorts), cohorts=cohorts,
        successes=successes if successes is not None else n_success,
        first_success=first, entry_closed_index=None, recruitment_halt_index=None,
        safety_stops=(), soc_slot_patients=soc_slots)


class TestHandCountedFixture:
    def test_fdr_fwer_two_trials(self):
        # trial 1: one TP (superior cohort, GO); no truly futile cohorts
        # trial 2: one FP (futile cohort, GO) -> has a truly futile cohort
        t1 = fake_trial([(COMPLETED_GO, "superior")])
        t2 = fake_trial([(COMPLETED_GO, "futile")])
        ocs = aggregate([t1, t2], cohorts_max=5)
        assert ocs.FDR == pytest.approx(0.5)          # 1 FP / (1 FP + 1 TP)
        assert ocs.FWER == pytest.approx(1.0)         # 1 of 1 trial with futile cohort
        assert ocs.FWER_BA == pytest.approx(0.5)      # 1 of 2 trials
        assert ocs.Disj_Power == pytest.approx(1.0)
        assert ocs.Disj_Power_BA == pytest.approx(0.5)
        assert ocs.Avg_TP == pytest.approx(0.5)
        assert ocs.Avg_FP == pytest.approx(0.5)

    def test_all_tp_degenerate(self):
        trials = [fake_trial([(COMPLETED_GO, "superior")]) for _ in range(4)]
        ocs = aggregate(trials, cohorts_max=5)
        assert ocs.PTP == 1.0
        assert ocs.FDR == 0.0
        assert ocs.Disj_Power == 1.0
        # no futile cohorts anywhere: PTT1ER and FWER undefined, flagged
        assert "PTT1ER" in ocs.undefined and "FWER" in ocs.undefined
        assert ocs.PTT1ER == 0.0 and ocs.FWER == 0.0
        assert "FDR" not in ocs.undefined

    def test_safety_stops_excluded_from_confusion(self):
        t = fake_trial([(STOPPED_SAFETY, "superior"), (COMPLETED_GO, "superior")])
        s = summarize_trial(t, 5)
        assert (s.tp, s.fp, s.tn, s.fn) == (1, 0, 0, 0)
        assert s.safety_stops == 1

    def test_interim_stop_counters(self):
        t = fake_trial([(STOPPED_INTERIM_FUTILITY, "futile"),
                        (STOPPED_INTERIM_EFFICACY, "superior"),
                        (COMPLETED_UNSUCCESSFUL, "superior")])
        s = summarize_trial(t, 5)
        assert s.int_stops == 1 and s.int_gos == 1
        assert (s.tp, s.fp, s.tn, s.fn) == (1, 0, 1, 1)

    def test_avg_pat_is_mean_total_n(self):
        t1 = fake_trial([(COMPLETED_GO, "superior")])
        t2 = fake_trial([(COMPLETED_GO, "superior"), (COMPLETED_FUTILITY, "futile")])
        ocs = aggregate([t1, t2], cohorts_max=5)
        assert ocs.Avg_Pat == pytest.approx((t1.total_n + t2.total_n) / 2)


@pytest.fixture(scope="module")
def results():
    spec = make_scenario(rates=(0.42, 0.2, 0.2, 0.1), cohort_random=0.05,
                         safety_prob=0.002)
    return [simulate_trial(spec, derive_rng(101, 0, k)) for k in range(120)], spec


class TestAggregateIdentities:

    def test_pooled_identities(self, results):
        trials, spec = results
        ocs = aggregate(trials, cohorts_max=spec.platform.cohorts_max)
        n = len(trials)
        tp = sum(1 for t in trials for c in t.cohorts if c.confusion == "TP")
        fp = sum(1 for t in trials for c in t.cohorts if c.confusion == "FP")
        tn = sum(1 for t in trials for c in t.cohorts if c.confusion == "TN")
        fn = sum(1 for t in trials for c in t.cohorts if c.confusion == "FN")
        superior_decided = sum(
            1 for t in trials for c in t.cohorts
            if c.confusion is not None and c.truth_class == "superior")
        futile_decided = sum(
            1 for t in trials for c in t.cohorts
            if c.confusion is not None and c.truth_class == "futile")
        assert tp + fn == superior_decided
        assert fp + tn == futile_decided
        assert ocs.Avg_TP == pytest.approx(tp / n)
        if tp + fn:
            assert ocs.PTP == pytest.approx(tp / (tp + fn))
        if fp + tp:
            assert ocs.FDR == pytest.approx(fp / (fp + tp))
        if fp + tn:
            assert ocs.PTT1ER == pytest.approx(fp / (fp + tn))

    def test_conditioned_rates_dominate_unconditioned(self, results):
        trials, spec = results
        ocs = aggregate(trials, cohorts_max=spec.platform.cohorts_max)
        if "FWER" not in ocs.undefined:
            assert ocs.FWER_BA <= ocs.FWER + 1e-12
        if "Disj_Power" not in ocs.undefined:
            assert ocs.Disj_Power_BA <= ocs.Disj_Power + 1e-12

    def test_rates_within_bounds(self, results):
        trials, spec = results
        ocs = aggregate(trials, cohorts_max=spec.platform.cohorts_max)
        for name in ("FDR", "PTP", "PTT1ER", "FWER", "FWER_BA", "Disj_Power",
                     "Disj_Power_BA", "Avg_any_P", "Coh_Safety_STOP_Perc",
                     "Coh_Int_STOP_Perc", "Coh_Int_GO_Perc",
                     "Avg_Perc_Pat_Sup_Plac_Th", "Avg_Perc_Pat_Sup_Plac_Real"):
            assert 0.0 <= getattr(ocs, name) <= 1.0, name

    def test_distribution_vectors_align(self, results):
        trials, spec = results
        ocs = aggregate(trials, cohorts_max=spec.platform.cohorts_max)
        assert len(ocs.Dist_PTP) == len(trials)
        defined = [v for v in ocs.Dist_PTP if v is not None]
        if defined:
            assert ocs.Avg_PTP_Trial == pytest.approx(sum(defined) / len(defined))


class TestMergeSemantics:
    def accumulators(self, n=40):
        spec = make_scenario(cohort_random=0.05)
        parts = []
        for w in range(4):
            acc = TrialAccumulator()
            for k in range(w * n // 4, (w + 1) * n // 4):
                acc.add(k, simulate_trial(spec, derive_rng(55, 0, k)), 5)
            parts.append(acc)
        whole = TrialAccumulator()
        for k in range(n):
            whole.add(k, simulate_trial(spec, derive_rng(55, 0, k)), 5)
        return parts, whole

    def test_merge_identity_element(self):
        parts, _ = self.accumulators(8)
        merged = merge(parts[0], TrialAccumulator())
        assert merged.records == parts[0].records

    def test_merge_commutative(self):
        parts, _ = self.accumulators(8)
        ab = merge(parts[0], parts[1])
        ba = merge(parts[1], parts[0])
        assert ab.records == ba.records
        assert ab.finalize() == ba.finalize()

    def test_parallel_reduction_equals_sequential(self):
        parts, whole = self.accumulators(40)
        merged = merge(merge(parts[0], parts[1]), merge(parts[2], parts[3]))
        assert merged.finalize() == whole.finalize()

    def test_permutation_invariance(self):
        _, whole = self.accumulators(16)
        items = list(whole.records.items())
        random.Random(3).shuffle(items)
        reordered = TrialAccumulator()
        reordered.records = dict(items)
        assert reordered.finalize() == whole.finalize()

    def test_overlap_rejected(self):
        parts, _ = self.accumulators(8)
        with pytest.raises(ValueError, match="overlap"):
            merge(parts[0], parts[0])

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            TrialAccumulator().finalize()
        with pytest.raises(ValueError):
            aggregate([])


class TestInterpretedMetrics:
    def test_sup_plac_percentages(self):
        # all non-SoC arms better than SoC -> Real = 1; Th scales by opened/max
        t = fake_trial([(COMPLETED_GO, "superior")])
        ocs = aggregate([t], cohorts_max=4)
        assert ocs.Avg_Perc_Pat_Sup_Plac_Real == pytest.approx(30 / 40)
        assert ocs.Avg_Perc_Pat_Sup_Plac_Th == pytest.approx(30 / 40 * (1 / 4))

    def test_first_success_metrics_undefined_without_success(self):
        t = fake_trial([(COMPLETED_FUTILITY, "futile")])
        ocs = aggregate([t], cohorts_max=4)
        assert "Avg_Pat_Plac_First_Suc" in ocs.undefined
        assert "Avg_Cohorts_First_Suc" in ocs.undefined
        assert ocs.Avg_any_P == 0.0

    def test_true_rates_pooled_over_cohorts(self):
        # comb rates 0.4, 0.6 (trial 1) and 0.8 (trial 2): pooled over the
        # three cohorts, not averaged per trial (which would give 0.65)
        t1 = fake_trial([(COMPLETED_GO, "superior"), (COMPLETED_FUTILITY, "futile")],
                        rates=[(0.4, 0.2, 0.3, 0.1), (0.6, 0.2, 0.1, 0.1)])
        t2 = fake_trial([(COMPLETED_GO, "superior")], rates=[(0.8, 0.2, 0.2, 0.1)])
        ocs = aggregate([t1, t2], cohorts_max=5)
        assert ocs.Avg_RR_Comb == pytest.approx(0.6)
        assert ocs.SD_RR_Comb == pytest.approx(0.2)      # sqrt((0.04 + 0 + 0.04) / 2)
        assert ocs.Avg_RR_Back == pytest.approx(0.2)
        assert ocs.SD_RR_Back == pytest.approx(0.1)      # sqrt((0.01 + 0.01 + 0) / 2)
        assert ocs.Avg_RR_Mono == pytest.approx(0.2)
        assert ocs.Avg_RR_Plac == pytest.approx(0.1)
        # a rate shared by every cohort: the sum-of-squares form leaves only
        # rounding error, not a real spread
        assert ocs.SD_RR_Mono == pytest.approx(0.0, abs=1e-7)
        assert ocs.SD_RR_Plac == pytest.approx(0.0, abs=1e-7)
        assert not any(name.startswith(("Avg_RR", "SD_RR")) for name in ocs.undefined)

    def test_no_soc_arm_leaves_plac_rates_undefined(self):
        spec = make_scenario(trial_struc="no_plac", cohort_random=0.05)
        trials = [simulate_trial(spec, derive_rng(3, 0, k)) for k in range(6)]
        assert all("soc" not in c.arms for t in trials for c in t.cohorts)
        ocs = aggregate(trials, cohorts_max=spec.platform.cohorts_max)
        assert ocs.Avg_RR_Plac == 0.0 and "Avg_RR_Plac" in ocs.undefined
        assert ocs.SD_RR_Plac == 0.0 and "SD_RR_Plac" not in ocs.undefined
        assert ocs.Avg_Pat_Plac == 0.0
        assert ocs.Avg_RR_Comb == pytest.approx(0.35)
        # listed in ``undefined`` only: no flag column
        assert "Avg_RR_Plac_undefined" not in ocs.scalar_row()
        assert "Avg_RR_Plac_undefined" not in ocs_csv_columns()

    def test_soc_slot_pool(self):
        t = fake_trial([(COMPLETED_GO, "superior")], soc_slots=17)
        ocs = aggregate([t], cohorts_max=4)
        assert ocs.Avg_Pat_Plac_Pool == pytest.approx(17.0)
