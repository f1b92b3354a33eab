"""Acceptance suite: one test per criterion, every tolerance pinned.

Each test prints one ``ACCEPTANCE Cxx <name>: PASS`` line (visible with
``pytest -s`` / in captured output); a failing criterion fails its test.
Wall-clock budgets stated for 4 cores are scaled by 4/workers when fewer
cores are available.
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from platformsim.cli import main as cli_main
from platformsim.config import IdentityTransform
from platformsim.engine import STOPPED_SAFETY, simulate_trial
from platformsim.reporting import arm_record
from platformsim.runner import derive_rng, run_ocs
from platformsim.stats import PosteriorBeta, one_sided_prop_test, prob_greater_by_margin

from conftest import CONFIGS, aggregate, make_scenario, scenario_dict
from test_ocs import fake_trial
from test_engine import ALL, block_arms, fill, make_cohort, outcome_pairs


def report(tag, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {tag}: PASS{suffix}", flush=True)


def test_c01_bayes_kernel_closed_forms():
    start = time.perf_counter()
    p = prob_greater_by_margin(PosteriorBeta(2, 1), PosteriorBeta(1, 1), 0.0)
    assert p == pytest.approx(2.0 / 3.0, abs=1e-6)
    p_margin = prob_greater_by_margin(PosteriorBeta(2, 1), PosteriorBeta(1, 1), 0.1)
    assert p_margin == pytest.approx(0.567, abs=1e-3)
    sym = prob_greater_by_margin(PosteriorBeta(13, 9), PosteriorBeta(13, 9), 0.0)
    assert sym == pytest.approx(0.5, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("C01 bayes-kernel-closed-forms", f"{elapsed:.3f}s")


def test_c02_bayes_kernel_vs_monte_carlo_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(20240817)
    n = 10_000_000
    for case in range(20):
        ax, ay = rng.integers(1, 150, size=2)
        bx, by = rng.integers(1, 150, size=2)
        delta = float(rng.uniform(-0.25, 0.25))
        quad = prob_greater_by_margin(PosteriorBeta(float(ax), float(bx)),
                                      PosteriorBeta(float(ay), float(by)), delta)
        mc = float(np.mean(rng.beta(ax, bx, n) > rng.beta(ay, by, n) + delta))
        assert quad == pytest.approx(mc, abs=5e-4), \
            f"case {case}: Beta({ax},{bx}) vs Beta({ay},{by}) + {delta}"
    # shapes below 1 (priors such as Jeffreys' 0.5) with fractional counts
    rng_small = np.random.default_rng(20240818)
    for case in range(6):
        shapes = rng_small.uniform(1.0, 60.0, size=4)
        small = rng_small.choice(4, size=1 + case % 2, replace=False)
        shapes[small] = rng_small.uniform(0.05, 1.0, size=small.size)
        ax, bx, ay, by = shapes
        delta = float(rng_small.uniform(-0.25, 0.25))
        quad = prob_greater_by_margin(PosteriorBeta(ax, bx), PosteriorBeta(ay, by), delta)
        mc = float(np.mean(rng_small.beta(ax, bx, n) > rng_small.beta(ay, by, n) + delta))
        assert quad == pytest.approx(mc, abs=5e-4), \
            f"case {case}: Beta({ax},{bx}) vs Beta({ay},{by}) + {delta}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report("C02 bayes-kernel-vs-mc-oracle", f"20 + 6 cases, {elapsed:.1f}s")


def test_c03_frequentist_test_closed_form():
    p = one_sided_prop_test((30, 20, 20, 30))
    assert p == pytest.approx(0.0227501, abs=1e-7)
    swapped = one_sided_prop_test((20, 30, 30, 20))
    assert swapped == pytest.approx(1.0 - p, abs=1e-12)
    assert one_sided_prop_test((20, 30, 20, 30)) == pytest.approx(0.5)
    report("C03 frequentist-test-closed-form")


def test_c04_identity_transform_interim_equals_final():
    rng = np.random.default_rng(99)
    transform = IdentityTransform()
    for bio, hist in outcome_pairs(transform, 0.37, 100_000, rng):
        assert bio == hist
    # and end to end through the engine
    spec = make_scenario(cohort_random=0.1, cohorts_max=3)
    result = simulate_trial(spec, derive_rng(17, 0, 0))
    for c in result.cohorts:
        for arm in c.arms:
            rec = arm_record(c, c.patients, arm)
            assert rec["bio"] == rec["hist"]
            assert rec["pairs"][1] == 0 and rec["pairs"][2] == 0
    report("C04 identity-transform-exact", "100000 patients")


def test_c05_block_randomization_exactness():
    rng = np.random.default_rng(5)
    totals = {"comb": 0, "mono_a": 0, "mono_b": 0, "soc": 0}
    for arm in block_arms(10_000, rng, ratio=(2, 2, 1, 1)):
        totals[arm] += 1
    assert totals == {"comb": 20_000, "mono_a": 20_000, "mono_b": 10_000, "soc": 10_000}
    report("C05 block-randomization-exact", "10000 blocks")


def test_c06_sample_size_windows():
    spec = make_scenario(cohort_random=0.05, cohorts_max=4)
    block = sum(spec.platform.allocation_ratio)
    n_int, n_fin = spec.platform.n_int, spec.platform.n_fin
    analyses = 0
    for k in range(1000):
        result = simulate_trial(spec, derive_rng(23, 0, k))
        for c in result.cohorts:
            for a in c.analyses:
                analyses += 1
                if a.stage == "interim":
                    assert n_int <= a.n_enrolled < n_int + block
                else:
                    assert n_fin <= a.n_enrolled < n_fin + block
    report("C06 sample-size-windows", f"1000 trials, {analyses} analyses")


def _power_scenario(rates):
    # combination-only decision surface: with a SoC arm present, the
    # mono-vs-SoC margins (0.05 at conf 0.8, ~20 patients/arm) cap the
    # four-comparison rule set's power near 0.2 regardless of the
    # combination effect, so the stated bound is only meaningful for the
    # comparisons the power claim is about
    return make_scenario(rates=rates, trial_struc="no_plac", cohort_random=0.0,
                         cohorts_max=1, n_int=50, n_fin=100)


def test_c07_power_and_null_sanity():
    start = time.perf_counter()
    power_spec = _power_scenario((0.9, 0.2, 0.2, 0.1))
    ocs = run_ocs(power_spec, 1000, 2024, workers=2)
    assert ocs.PTP >= 0.95, f"PTP = {ocs.PTP}"
    elapsed_power = time.perf_counter() - start
    assert elapsed_power < 120.0

    start = time.perf_counter()
    null_spec = _power_scenario((0.2, 0.2, 0.2, 0.2))
    null = run_ocs(null_spec, 1000, 2025, workers=2)
    assert null.Avg_TP == 0.0  # every positive is a false positive by construction
    band = 3.0 * math.sqrt(max(null.FWER_BA * (1 - null.FWER_BA), 1e-9) / 1000)
    assert null.FWER_BA <= 0.15, f"FWER_BA = {null.FWER_BA}"
    elapsed_null = time.perf_counter() - start
    assert elapsed_null < 120.0
    report("C07 power-and-null-sanity",
           f"PTP={ocs.PTP:.3f}, FWER_BA={null.FWER_BA:.3f}+/-{band:.3f} (3-sigma), "
           f"{elapsed_power:.0f}s/{elapsed_null:.0f}s")


def test_c08_stopping_semantics():
    spec = make_scenario(rates=(0.9, 0.2, 0.2, 0.1), trial_struc="no_plac",
                         cohort_random=0.1, cohorts_max=6, sr_drugs_pos=1)
    with_success = 0
    for k in range(500):
        result = simulate_trial(spec, derive_rng(31, 0, k))
        assert len(result.cohorts) <= 6
        if result.successes >= 1:
            with_success += 1
            cutoff = result.first_success["patient_counter"]
            assert all(c.open_index <= cutoff for c in result.cohorts)
    assert with_success >= 400  # the scenario succeeds almost always

    safety_spec = make_scenario(safety_prob=1.0, cohort_random=0.5, cohorts_max=5)
    for k in range(100):
        result = simulate_trial(safety_spec, derive_rng(32, 0, k))
        for c in result.cohorts:
            assert c.status == STOPPED_SAFETY
            assert sum(sum(c.pair_counts(arm)) for arm in c.arms) == 1
    report("C08 stopping-semantics", f"{with_success}/500 trials had a success")


def test_c09_oc_identities():
    spec = make_scenario(rates=(0.42, 0.2, 0.2, 0.1), cohort_random=0.05,
                         safety_prob=0.002)
    results = [simulate_trial(spec, derive_rng(57, 0, k)) for k in range(200)]
    ocs = aggregate(results, cohorts_max=spec.platform.cohorts_max)
    tp = sum(1 for r in results for c in r.cohorts if c.confusion == "TP")
    fp = sum(1 for r in results for c in r.cohorts if c.confusion == "FP")
    tn = sum(1 for r in results for c in r.cohorts if c.confusion == "TN")
    fn = sum(1 for r in results for c in r.cohorts if c.confusion == "FN")
    superior_decided = sum(1 for r in results for c in r.cohorts
                           if c.confusion is not None and c.truth_class == "superior")
    futile_decided = sum(1 for r in results for c in r.cohorts
                         if c.confusion is not None and c.truth_class == "futile")
    assert tp + fn == superior_decided
    assert fp + tn == futile_decided
    if tp + fn:
        assert ocs.PTP == pytest.approx(tp / (tp + fn))
    if fp + tp:
        assert ocs.FDR == pytest.approx(fp / (fp + tp))
    if fp + tn:
        assert ocs.PTT1ER == pytest.approx(fp / (fp + tn))
    if "FWER" not in ocs.undefined:
        assert ocs.FWER_BA <= ocs.FWER + 1e-12
    if "Disj_Power" not in ocs.undefined:
        assert ocs.Disj_Power_BA <= ocs.Disj_Power + 1e-12

    # hand-counted two-trial fixture
    t1 = fake_trial([("completed_go", "superior")])
    t2 = fake_trial([("completed_go", "futile")])
    fixture = aggregate([t1, t2], cohorts_max=5)
    assert fixture.FDR == pytest.approx(0.5)
    assert fixture.FWER == pytest.approx(1.0)
    assert fixture.FWER_BA == pytest.approx(0.5)
    report("C09 oc-identities", f"TP={tp} FP={fp} TN={tn} FN={fn} over 200 trials")


def test_c10_reproducibility_across_workers(tmp_path):
    import yaml
    cfg = tmp_path / "scenario.yaml"
    cfg.write_text(yaml.safe_dump(
        scenario_dict(cohort_random=0.05, safety_prob=0.001), sort_keys=False))
    outputs = {}
    for workers in (1, 2, 8):
        out = tmp_path / f"w{workers}"
        rc = cli_main(["ocs", "--config", str(cfg), "--iterations", "24",
                       "--seed", "77", "--workers", str(workers),
                       "--dump-trajectories", "3", "--out", str(out)])
        assert rc == 0
        outputs[workers] = {
            "csv": (out / "ocs.csv").read_bytes(),
            "json": (out / "ocs.json").read_bytes(),
            "dumps": [p.read_bytes() for p in sorted((out / "trajectories").glob("*.json"))],
        }
    for workers in (2, 8):
        assert outputs[workers]["csv"] == outputs[1]["csv"]
        assert outputs[workers]["json"] == outputs[1]["json"]
        assert outputs[workers]["dumps"] == outputs[1]["dumps"]
    assert len(outputs[1]["dumps"]) == 3
    # single-trajectory command is seed-stable too
    a, b = tmp_path / "sa", tmp_path / "sb"
    cli_main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(a)])
    cli_main(["simulate", "--config", str(cfg), "--seed", "5", "--out", str(b)])
    assert (a / "trajectory.json").read_bytes() == (b / "trajectory.json").read_bytes()
    report("C10 reproducibility-across-workers", "workers 1/2/8 byte-identical")


def test_c11_grid_parity_and_budget(tmp_path):
    workers = min(4, os.cpu_count() or 1)
    budget = 600.0 * (4.0 / workers)  # stated for 4 cores
    out = tmp_path / "grid"
    start = time.perf_counter()
    rc = cli_main(["grid", "--config", str(CONFIGS / "grid_base.yaml"),
                   "--axes", str(CONFIGS / "grid_axes.yaml"),
                   "--iterations", "4000", "--seed", "11",
                   "--workers", str(workers), "--format", "csv",
                   "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert rc == 0
    with open(out / "grid_results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    combos = [(float(r["cohort_random"]), int(r["n_int"])) for r in rows]
    assert combos == [(cr, ni) for cr in (0.01, 0.02, 0.03)
                      for ni in (50, 100, 150, 200)]
    for r in rows:
        assert 0.0 <= float(r["PTP"]) <= 1.0
        assert r["iterations"] == "4000"
    assert elapsed <= budget, f"{elapsed:.0f}s > {budget:.0f}s budget"
    report("C11 grid-parity-and-budget",
           f"12x4000 iterations in {elapsed:.0f}s on {workers} workers "
           f"(budget {budget:.0f}s)")


def test_c12_sharing_modes():
    from platformsim.engine import assemble_analysis_data

    c0 = make_cohort(cid=0, open_index=0)
    c1 = make_cohort(cid=1, open_index=40)
    fill(c0, "comb", 0, [(1, 1)] * 8 + [(0, 0)] * 12)
    fill(c0, "mono_a", 20, [(1, 1)] * 2 + [(0, 0)] * 8)
    fill(c0, "mono_b", 30, [(1, 1)] * 4 + [(0, 0)] * 6)
    fill(c0, "soc", 40, [(1, 1)] * 3 + [(0, 0)] * 7)
    fill(c1, "comb", 50, [(1, 1)] * 5 + [(0, 0)] * 5)
    fill(c1, "mono_a", 60, [(1, 1)] * 1 + [(0, 0)] * 4)
    fill(c1, "mono_b", 65, [(1, 1)] * 2 + [(0, 0)] * 4)
    fill(c1, "soc", 70, [(1, 1)] * 2 + [(0, 0)] * 6)

    own = {t.comparison: t for t in assemble_analysis_data([c0, c1], c0, ALL, "cohort", "final")}
    assert own[3][:4] == (2, 8, 3, 7)
    assert own[4][:4] == (4, 6, 3, 7)

    pooled = {t.comparison: t for t in assemble_analysis_data([c0, c1], c0, ALL, "all", "final")}
    assert pooled[3][:4] == (2, 8, 5, 13)
    assert pooled[2][:4] == (8, 12, 6, 10)

    h0 = make_cohort(cid=0)
    h1 = make_cohort(cid=1)
    fill(h0, "comb", 0, [(1, 1)] * 5 + [(0, 0)] * 5)
    fill(h0, "mono_a", 0, [(1, 1)] * 2 + [(0, 0)] * 8)
    fill(h0, "soc", 0, [(1, 1)] * 20 + [(0, 0)] * 180)
    fill(h1, "soc", 200, [(1, 1)] * 20 + [(0, 0)] * 180)
    data = assemble_analysis_data([h0, h1], h0, ALL, "dynamic", "final")
    w_same = next(t.share_weight for t in data if t.comparison == 3)
    assert w_same == pytest.approx(1.0, abs=1e-9)

    g1 = make_cohort(cid=1)
    fill(g1, "soc", 200, [(1, 1)] * 180 + [(0, 0)] * 20)
    data = assemble_analysis_data([h0, g1], h0, ALL, "dynamic", "final")
    w_diff = next(t.share_weight for t in data if t.comparison == 3)
    assert w_diff < 0.05
    report("C12 sharing-modes", f"dynamic w: identical={w_same:.3f}, split={w_diff:.2e}")
