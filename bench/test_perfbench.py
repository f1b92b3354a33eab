"""Tests of the benchmark's own parts: span self time, the correctness gate
and the accuracy probe's reference."""

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_nested_and_sibling_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),    # sibling of b
        ("a.1", 1.5, 2.0, 1),  # nested: counts against a, not against root
        ("b", 5.0, 9.0, 0),
        ("b.1", 5.0, 6.0, 3),
        ("b.2", 6.0, 8.5, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.5, 0.5, 0.5, 1.0, 2.5])
    per = tracing.summarize([spans, [("a", 0.0, 2.0, -1)]])
    assert per["a"] == pytest.approx({"calls": 2, "total_s": 5.0, "self_s": 4.5})


def test_self_time_clips_and_merges_overlapping_children():
    spans = [("p", 0.0, 4.0, -1), ("c1", 1.0, 3.0, 0), ("c2", 2.0, 5.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_recorder_wraps_and_restores_module_attributes():
    from platformsim import cli, config, decisions, engine, ocs, reporting, runner

    spec = workloads.load_specs("dynamic_share", ROOT)[0]
    plain = runner.run_ocs(spec, 20, 3).to_json_dict()
    original = engine.assemble_analysis_data
    rec = tracing.Recorder()
    rec.install({"cli": cli, "config": config, "decisions": decisions, "engine": engine,
                 "ocs": ocs, "reporting": reporting, "runner": runner})
    try:
        traced = runner.run_ocs(spec, 20, 3).to_json_dict()
    finally:
        rec.uninstall()
    assert engine.assemble_analysis_data is original
    assert traced == plain
    per = tracing.summarize([rec.spans()])
    assert per["engine.simulate_trial"]["calls"] == 20
    assert per["runner.run_ocs"]["calls"] == 1
    assert rec.counts["engine.patients"] == pytest.approx(plain["Avg_Pat"] * 20)
    assert len(rec.kernel_args) <= per["stats.prob_greater_by_margin"]["calls"]


@pytest.fixture(scope="module")
def reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["workloads"]["cohort_long"]


@pytest.fixture(scope="module")
def reseeded_rows():
    # a seed the reference was not built from
    spec = workloads.load_specs("cohort_long", ROOT)
    return workloads.run_call("cohort_long", ROOT, spec, 987654, out_dir=None)["rows"]


def test_gate_accepts_reseeded_run(reference, reseeded_rows):
    assert reseeded_rows["0"]["iterations"] == workloads.trials_per_call("cohort_long")
    assert gate.check(reseeded_rows, reference) == []


# each shift is about twice the gate's tolerance at the workload's size
@pytest.mark.parametrize("metric,shift", [("Avg_Pat", 65.0), ("Avg_Cohorts", 0.3),
                                          ("Disj_Power_BA", 0.1), ("PTP", 0.05),
                                          ("FWER_BA", 0.01)])
def test_gate_rejects_perturbed_oc(reference, reseeded_rows, metric, shift):
    rows = copy.deepcopy(reseeded_rows)
    rows["0"][metric] += shift
    failures = gate.check(rows, reference)
    assert len(failures) == 1 and metric in failures[0]


def test_probe_reference_symmetry_and_closed_form():
    assert probe.reference_prob(0.5, 50.5, 0.5, 50.5, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert probe.reference_prob(13.0, 9.0, 13.0, 9.0, 0.0) == pytest.approx(0.5, abs=1e-12)
    # Beta(2, 1) vs Beta(1, 1): P(X > Y) = 2/3
    assert probe.reference_prob(2.0, 1.0, 1.0, 1.0, 0.0) == pytest.approx(2 / 3, abs=1e-12)
    # negative margin adds P(X > 1 + delta) in closed form: 1 - (1 + delta)^2 for Beta(2, 1)
    assert probe.reference_prob(2.0, 1.0, 1.0, 1.0, -1.0) == pytest.approx(1.0, abs=1e-12)
