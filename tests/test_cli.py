import csv
import json
import multiprocessing
import os
import subprocess
import sys

import pytest
import yaml

from platformsim import decisions, runner, stats
from platformsim.cli import main
from platformsim.config import expand_grid, load_axes, load_scenario
from platformsim.engine import STREAM_VERSION
from platformsim.ocs import OperatingCharacteristics
from platformsim.reporting import read_trajectory, write_ocs_json
from platformsim.runner import resolve_workers, run_ocs

from conftest import CONFIGS, scenario_dict


def write_yaml(path, data):
    path.write_text(yaml.safe_dump(data, sort_keys=False))
    return str(path)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture()
def spec_file(tmp_path):
    return write_yaml(tmp_path / "scenario.yaml",
                      scenario_dict(cohort_random=0.05, safety_prob=0.001))


class TestSimulate:
    def test_writes_dump_and_summary(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", spec_file, "--seed", "7",
                     "--out", str(out)]) == 0
        dump = read_trajectory(out / "trajectory.json")
        assert dump["Trial_Overview"]["Total_N"] > 0
        stdout = capsys.readouterr().out
        assert "Total_N" in stdout and "cohort 0" in stdout

    def test_same_seed_byte_identical(self, spec_file, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", spec_file, "--seed", "3", "--out", str(a)])
        main(["simulate", "--config", spec_file, "--seed", "3", "--out", str(b)])
        assert (a / "trajectory.json").read_bytes() == (b / "trajectory.json").read_bytes()

    def test_invalid_spec_exits_2_without_outputs(self, tmp_path):
        bad = write_yaml(tmp_path / "bad.yaml", scenario_dict(n_int=500, n_fin=100))
        out = tmp_path / "out"
        assert main(["simulate", "--config", bad, "--out", str(out)]) == 2
        assert not (out / "trajectory.json").exists()

    def test_scalar_endpoint_probs_exits_2(self, tmp_path):
        d = scenario_dict()
        d["endpoint"] = {"transforms": [{"kind": "identity"}], "probs": 1.0}
        bad = write_yaml(tmp_path / "bad.yaml", d)
        assert main(["simulate", "--config", bad, "--out", str(tmp_path / "out")]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "none.yaml"),
                     "--out", str(tmp_path)]) == 2


class TestOcs:
    def test_csv_columns_and_values(self, spec_file, tmp_path):
        out = tmp_path / "out"
        assert main(["ocs", "--config", spec_file, "--iterations", "12",
                     "--seed", "5", "--out", str(out)]) == 0
        rows = read_csv_rows(out / "ocs.csv")
        assert len(rows) == 1
        row = rows[0]
        expected = {"scenario_id", "iterations"}
        expected.update(OperatingCharacteristics.SCALAR_COLUMNS)
        expected.update(f"{m}_undefined" for m in OperatingCharacteristics.FLAGGED_METRICS)
        assert set(row) == expected
        assert 0.0 <= float(row["Disj_Power"]) <= 1.0
        assert row["iterations"] == "12"
        doc = json.loads((out / "ocs.json").read_text())
        assert len(doc["Dist_PTP"]) == 12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 5
        assert "spec_hash" in manifest
        # the random stream is recorded in the manifest only, never in the OC files
        assert manifest["versions"]["stream_version"] == STREAM_VERSION == 3
        assert "stream" not in (out / "ocs.csv").read_text() + json.dumps(doc)

    def test_workers_do_not_change_results(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["ocs", "--config", spec_file, "--iterations", "16", "--seed", "9",
              "--workers", "1", "--out", str(out1)])
        main(["ocs", "--config", spec_file, "--iterations", "16", "--seed", "9",
              "--workers", "2", "--out", str(out2)])
        assert (out1 / "ocs.csv").read_bytes() == (out2 / "ocs.csv").read_bytes()
        assert (out1 / "ocs.json").read_bytes() == (out2 / "ocs.json").read_bytes()

    def test_workers_auto_counts_usable_cpus(self, monkeypatch):
        # an affinity mask of one CPU on an eight-CPU machine
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert resolve_workers("auto") == 1

    def test_dump_trajectories(self, spec_file, tmp_path):
        dumps = {}
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["ocs", "--config", spec_file, "--iterations", "6", "--seed", "2",
                         "--workers", workers, "--dump-trajectories", "3",
                         "--out", str(out)]) == 0
            dumps[workers] = {p.name: p.read_bytes()
                              for p in (out / "trajectories").glob("trajectory_*.json")}
        assert len(dumps["1"]) == 3
        assert dumps["2"] == dumps["1"]

    def test_first_dump_equals_simulate(self, spec_file, tmp_path):
        ocs_out, sim_out = tmp_path / "ocs", tmp_path / "sim"
        assert main(["ocs", "--config", spec_file, "--iterations", "4", "--seed", "11",
                     "--dump-trajectories", "1", "--out", str(ocs_out)]) == 0
        assert main(["simulate", "--config", spec_file, "--seed", "11",
                     "--out", str(sim_out)]) == 0
        assert ((ocs_out / "trajectories" / "trajectory_000000.json").read_bytes()
                == (sim_out / "trajectory.json").read_bytes())

    def test_dump_count_capped_by_iterations(self, spec_file, tmp_path):
        out = tmp_path / "out"
        assert main(["ocs", "--config", spec_file, "--iterations", "2", "--seed", "2",
                     "--dump-trajectories", "5", "--out", str(out)]) == 0
        names = sorted(p.name for p in (out / "trajectories").iterdir())
        assert names == ["trajectory_000000.json", "trajectory_000001.json"]

    def test_format_selection(self, spec_file, tmp_path):
        out = tmp_path / "out"
        main(["ocs", "--config", spec_file, "--iterations", "4", "--seed", "2",
              "--format", "json", "--out", str(out)])
        assert (out / "ocs.json").exists()
        assert not (out / "ocs.csv").exists()

    def test_unconverged_kernel_exits_3(self, tmp_path, monkeypatch, capsys):
        # some Jeffreys-prior posteriors here need 8 panels
        monkeypatch.setattr(stats, "_MAX_PANELS", 4)
        d = scenario_dict()
        d["prior"] = {"alpha": 0.5, "beta": 0.5}
        spec = write_yaml(tmp_path / "jeffreys.yaml", d)
        assert main(["ocs", "--config", spec, "--iterations", "5", "--seed", "1",
                     "--out", str(tmp_path / "out")]) == 3
        assert "QuadratureError" in capsys.readouterr().err


class TestGrid:
    def test_grid_rows_echo_axes(self, spec_file, tmp_path):
        axes = write_yaml(tmp_path / "axes.yaml",
                          {"cohort_random": [0.01, 0.05], "n_int": [50, 60]})
        out = tmp_path / "grid"
        assert main(["grid", "--config", spec_file, "--axes", axes,
                     "--iterations", "5", "--seed", "4", "--out", str(out)]) == 0
        rows = read_csv_rows(out / "grid_results.csv")
        assert len(rows) == 4
        combos = [(float(r["cohort_random"]), int(r["n_int"])) for r in rows]
        assert combos == [(0.01, 50), (0.01, 60), (0.05, 50), (0.05, 60)]
        assert len({r["scenario_id"] for r in rows}) == 4
        for i in range(4):
            assert (out / f"scenario_{i:03d}" / "ocs.csv").exists()
        for manifest in [out / "manifest.json", *out.glob("scenario_*/manifest.json")]:
            versions = json.loads(manifest.read_text())["versions"]
            assert versions["stream_version"] == STREAM_VERSION
        assert "stream" not in (out / "grid_results.csv").read_text()

    def test_empty_axes_single_row_matches_ocs(self, spec_file, tmp_path):
        axes = write_yaml(tmp_path / "axes.yaml", {})
        grid_out = tmp_path / "grid"
        ocs_out = tmp_path / "ocs"
        main(["grid", "--config", spec_file, "--axes", axes, "--iterations", "6",
              "--seed", "8", "--out", str(grid_out)])
        main(["ocs", "--config", spec_file, "--iterations", "6", "--seed", "8",
              "--out", str(ocs_out)])
        grid_rows = read_csv_rows(grid_out / "grid_results.csv")
        ocs_rows = read_csv_rows(ocs_out / "ocs.csv")
        assert len(grid_rows) == 1
        assert grid_rows[0] == ocs_rows[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_invalid_axis_value_exits_2(self, tmp_path, workers):
        # n_int 400 exceeds grid_base's n_fin; every worker count must refuse it
        axes = write_yaml(tmp_path / "axes.yaml", {"n_int": [50, 400]})
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(CONFIGS / "grid_base.yaml"), "--axes", axes,
                     "--iterations", "2", "--seed", "1", "--workers", workers,
                     "--out", str(out)]) == 2
        assert not (out / "grid_results.csv").exists()

    @pytest.mark.parametrize("text", ["n_int: [50, 60\n", "- n_int\n"],
                             ids=["unclosed_bracket", "not_a_mapping"])
    def test_malformed_axes_file_exits_2(self, tmp_path, capsys, text):
        axes = tmp_path / "axes.yaml"
        axes.write_text(text, encoding="utf-8")
        out = tmp_path / "grid"
        assert main(["grid", "--config", str(CONFIGS / "grid_base.yaml"), "--axes", str(axes),
                     "--iterations", "2", "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_failing_scenario_aborts_with_manifest(self, spec_file, tmp_path, monkeypatch,
                                                   workers):
        # the third scenario's trials raise, in this process or in the forked pool workers
        axes = write_yaml(tmp_path / "axes.yaml", {"n_int": [50, 60, 70]})
        out = tmp_path / "grid"
        real = runner.simulate_trial

        def flaky(spec, rng):
            if spec.platform.n_int == 70:
                raise RuntimeError("boom")
            return real(spec, rng)

        monkeypatch.setattr(runner, "simulate_trial", flaky)
        assert main(["grid", "--config", spec_file, "--axes", axes, "--iterations", "4",
                     "--seed", "1", "--workers", workers, "--out", str(out)]) == 3
        manifest = json.loads((out / "error_manifest.json").read_text())
        assert manifest["failed_index"] == 2
        assert len(manifest["completed"]) == 2
        assert manifest["versions"]["stream_version"] == STREAM_VERSION
        # partial results preserved
        assert (out / "grid_results.csv").exists()
        assert len(read_csv_rows(out / "grid_results.csv")) == 2
        # pending chunks cancelled and the pool shut down
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_scenario_equals_its_lone_run(self, spec_file, tmp_path, workers):
        axes = write_yaml(tmp_path / "axes.yaml", {"cohort_random": [0.01, 0.05, 0.1]})
        out = tmp_path / "grid"
        assert main(["grid", "--config", spec_file, "--axes", axes, "--iterations", "9",
                     "--seed", "6", "--workers", str(workers), "--out", str(out)]) == 0
        specs = expand_grid(load_scenario(spec_file), load_axes(axes))
        for i, spec in enumerate(specs):
            lone = tmp_path / f"lone_{i}.json"
            write_ocs_json(lone, spec.id, run_ocs(spec, 9, 6, scenario_index=i))
            assert (out / f"scenario_{i:03d}" / "ocs.json").read_bytes() == lone.read_bytes()

    def test_one_plan_per_rules_and_prior_and_each_run_starts_cold(self, spec_file, tmp_path):
        # the grid's scenarios share rules and prior, so they share one plan
        axes = write_yaml(tmp_path / "axes.yaml", {"cohort_random": [0.01, 0.05, 0.1]})
        specs = expand_grid(load_scenario(spec_file), load_axes(axes))
        assert main(["grid", "--config", spec_file, "--axes", axes, "--iterations", "8",
                     "--seed", "2", "--out", str(tmp_path / "grid")]) == 0
        assert decisions.plan_for.cache_info().currsize == 1
        grid_plan = decisions.plan_for(specs[-1].rules, specs[-1].prior)
        grid_memo = grid_plan.flags.cache_info()
        assert grid_memo.currsize > 0
        run_ocs(specs[-1], 8, 2, scenario_index=2)
        lone_plan = decisions.plan_for(specs[-1].rules, specs[-1].prior)
        assert lone_plan is not grid_plan
        # the lone run saw only the last scenario's analyses
        assert 0 < lone_plan.flags.cache_info().misses <= grid_memo.misses

    def test_manifests_record_wall_time_and_rate(self, spec_file, tmp_path, capsys):
        axes = write_yaml(tmp_path / "axes.yaml", {"n_int": [50, 60]})
        out = tmp_path / "grid"
        main(["grid", "--config", spec_file, "--axes", axes, "--iterations", "4",
              "--seed", "3", "--workers", "2", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trials_per_s"] == pytest.approx(8 / manifest["wall_s"])
        done = manifest["completed_s"]
        assert len(done) == 2 and 0 < done[0] <= done[1] <= manifest["wall_s"]
        progress = capsys.readouterr().err.splitlines()
        assert progress[-1].startswith("grid: 8/8 trials, ") and "ETA" in progress[-1]
        main(["ocs", "--config", spec_file, "--iterations", "4", "--seed", "3",
              "--out", str(tmp_path / "ocs")])
        manifest = json.loads((tmp_path / "ocs" / "manifest.json").read_text())
        assert manifest["trials_per_s"] == pytest.approx(4 / manifest["wall_s"])


class TestBadArguments:
    """Out-of-range or malformed numeric options exit 2 at argument parsing,
    before any output directory or file is written."""

    @pytest.mark.parametrize("command, extra", [
        ("ocs", ["--iterations", "0"]),
        ("ocs", ["--iterations", "-3"]),
        ("ocs", ["--iterations", "2", "--workers", "0"]),
        ("ocs", ["--iterations", "2", "--workers", "two"]),
        ("ocs", ["--iterations", "2", "--seed", "-1"]),
        ("ocs", ["--iterations", "2", "--dump-trajectories", "-1"]),
        ("grid", ["--iterations", "0"]),
        ("grid", ["--iterations", "2", "--workers", "0"]),
        ("grid", ["--iterations", "2", "--seed", "-1"]),
        ("simulate", ["--seed", "-1"]),
    ], ids=lambda v: v if isinstance(v, str) else "_".join(v[-2:]).lstrip("-"))
    def test_exits_2_without_outputs(self, command, extra, spec_file, tmp_path, capsys):
        argv = [command, "--config", spec_file, "--out", str(tmp_path / "out"), *extra]
        if command == "grid":
            argv += ["--axes", write_yaml(tmp_path / "axes.yaml", {"n_int": [50, 60]})]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPlotData:
    def test_identity_transform_has_no_discordant_pairs(self, spec_file, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", spec_file, "--seed", "1", "--out", str(out)])
        plot = tmp_path / "plot"
        assert main(["plot-data", "--dump", str(out / "trajectory.json"),
                     "--out", str(plot)]) == 0
        for row in read_csv_rows(plot / "outcome_pairs.csv"):
            assert row["n01"] == "0" and row["n10"] == "0"

    def test_rates_recompute_from_dump(self, spec_file, tmp_path):
        out = tmp_path / "sim"
        main(["simulate", "--config", spec_file, "--seed", "6", "--out", str(out)])
        plot = tmp_path / "plot"
        main(["plot-data", "--dump", str(out / "trajectory.json"), "--out", str(plot)])
        dump = read_trajectory(out / "trajectory.json")
        recomputed = {}
        for c in dump["Stage_Data"]["cohorts"]:
            for arm, rec in c["per_arm"].items():
                recomputed[(str(c["id"]), arm)] = (rec["n"], rec["hist_responders"])
        for row in read_csv_rows(plot / "cohort_arm_rates.csv"):
            n, resp = recomputed[(row["cohort"], row["arm"])]
            assert int(row["n"]) == n
            if n:
                assert float(row["emp_hist_rate"]) == pytest.approx(resp / n)

    def test_one_patient_cohort_has_defined_rates(self, tmp_path):
        cfg = write_yaml(tmp_path / "s.yaml", scenario_dict(safety_prob=1.0))
        out = tmp_path / "sim"
        main(["simulate", "--config", cfg, "--seed", "1", "--out", str(out)])
        plot = tmp_path / "plot"
        main(["plot-data", "--dump", str(out / "trajectory.json"), "--out", str(plot)])
        rows = read_csv_rows(plot / "cohort_arm_rates.csv")
        filled = [r for r in rows if int(r["n"]) > 0]
        assert filled
        for r in filled:
            assert r["emp_hist_rate"] != ""

    @pytest.mark.parametrize("text", [
        "{}", '{"Trial_Overview": {}}', "not json\n", "5", '{"Trial_Overview": {}, "Stage_Data": 5}',
        '{"Trial_Overview": {}, "Stage_Data": {"cohorts": [{"id": 0, "per_arm": {"soc": '
        '{"n": 2, "hist_responders": 1, "true_rate": 0.2, "pairs": [1, 0, 0, 1]}}}]}}',
    ], ids=["empty_object", "no_stage_data", "not_json", "a_number", "stage_data_a_number",
            "no_bio_responders"])
    def test_malformed_dump_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        out = tmp_path / "plot"
        assert main(["plot-data", "--dump", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad} is not a trajectory dump: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """The OC files, the grid table and the dumps, which build their rule
    traces when written, are the same bytes under two hash seeds: no cached
    hash and no dict or set order reaches them."""
    src = str(CONFIGS.parent / "src")
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = tmp_path / f"hashseed-{seed}"
        for args in (["ocs", "--config", str(CONFIGS / "example_scenario.yaml"),
                      "--iterations", "20", "--workers", "2", "--dump-trajectories", "2",
                      "--out", str(out / "ocs")],
                     ["grid", "--config", str(CONFIGS / "grid_base.yaml"),
                      "--axes", str(CONFIGS / "grid_axes.yaml"), "--iterations", "2",
                      "--workers", "2", "--out", str(out / "grid")]):
            subprocess.run([sys.executable, "-m", "platformsim.cli", *args], env=env,
                           check=True, capture_output=True)
    for name in ("ocs/ocs.json", "ocs/ocs.csv", "grid/grid_results.csv",
                 "ocs/trajectories/trajectory_000000.json",
                 "ocs/trajectories/trajectory_000001.json"):
        first = (tmp_path / "hashseed-1" / name).read_bytes()
        assert first and first == (tmp_path / "hashseed-2" / name).read_bytes(), name
