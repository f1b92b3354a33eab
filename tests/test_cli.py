import csv
import json
import pathlib

import pytest
import yaml

from platformsim import stats
from platformsim.cli import main
from platformsim.ocs import OperatingCharacteristics
from platformsim.reporting import read_trajectory

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

    def test_workers_do_not_change_results(self, spec_file, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w2"
        main(["ocs", "--config", spec_file, "--iterations", "16", "--seed", "9",
              "--workers", "1", "--out", str(out1)])
        main(["ocs", "--config", spec_file, "--iterations", "16", "--seed", "9",
              "--workers", "2", "--out", str(out2)])
        assert (out1 / "ocs.csv").read_bytes() == (out2 / "ocs.csv").read_bytes()
        assert (out1 / "ocs.json").read_bytes() == (out2 / "ocs.json").read_bytes()

    def test_dump_trajectories(self, spec_file, tmp_path):
        out = tmp_path / "out"
        main(["ocs", "--config", spec_file, "--iterations", "6", "--seed", "2",
              "--dump-trajectories", "3", "--out", str(out)])
        dumps = sorted((out / "trajectories").glob("trajectory_*.json"))
        assert len(dumps) == 3

    def test_format_selection(self, spec_file, tmp_path):
        out = tmp_path / "out"
        main(["ocs", "--config", spec_file, "--iterations", "4", "--seed", "2",
              "--format", "json", "--out", str(out)])
        assert (out / "ocs.json").exists()
        assert not (out / "ocs.csv").exists()

    def test_unconverged_kernel_exits_3(self, tmp_path, monkeypatch, capsys):
        # some Jeffreys-prior posteriors here need 8 panels
        stats._prob_greater_cached.cache_clear()
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

    def test_failing_scenario_aborts_with_manifest(self, spec_file, tmp_path, monkeypatch):
        axes = write_yaml(tmp_path / "axes.yaml", {"n_int": [50, 60, 70]})
        out = tmp_path / "grid"
        import platformsim.cli as cli_mod
        real = cli_mod.run_ocs
        calls = {"n": 0}

        def flaky(spec, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("boom")
            return real(spec, *args, **kwargs)

        monkeypatch.setattr(cli_mod, "run_ocs", flaky)
        assert main(["grid", "--config", spec_file, "--axes", axes,
                     "--iterations", "4", "--seed", "1", "--out", str(out)]) == 3
        manifest = json.loads((out / "error_manifest.json").read_text())
        assert manifest["failed_index"] == 2
        assert len(manifest["completed"]) == 2
        # partial results preserved
        assert (out / "grid_results.csv").exists()
        assert len(read_csv_rows(out / "grid_results.csv")) == 2


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

    def test_malformed_dump_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["plot-data", "--dump", str(bad), "--out", str(tmp_path)]) == 3
