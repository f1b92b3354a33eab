"""Smoke tests of the demo scripts: each runs end to end in a fresh
interpreter and writes its outputs."""

import os
import subprocess
import sys

import pytest

from conftest import ROOT


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script,args,outputs", [
    ("run_demo_trial.py", [],
     ["trajectory.json", "cohort_arm_rates.csv", "outcome_pairs.csv"]),
    ("run_grid_sweep.py", ["--iterations", "2", "--workers", "1"], ["grid_results.csv"]),
])
def test_script_runs_and_writes_outputs(script, args, outputs, tmp_path):
    proc = run_script(script, *args, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        assert (tmp_path / name).is_file(), name
