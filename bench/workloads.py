"""The benchmark's workloads: which scenario each one runs, how big one
measured call is, and how the call goes into the package.

Every workload is a closed loop in one process: the next trial starts when
the previous one has finished.  Only ``grid_pool`` goes through the process
pool.  Sizes are set for a 2-core machine: a single-process call takes about
two seconds, a ``grid_pool`` call about four.  Each grid scenario starts its
own pool; at 100 trials per scenario the pool sits idle for about the same
share of the call as at 500 (0.14 against 0.13), while at 60 it idles more
(0.18).

The package is imported lazily (inside the functions), so that a fresh
interpreter can time its own import as part of set-up.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import os

#: name -> definition.  ``overrides`` replace fields of the ``platform``
#: section of ``config`` before validation.  Why each workload was chosen is
#: stated in ``BENCHMARK.json``.
WORKLOADS = {
    "cohort_long": {
        "kind": "run_ocs",
        "config": "configs/grid_base.yaml",
        "overrides": {"sharing_type": "cohort"},
        "trials": 1200,
        "workers": 1,
    },
    "dynamic_share": {
        "kind": "run_ocs",
        "config": "configs/example_scenario.yaml",
        "overrides": {"sharing_type": "dynamic", "sr_drugs_pos": math.inf},
        "trials": 500,
        "workers": 1,
    },
    "grid_pool": {
        "kind": "grid",
        "config": "configs/grid_base.yaml",
        "axes": "configs/grid_axes.yaml",
        "overrides": {},
        "iterations": 100,
        "scenarios": 12,
        "workers": 2,
    },
}

#: the master seed of the reference runs and of the byte-identity check
REFERENCE_SEED = 20220204

#: trials of the byte-identity check, per scenario
DIGEST_ITERATIONS = {"cohort_long": 200, "dynamic_share": 100, "grid_pool": 20}


def trials_per_call(name: str, digest: bool = False) -> int:
    """Trials of one measured call, or of one byte-identity check call."""
    w = WORKLOADS[name]
    if digest:
        return DIGEST_ITERATIONS[name] * w.get("scenarios", 1)
    return w["trials"] if w["kind"] == "run_ocs" else w["iterations"] * w["scenarios"]


def require_checkout(root: str) -> None:
    """Raise FileNotFoundError unless ``root`` holds the package source and
    the scenario files the workloads read."""
    needed = [os.path.join(root, "src", "platformsim", "__init__.py")]
    for w in WORKLOADS.values():
        needed.append(os.path.join(root, w["config"]))
        if "axes" in w:
            needed.append(os.path.join(root, w["axes"]))
    missing = [p for p in dict.fromkeys(needed) if not os.path.isfile(p)]
    if missing:
        raise FileNotFoundError("benchmark needs the repository checkout; missing: "
                                + ", ".join(missing))


def load_specs(name: str, root: str) -> list:
    """Load, override and validate the workload's scenarios (its set-up).

    Returns one spec for a ``run_ocs`` workload and the expanded grid for
    ``grid_pool``.
    """
    from platformsim import config

    w = WORKLOADS[name]
    spec = config.load_scenario(os.path.join(root, w["config"]))
    if w["overrides"]:
        spec = dataclasses.replace(
            spec, platform=dataclasses.replace(spec.platform, **w["overrides"]))
    errors = [v for v in config.validate(spec) if v.severity == "error"]
    if errors:
        raise ValueError(f"workload {name}: invalid scenario: {errors}")
    if w["kind"] == "run_ocs":
        return [spec]
    return config.expand_grid(spec, config.load_axes(os.path.join(root, w["axes"])))


def run_call(name: str, root: str, specs: list, master_seed: int, out_dir: str,
             workers: int | None = None, iterations: int | None = None,
             write_ocs_json: bool = False) -> dict:
    """One measured call.  Returns ``{scenario index: OC scalar row}`` and
    the path of the file whose bytes the digest check compares.

    ``run_ocs`` workloads call ``runner.run_ocs``; ``grid_pool`` calls
    ``cli.main(["grid", ...])`` and reads back ``grid_results.csv``.
    """
    w = WORKLOADS[name]
    workers = w["workers"] if workers is None else workers
    if w["kind"] == "run_ocs":
        from platformsim import reporting, runner

        n = w["trials"] if iterations is None else iterations
        ocs = runner.run_ocs(specs[0], n, master_seed, workers=workers)
        row = ocs.scalar_row()
        row["undefined"] = list(ocs.undefined)
        out_file = None
        if write_ocs_json:
            out_file = os.path.join(out_dir, "ocs.json")
            reporting.write_ocs_json(out_file, specs[0].id, ocs)
        return {"rows": {"0": row}, "file": out_file}

    from platformsim import cli

    n = w["iterations"] if iterations is None else iterations
    argv = ["grid", "--config", os.path.join(root, w["config"]),
            "--axes", os.path.join(root, w["axes"]),
            "--iterations", str(n), "--seed", str(master_seed),
            "--workers", str(workers), "--out", out_dir, "--format", "csv,json"]
    rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"platformsim grid exited with code {rc}")
    out_file = os.path.join(out_dir, "grid_results.csv")
    return {"rows": read_grid_rows(out_file), "file": out_file}


def read_grid_rows(path: str) -> dict:
    """OC rows of ``grid_results.csv`` keyed by scenario index, numbers parsed."""
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for index, raw in enumerate(csv.DictReader(fh)):
            row = {}
            for key, value in raw.items():
                try:
                    row[key] = float(value)
                except ValueError:
                    row[key] = value
            row["undefined"] = [k[:-len("_undefined")] for k, v in raw.items()
                                if k.endswith("_undefined") and v == "True"]
            rows[str(index)] = row
    return rows
