"""Command-line front end.

Subcommands:
  simulate   one trial trajectory -> JSON dump + stdout summary
  ocs        many trials -> operating-characteristics CSV/JSON
  grid       scenario grid sweep -> per-scenario OCs + combined CSV
  plot-data  turn a trajectory dump into plot-ready CSV tables

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback

from . import reporting
from .config import (ConfigError, expand_grid, get_path, load_axes,
                     load_scenario, validate)
from .runner import derive_rng, resolve_workers, run_ocs
from .engine import simulate_trial

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_spec(path, quiet: bool = False):
    spec = load_scenario(path)
    if not quiet:
        for v in validate(spec):
            if v.severity == "warning":
                print(f"warning: {v}", file=sys.stderr)
    return spec


def _parse_formats(value: str) -> set[str]:
    formats = {f.strip() for f in value.split(",") if f.strip()}
    unknown = formats - {"csv", "json"}
    if unknown:
        raise ConfigError(f"unknown output format(s): {sorted(unknown)}")
    return formats or {"csv", "json"}


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _workers(text: str) -> int | str:
    """argparse type: a worker count >= 1 or 'auto'."""
    return text if text == "auto" else _int_at_least(1)(text)


def _progress(label: str):
    def cb(done: int, total: int):
        print(f"{label}: {done}/{total} iterations", file=sys.stderr)
    return cb


def cmd_simulate(args) -> int:
    spec = _load_spec(args.config)
    os.makedirs(args.out, exist_ok=True)
    result = simulate_trial(spec, derive_rng(args.seed, 0, 0))
    dump_path = os.path.join(args.out, "trajectory.json")
    reporting.write_trajectory(dump_path, result)
    print(f"scenario {spec.id}: Total_N = {result.total_n}, "
          f"cohorts = {len(result.cohorts)}, successes = {result.successes}")
    for c in result.cohorts:
        verdicts = {a.stage: a.decision.verdict for a in c.analyses}
        print(f"  cohort {c.id}: status = {c.status}, truth = {c.truth_class}, "
              f"analyses = {verdicts if verdicts else 'none'}")
    print(f"trajectory written to {dump_path}")
    return EXIT_OK


def _write_scenario_outputs(outdir, spec, ocs, formats, manifest_payload):
    os.makedirs(outdir, exist_ok=True)
    if "csv" in formats:
        reporting.write_ocs_csv(os.path.join(outdir, "ocs.csv"),
                                [reporting.ocs_csv_row(spec.id, ocs)])
    if "json" in formats:
        reporting.write_ocs_json(os.path.join(outdir, "ocs.json"), spec.id, ocs)
    reporting.write_manifest(os.path.join(outdir, "manifest.json"), manifest_payload)


def cmd_ocs(args) -> int:
    spec = _load_spec(args.config)
    formats = _parse_formats(args.format)
    workers = resolve_workers(args.workers)
    dump_dir = os.path.join(args.out, "trajectories") if args.dump_trajectories else None
    ocs = run_ocs(spec, args.iterations, args.seed, workers=workers,
                  dump_first=args.dump_trajectories, dump_dir=dump_dir,
                  progress=_progress(spec.id))
    _write_scenario_outputs(args.out, spec, ocs, formats, {
        "command": "ocs", "scenario_id": spec.id, "spec_hash": reporting.spec_hash(spec),
        "master_seed": args.seed, "iterations": args.iterations, "workers": workers,
    })
    print(f"scenario {spec.id}: {args.iterations} iterations -> {args.out}")
    return EXIT_OK


def cmd_grid(args) -> int:
    base = _load_spec(args.config)
    axes = load_axes(args.axes)
    specs = expand_grid(base, axes)
    formats = _parse_formats(args.format)
    workers = resolve_workers(args.workers)
    os.makedirs(args.out, exist_ok=True)
    axis_names = list(axes)
    rows = []
    completed = []
    for index, spec in enumerate(specs):
        try:
            ocs = run_ocs(spec, args.iterations, args.seed, workers=workers,
                          scenario_index=index, progress=_progress(spec.id))
        except Exception:
            reporting.write_manifest(os.path.join(args.out, "error_manifest.json"), {
                "command": "grid", "failed_scenario": spec.id, "failed_index": index,
                "completed": completed, "error": traceback.format_exc(),
            })
            if rows:
                reporting.write_ocs_csv(os.path.join(args.out, "grid_results.csv"),
                                        rows, axis_names)
            raise
        axis_values = {name: get_path(spec, name) for name in axis_names}
        rows.append(reporting.ocs_csv_row(spec.id, ocs, axis_values))
        subdir = os.path.join(args.out, f"scenario_{index:03d}")
        _write_scenario_outputs(subdir, spec, ocs, formats, {
            "command": "grid", "scenario_id": spec.id, "scenario_index": index,
            "spec_hash": reporting.spec_hash(spec), "master_seed": args.seed,
            "iterations": args.iterations, "workers": workers,
            "axes": {k: axis_values[k] for k in axis_names},
        })
        completed.append(spec.id)
    reporting.write_ocs_csv(os.path.join(args.out, "grid_results.csv"), rows, axis_names)
    reporting.write_manifest(os.path.join(args.out, "manifest.json"), {
        "command": "grid", "base_spec_hash": reporting.spec_hash(base),
        "scenarios": len(specs), "axes": {k: list(v) for k, v in axes.items()},
        "master_seed": args.seed, "iterations": args.iterations, "workers": workers,
    })
    print(f"grid of {len(specs)} scenarios -> {os.path.join(args.out, 'grid_results.csv')}")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    dump = reporting.read_trajectory(args.dump)
    os.makedirs(args.out, exist_ok=True)
    rates, pairs = reporting.plot_data_tables(dump)
    rates_path = os.path.join(args.out, "cohort_arm_rates.csv")
    pairs_path = os.path.join(args.out, "outcome_pairs.csv")
    reporting.write_csv(rates_path, reporting.RATES_COLUMNS, rates)
    reporting.write_csv(pairs_path, reporting.PAIRS_COLUMNS, pairs)
    print(f"plot data written to {rates_path} and {pairs_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="platformsim",
        description="Simulate open-entry cohort platform trials with binary endpoints.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate a single trial trajectory")
    sim.add_argument("--config", required=True, help="scenario YAML/JSON file")
    sim.add_argument("--seed", type=_int_at_least(0), default=0, help="master seed (default 0)")
    sim.add_argument("--out", default=".", help="output directory")
    sim.set_defaults(func=cmd_simulate)

    ocs = sub.add_parser("ocs", help="compute operating characteristics")
    ocs.add_argument("--config", required=True)
    ocs.add_argument("--iterations", type=_int_at_least(1), required=True)
    ocs.add_argument("--seed", type=_int_at_least(0), default=0)
    ocs.add_argument("--workers", type=_workers, default="1", help="worker processes or 'auto'")
    ocs.add_argument("--out", default=".")
    ocs.add_argument("--format", default="csv,json", help="csv, json or csv,json")
    ocs.add_argument("--dump-trajectories", type=_int_at_least(0), default=0, metavar="N",
                     help="also dump the first N trajectories")
    ocs.set_defaults(func=cmd_ocs)

    grid = sub.add_parser("grid", help="sweep a scenario grid")
    grid.add_argument("--config", required=True, help="base scenario file")
    grid.add_argument("--axes", required=True, help="axes file: field path -> value list")
    grid.add_argument("--iterations", type=_int_at_least(1), required=True)
    grid.add_argument("--seed", type=_int_at_least(0), default=0)
    grid.add_argument("--workers", type=_workers, default="1")
    grid.add_argument("--out", default=".")
    grid.add_argument("--format", default="csv,json")
    grid.set_defaults(func=cmd_grid)

    plot = sub.add_parser("plot-data", help="extract plot tables from a trajectory dump")
    plot.add_argument("--dump", required=True, help="trajectory JSON file")
    plot.add_argument("--out", default=".")
    plot.set_defaults(func=cmd_plotdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
