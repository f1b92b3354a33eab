"""Benchmark of platformsim: trials simulated per second on three
workloads, with a traced per-layer split.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout.  Workloads (see
``workloads.py`` and ``README.md``): ``cohort_long``, ``dynamic_share``,
``grid_pool``.

A run repeats one measured call, each time in a fresh interpreter
(``rep.py``) with its own master seed derived from ``--seed``, until
``--seconds`` are used up, and reports medians over the repetitions.
Every repetition's OCs go through the correctness gate (``gate.py``).
After the measurement a fixed-seed call checks the output bytes against
the stored digest and, for ``grid_pool``, that 1 and 2 workers write the
same bytes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions, reports the per-layer metrics from the
traced ones, the tracing overhead, and runs the kernel accuracy probe
(``probe.py``).

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import gate
import rep
import workloads
import yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

#: whole-run guard; a repetition that would run past it is killed
RUN_LIMIT_S = 170.0

#: set-up samples of an untraced run, taken after its last repetition
SETUPS = 10

#: the metric catalogue: names, units and each workload's "why"
CATALOGUE = os.path.join(ROOT, "BENCHMARK.json")


def load_catalogue() -> dict:
    """``BENCHMARK.json`` as ``{"end_to_end": {name: unit}, "per_layer":
    {name: unit}, "why": {workload: text}}``.  Per-layer metrics with unit
    ``count`` come from the first traced repetition (they repeat exactly
    for a seed); the others are medians over traced repetitions."""
    with open(CATALOGUE, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in doc["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in doc["per_layer"]},
            "why": {w["name"]: w["why"] for w in doc["workloads"]}}


class Run:
    """State of one benchmark run: repetitions, failures, gate messages."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, reference: dict,
                 catalogue: dict):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.reference = reference
        self.catalogue = catalogue
        self.started = time.monotonic()
        self.scratch = os.path.join(ROOT, ".bench_run", f"{name}-{os.getpid()}")
        self.specs = workloads.load_specs(name, ROOT)
        # a single-process workload and its calibration loop share one CPU
        allowed = os.sched_getaffinity(0)
        self.cpus = allowed if workloads.WORKLOADS[name]["workers"] > 1 else {min(allowed)}
        os.sched_setaffinity(0, self.cpus)
        self.untraced: list[dict] = []
        self.traced: list[dict] = []
        self.setups: list[tuple[float, float]] = []  # (seconds, slowdown)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digest: dict = {}

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def _rep(self, index: int, master_seed: int, **kw) -> dict | None:
        trials = workloads.trials_per_call(self.name, digest=kw.get("digest", False))
        self.attempted += trials
        scratch = os.path.join(self.scratch, f"rep{index}")
        try:
            return rep.run_forked(self.name, self.specs, master_seed, scratch,
                                  max(1.0, self.remaining()), **kw)
        except rep.RepFailed as exc:
            self.failed += trials
            self.problems.append(f"rep {index}: {exc}")
            return None
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def measure(self) -> None:
        """Repetitions until ``seconds`` are used.

        Without tracing, ``SETUPS`` set-ups in a fresh interpreter follow
        the last repetition, and every repetition and every set-up sits
        between two runs of the calibration loop.  With tracing, untraced
        and traced repetitions alternate in pairs that share a seed, so a
        pair differs only by the tracing."""
        step = 2 if self.trace else 1
        index = 0
        begin = time.monotonic()
        before = None
        if not self.trace:
            yardstick.slowdown(self.cpus)  # warm-up: the first loop runs cold
            before = yardstick.slowdown(self.cpus)
        while True:
            traced = self.trace and index % 2 == 1
            doc = self._rep(index, self.seed * 1000 + index // step, trace=traced)
            if before is not None:
                after = yardstick.slowdown(self.cpus)
                if doc is not None:
                    doc["slowdown"] = (before + after) / 2.0
                before = after
            if doc is not None:
                failures = gate.check(doc["rows"], self.reference["workloads"][self.name])
                if failures:
                    self.failed += doc["trials"]
                    self.problems += [f"rep {index} gate: {f}" for f in failures]
                (self.traced if traced else self.untraced).append(doc)
            index += 1
            if index % step:
                continue
            elapsed = time.monotonic() - begin
            per_step = elapsed / (index // step)
            if elapsed + per_step > self.seconds or self.remaining() < 2 * per_step + 30:
                break
        if not self.trace:
            for k in range(SETUPS):
                try:
                    setup = rep.measure_setup(self.name, max(1.0, self.remaining()))
                except (rep.RepFailed, subprocess.TimeoutExpired) as exc:
                    self.problems.append(f"set-up {k}: {exc}")
                    continue
                after = yardstick.slowdown(self.cpus)
                self.setups.append((setup, (before + after) / 2.0))
                before = after

    def check_digest(self) -> None:
        """Fixed-seed call: bytes against the stored digest; for the pool
        workload also 1 worker against 2 (identical output for any worker
        count)."""
        want = self.reference["workloads"][self.name]["digest"]["sha256"]
        workers = workloads.WORKLOADS[self.name]["workers"]
        runs = {}
        for w in sorted({1, workers}):
            doc = self._rep(1000 + w, workloads.REFERENCE_SEED, digest=True, workers=w)
            if doc is not None:
                runs[w] = doc["sha256"]
        self.digest = {"workers": runs, "match": runs.get(workers) == want}
        if len(set(runs.values())) > 1:
            self.failed += 2 * workloads.trials_per_call(self.name, digest=True)
            self.problems.append(f"output bytes differ between worker counts: {runs}")

    def end_to_end(self, calibrated: bool = True) -> dict:
        """Medians over repetitions.  Calibrated times are wall times divided
        by the slowdown the calibration loop measured next to them."""
        reps = self.untraced
        values = {
            "trials_per_s": [d["trials"] / d["wall_s"] * (d["slowdown"] if calibrated else 1.0)
                             for d in reps],
            "patients_per_s": [d["patients"] / d["wall_s"]
                               * (d["slowdown"] if calibrated else 1.0) for d in reps],
            "setup_s": [t / (slow if calibrated else 1.0) for t, slow in self.setups],
            "peak_rss_mb": [max(d["rss_mb"], d["rss_children_mb"]) for d in reps],
        }
        return {name: {"value": statistics.median(values[name]), "unit": unit}
                for name, unit in self.catalogue["end_to_end"].items()}

    def per_layer(self, probe_result: dict) -> dict:
        first = self.traced[0]["trace"]["metrics"]
        out = {}
        for name, unit in self.catalogue["per_layer"].items():
            if unit == "count":
                value = first.get(name, 0)
            else:
                value = statistics.median(d["trace"]["metrics"].get(name, 0.0)
                                          for d in self.traced)
            out[name] = {"value": value, "unit": unit}
        untraced = {d["master_seed"]: d["wall_s"] for d in self.untraced}
        pairs = [d["wall_s"] / untraced[d["master_seed"]] - 1.0
                 for d in self.traced if d["master_seed"] in untraced]
        out["trace.overhead_share"]["value"] = statistics.median(pairs) if pairs else 0.0
        out["gate.digest_match"]["value"] = int(self.digest.get("match", False))
        out["stats.prob_greater_by_margin.max_abs_err"]["value"] = probe_result["max_abs_err"]
        out["stats.prob_greater_by_margin.out_of_contract"]["value"] = \
            probe_result["out_of_contract"]
        return out


def _print_summary(run: Run, metrics: dict) -> None:
    print(f"workload {run.name}: {run.catalogue['why'][run.name]}")
    print(f"  seed {run.seed}, {len(run.untraced)} untraced and {len(run.traced)} traced "
          f"repetitions of {workloads.trials_per_call(run.name)} trials")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    if not run.trace:
        raw = run.end_to_end(calibrated=False)
        slow = statistics.median(d["slowdown"] for d in run.untraced)
        print(f"  uncalibrated wall-clock values (median slowdown {slow:.4f}):")
        for name in ("trials_per_s", "patients_per_s", "setup_s"):
            print(f"    {name:46s} {raw[name]['value']:>16.6g} {raw[name]['unit']}")
        print("  per repetition, raw trials/s @ slowdown: " + ", ".join(
            f"{d['trials'] / d['wall_s']:.1f}@{d['slowdown']:.3f}" for d in run.untraced))
    share = run.failed / run.attempted if run.attempted else 0.0
    print(f"  {'failed_share':48s} {share:>16.6g} share ({run.failed}/{run.attempted} trials)")
    print(f"  gate: OCs within {gate.K_SIGMA:g} MCSE of the reference: "
          f"{'pass' if not run.problems else 'FAIL'}")
    print(f"  output bytes match the reference digest: {run.digest.get('match')} "
          f"(sha256 by workers: {run.digest.get('workers')})")
    for p in run.problems:
        print(f"  problem: {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        workloads.require_checkout(ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    catalogue = load_catalogue()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), reference, catalogue)
    probe_result = None
    try:
        run.measure()
        run.check_digest()
        if run.trace and run.traced:
            import probe

            sample = [tuple(a) for a in run.traced[0]["trace"]["probe_sample"]]
            probe_result = probe.probe(list(probe.FIXED_POINTS) + sample)
    finally:
        shutil.rmtree(run.scratch, ignore_errors=True)
        parent = os.path.dirname(run.scratch)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    if not run.untraced or (run.trace and not run.traced) or not (run.trace or run.setups):
        for p in run.problems:
            print(f"problem: {p}", file=sys.stderr)
        print("error: no repetition completed; nothing was measured", file=sys.stderr)
        return 1
    metrics = run.per_layer(probe_result) if run.trace else run.end_to_end()
    _print_summary(run, metrics)
    if probe_result is not None:
        for row in probe_result["rows"]:
            print(f"  probe {row['args']}: kernel {row['kernel']:.9f} "
                  f"reference {row['reference']:.9f} |err| {row['abs_err']:.3g}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
