"""Rebuild ``bench/reference.json``: the correctness gate's reference OCs
and the byte-identity digests.

    python3 bench/make_reference.py

Run it from the repository root, and only when a change is meant to alter
the simulated behaviour (say so in CHANGES.md).  It simulates every scenario
of every workload at ``workloads.REFERENCE_SEED`` one trial at a time,
keeping each trial's summary so the gate knows each OC's per-trial spread,
in a pool with one process per CPU it may run on.  The digests come
from the fixed-seed digest call with one worker.  It takes a few minutes on
2 cores.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import sys

import gate
import rep
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

#: reference trials per scenario
REFERENCE_TRIALS = {"cohort_long": 20000, "dynamic_share": 20000, "grid_pool": 4000}


def _scenario_reference(job) -> tuple[str, int, dict]:
    name, index = job
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from platformsim import ocs, runner

    spec = workloads.load_specs(name, ROOT)[index]
    n = REFERENCE_TRIALS[name]
    acc = ocs.TrialAccumulator()
    for k in range(n):
        acc.add(k, runner.run_single_trial(spec, workloads.REFERENCE_SEED, index, k),
                spec.platform.cohorts_max)
    records = [acc.records[k] for k in range(n)]
    return name, index, gate.reference_entry(acc.finalize(), records)


def digest(name: str, scratch: str) -> str:
    specs = workloads.load_specs(name, ROOT)
    try:
        doc = rep.run_forked(name, specs, workloads.REFERENCE_SEED, scratch, 600.0,
                             digest=True, workers=1)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return doc["sha256"]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    workloads.require_checkout(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    jobs = [(name, i) for name in workloads.WORKLOADS
            for i in range(len(workloads.load_specs(name, ROOT)))]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(len(os.sched_getaffinity(0))) as pool:
        results = pool.map(_scenario_reference, jobs, chunksize=1)
    doc = {"seed": workloads.REFERENCE_SEED, "workloads": {}}
    for name in workloads.WORKLOADS:
        scratch = os.path.join(ROOT, ".bench_run", f"reference-{name}")
        doc["workloads"][name] = {
            "n": REFERENCE_TRIALS[name],
            "scenarios": {str(i): entry for n, i, entry in results if n == name},
            "digest": {"iterations": workloads.DIGEST_ITERATIONS[name],
                       "sha256": digest(name, scratch)},
        }
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"reference written to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
