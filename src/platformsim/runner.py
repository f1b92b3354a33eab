"""Parallel, reproducible execution of many trial simulations.

Every (scenario_index, iteration_index) pair gets its own random stream
derived from the master seed via numpy SeedSequence spawn keys, so results
are bit-identical for any worker count and any scheduling order.  Workers
receive the scenario object itself (pickled, not re-parsed from a dict);
merging of per-worker accumulators happens once at the join point.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import numpy as np

from . import reporting
from .config import ScenarioSpec
from .decisions import rule_outcome
from .engine import TrialResult, simulate_trial
from .ocs import OperatingCharacteristics, TrialAccumulator


def derive_rng(master_seed: int, scenario_index: int, iteration_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one (scenario, iteration) cell."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(scenario_index, iteration_index))
    return np.random.Generator(np.random.PCG64(ss))


def run_single_trial(spec: ScenarioSpec, master_seed: int,
                     scenario_index: int = 0, iteration_index: int = 0) -> TrialResult:
    return simulate_trial(spec, derive_rng(master_seed, scenario_index, iteration_index))


def _run_range(spec: ScenarioSpec, scenario_index: int, start: int, count: int,
               master_seed: int, dump_first: int, dump_dir: str | None) -> TrialAccumulator:
    """Simulate iterations ``start .. start+count-1``; the first ``dump_first``
    iterations of the run are also dumped to ``dump_dir``."""
    acc = TrialAccumulator()
    cohorts_max = spec.platform.cohorts_max
    for k in range(start, start + count):
        result = simulate_trial(spec, derive_rng(master_seed, scenario_index, k))
        if dump_dir is not None and k < dump_first:
            reporting.write_trajectory(
                os.path.join(dump_dir, f"trajectory_{k:06d}.json"), result)
        acc.add(k, result, cohorts_max)
    return acc


def resolve_workers(workers: int | str | None) -> int:
    if workers in (None, "auto"):  # the CPUs this process may run on, under any affinity mask
        if hasattr(os, "sched_getaffinity"):
            return max(1, len(os.sched_getaffinity(0)))
        return max(1, os.cpu_count() or 1)
    w = int(workers)
    if w < 1:
        raise ValueError("workers must be >= 1 or 'auto'")
    return w


def run_ocs(spec: ScenarioSpec, iterations: int, master_seed: int,
            workers: int | str | None = 1, scenario_index: int = 0,
            dump_first: int = 0, dump_dir: str | None = None,
            progress: Callable[[int, int], None] | None = None) -> OperatingCharacteristics:
    """Simulate ``iterations`` independent trials and aggregate them.

    The result is identical for every ``workers`` value; parallel workers
    only change wall-clock time.  The memo ``decisions.rule_outcome`` is
    cleared first, so every run and every pool worker starts with it empty.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rule_outcome.cache_clear()
    n_workers = resolve_workers(workers)
    if dump_dir is not None and dump_first > 0:
        os.makedirs(dump_dir, exist_ok=True)

    if n_workers == 1:
        acc = _run_range(spec, scenario_index, 0, iterations, master_seed, dump_first, dump_dir)
        if progress is not None:
            progress(iterations, iterations)
        return acc.finalize()

    chunk = max(1, iterations // (n_workers * 4))
    tasks = []
    start = 0
    while start < iterations:
        count = min(chunk, iterations - start)
        tasks.append((start, count))
        start += count
    acc = TrialAccumulator()
    done = 0
    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(_run_range, spec, scenario_index, s, c,
                               master_seed, dump_first, dump_dir)
                   for s, c in tasks]
        for fut, (s, c) in zip(futures, tasks):
            acc.merge_in(fut.result())
            done += c
            if progress is not None:
                progress(done, iterations)
    return acc.finalize()
