"""Parallel, reproducible execution of many trial simulations.

Every (scenario_index, iteration_index) pair gets its own random stream
derived from the master seed via numpy SeedSequence spawn keys, so results
are bit-identical for any worker count and any scheduling order.

One scheduler, :func:`run_grid`, runs every simulation: it splits each
scenario into iteration chunks, runs the (scenario, chunk) tasks of the
whole grid in order on one process pool (or in this process for one
worker), merges each scenario's accumulators and yields its OCs as soon as
its last chunk is in.  :func:`run_ocs` is its one-scenario case.  Tasks
carry the scenario object itself (pickled, not re-parsed from a dict).
The scheduler only simulates and accumulates, each trial's ``engine.Trial``
summarised as soon as it returns; one trial to inspect comes from
:func:`run_single_trial` on the same (seed, scenario, iteration) cell, as
its ``Trial``.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Sequence

import numpy as np

from .config import ScenarioSpec
from .decisions import plan_for
from .engine import Trial, simulate_trial
from .ocs import OperatingCharacteristics, TrialAccumulator


def derive_rng(master_seed: int, scenario_index: int, iteration_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one (scenario, iteration) cell."""
    ss = np.random.SeedSequence(master_seed, spawn_key=(scenario_index, iteration_index))
    return np.random.Generator(np.random.PCG64(ss))


def run_single_trial(spec: ScenarioSpec, master_seed: int,
                     scenario_index: int = 0, iteration_index: int = 0) -> Trial:
    return simulate_trial(spec, derive_rng(master_seed, scenario_index, iteration_index))


def _run_range(spec: ScenarioSpec, scenario_index: int, start: int, count: int,
               master_seed: int) -> TrialAccumulator:
    """Simulate and accumulate iterations ``start .. start+count-1``."""
    acc = TrialAccumulator()
    cohorts_max = spec.platform.cohorts_max
    for k in range(start, start + count):
        acc.add(k, simulate_trial(spec, derive_rng(master_seed, scenario_index, k)), cohorts_max)
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


def run_grid(specs: Sequence[ScenarioSpec], iterations: int, master_seed: int,
             workers: int | str | None = 1, scenario_index: int = 0,
             progress: Callable[[int, int], None] | None = None
             ) -> Iterator[OperatingCharacteristics]:
    """Simulate ``iterations`` trials of every scenario in ``specs`` and
    yield each scenario's OCs, in order, as soon as all its trials are in.

    Scenario ``i`` draws from stream index ``scenario_index + i``.  Results
    are identical for every ``workers`` value.  ``progress(done, total)``
    counts trials over the whole grid.  A failing chunk cancels the pending ones and shuts the pool
    down before its exception propagates.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    n_workers = resolve_workers(workers)
    chunk = max(1, iterations // (n_workers * 4))
    tasks = [(spec, scenario_index + i, start, min(chunk, iterations - start), master_seed)
             for i, spec in enumerate(specs) for start in range(0, iterations, chunk)]
    plan_for.cache_clear()  # each run starts cold, and before any fork, so every worker does
    pool = ProcessPoolExecutor(max_workers=n_workers) if n_workers > 1 else None
    try:
        parts = (map if pool is None else pool.map)(_run_range, *zip(*tasks))
        done, total = 0, len(specs) * iterations
        acc = TrialAccumulator()
        for (_, _, start, count, _), part in zip(tasks, parts):
            acc.merge_in(part)
            done += count
            if progress is not None:
                progress(done, total)
            if start + count == iterations:
                yield acc.finalize()
                acc = TrialAccumulator()  # the finished scenario's parts are released
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_ocs(spec: ScenarioSpec, iterations: int, master_seed: int,
            workers: int | str | None = 1, scenario_index: int = 0,
            progress: Callable[[int, int], None] | None = None) -> OperatingCharacteristics:
    """Simulate ``iterations`` independent trials and aggregate them: the
    one-scenario case of :func:`run_grid`.

    The result is identical for every ``workers`` value; parallel workers
    only change wall-clock time.
    """
    (ocs,) = run_grid([spec], iterations, master_seed, workers, scenario_index, progress)
    return ocs
