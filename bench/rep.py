"""One repetition of a benchmark workload.

A repetition is a child forked from a process that has imported the
package and loaded the workload's scenarios, but has never simulated: so
every repetition starts with the cold caches a user has after start-up,
without paying the interpreter start each time.  The child runs one
measured call, optionally with the public names in ``tracing.TRACED``
wrapped, and sends one JSON document back through a pipe.

Run as a script, this file measures set-up in a fresh interpreter instead:

    python3 bench/rep.py --workload NAME

prints ``{"setup_s": ...}``, the time to import the package and
``load_scenario``, ``validate`` and, for the grid, ``expand_grid``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
import traceback

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: a sample of the kernel's distinct arguments goes to the accuracy probe
PROBE_SAMPLE = 12

#: per-trial work, the busy time of a worker
TRIAL_WORK = ("runner.derive_rng", "engine.simulate_trial", "ocs.summarize_trial")


class RepFailed(RuntimeError):
    pass


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(dirpath, f))
    return total


def _install_recorder(child_dir: str):
    import tracing
    from platformsim import cli, config, decisions, engine, ocs, reporting, runner

    recorder = tracing.Recorder(child_dir)
    recorder.install({"cli": cli, "config": config, "decisions": decisions,
                      "engine": engine, "ocs": ocs, "reporting": reporting,
                      "runner": runner})
    return recorder


def layer_metrics(recorder, call_wall: float, workers: int, out_bytes: int) -> dict:
    """Per-layer numbers of one traced call, from the process's own spans
    and those its forked pool workers wrote."""
    import tracing

    children = recorder.child_records()
    groups = [recorder.spans()] + [c["spans"] for c in children]
    per = tracing.summarize(groups)
    counts = dict(recorder.counts)
    kernel_args = set(recorder.kernel_args)
    for c in children:
        for k, v in c["counts"].items():
            counts[k] = counts.get(k, 0) + v
        kernel_args.update(tuple(a) for a in c["kernel_args"])

    def get(name, field):
        return per.get(name, {}).get(field, 0)

    m = {}
    for name in ("engine.simulate_trial", "engine.assemble_analysis_data",
                 "stats.prob_greater_by_margin", "stats.one_sided_prop_test",
                 "decisions.evaluate_cohort", "efficacy.draw_cohort_truth"):
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.self_s"] = get(name, "self_s")
    for name in ("ocs.summarize_trial", "ocs.finalize", "runner.derive_rng"):
        m[f"{name}.self_s"] = get(name, "self_s")
    capacity = workers * call_wall
    m["engine.simulate_trial.self_share"] = m["engine.simulate_trial.self_s"] / capacity
    m["stats.prob_greater_by_margin.self_share"] = \
        m["stats.prob_greater_by_margin.self_s"] / capacity
    patients = counts.get("engine.patients", 0)
    m["engine.patients"] = patients
    m["engine.us_per_patient"] = (1e6 * m["engine.simulate_trial.self_s"] / patients
                                  if patients else 0.0)
    calls = m["stats.prob_greater_by_margin.calls"]
    m["stats.prob_greater_by_margin.us_per_call"] = (
        1e6 * m["stats.prob_greater_by_margin.self_s"] / calls if calls else 0.0)
    m["stats.prob_greater_by_margin.distinct_args"] = len(kernel_args)
    m["stats.prob_greater_by_margin.repeat_share"] = (
        1.0 - len(kernel_args) / calls if calls else 0.0)
    for key, value in counts.items():
        if key.startswith("decisions.verdict."):
            m[key] = value
    run_wall = get("runner.run_ocs", "total_s")
    busy = sum(get(name, "total_s") for name in TRIAL_WORK)
    m["runner.run_ocs.wall_s"] = run_wall
    m["runner.worker_busy_s"] = busy
    m["runner.pool_idle_share"] = 1.0 - busy / (workers * run_wall) if run_wall else 0.0
    m["reporting.write_s"] = get("reporting.write", "total_s")
    m["reporting.bytes_written"] = out_bytes
    # set-up happens in this process; pool workers re-validate every task
    # they receive, which is pool cost, not set-up
    own = tracing.summarize([recorder.spans()])
    for name in ("config.load_scenario", "config.validate", "config.expand_grid"):
        m[f"{name}.s"] = own.get(name, {}).get("total_s", 0.0)
    sample = sorted(kernel_args)
    if len(sample) > PROBE_SAMPLE:
        step = len(sample) / PROBE_SAMPLE
        sample = [sample[int(k * step)] for k in range(PROBE_SAMPLE)]
    return {"metrics": m, "probe_sample": sample}


def _child(name: str, specs: list, master_seed: int, scratch: str, trace: bool,
           digest: bool, workers: int | None) -> dict:
    out_dir = os.path.join(scratch, "out")
    os.makedirs(out_dir, exist_ok=True)
    recorder = None
    if trace:
        child_dir = os.path.join(scratch, "spans")
        os.makedirs(child_dir, exist_ok=True)
        recorder = _install_recorder(child_dir)
        if workloads.WORKLOADS[name]["kind"] == "run_ocs":
            specs = workloads.load_specs(name, ROOT)  # traced set-up; the CLI does its own
    t = time.perf_counter()
    res = workloads.run_call(name, ROOT, specs, master_seed, out_dir, workers=workers,
                             iterations=workloads.DIGEST_ITERATIONS[name] if digest else None,
                             write_ocs_json=digest)
    wall = time.perf_counter() - t
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    trials = sum(int(row["iterations"]) for row in res["rows"].values())
    patients = sum(row["Avg_Pat"] * row["iterations"] for row in res["rows"].values())
    doc = {"master_seed": master_seed, "wall_s": wall, "trials": trials,
           "patients": patients, "rss_mb": own, "rss_children_mb": pool,
           "rows": res["rows"]}
    if digest:
        with open(res["file"], "rb") as fh:
            doc["sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if recorder is not None:
        recorder.uninstall()
        w = workloads.WORKLOADS[name]["workers"] if workers is None else workers
        doc["trace"] = layer_metrics(recorder, wall, w, _dir_bytes(out_dir))
    return doc


def run_forked(name: str, specs: list, master_seed: int, scratch: str, timeout: float, *,
               trace: bool = False, digest: bool = False, workers: int | None = None) -> dict:
    """Fork one repetition, wait for it and return its document.

    The child leads its own process group, so a repetition that overruns
    ``timeout`` is killed together with its pool workers.  Raises
    RepFailed if the child fails or times out.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        os.close(read_fd)
        code = 0
        try:
            os.setpgid(0, 0)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)  # the CLI's progress lines
            os.dup2(devnull, 2)
            payload = json.dumps(_child(name, specs, master_seed, scratch, trace,
                                        digest, workers))
        except BaseException:
            payload = json.dumps({"error": traceback.format_exc()})
            code = 1
        try:
            with os.fdopen(write_fd, "w") as fh:
                fh.write(payload)
        finally:
            os._exit(code)

    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except (PermissionError, ProcessLookupError):
        pass  # the child has set it already, or has exited
    chunks = []
    deadline = time.monotonic() + timeout
    timed_out = False
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fh], [], [], left)[0]:
                timed_out = True
                break
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    if timed_out:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    _, status = os.waitpid(pid, 0)
    if timed_out:
        raise RepFailed(f"repetition timed out after {timeout:.0f} s")
    try:
        doc = json.loads(b"".join(chunks) or b"{}")
    except ValueError:
        doc = {"error": "unreadable output"}
    if os.waitstatus_to_exitcode(status) != 0 or "error" in doc or not doc:
        tail = "\n".join(doc.get("error", "no output").strip().splitlines()[-4:])
        raise RepFailed(f"repetition failed (status {status}):\n{tail}")
    return doc


def measure_setup(name: str, timeout: float) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name],
                         cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if out.returncode != 0:
        raise RepFailed(f"set-up failed:\n{out.stderr.strip()[-400:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="set-up time in a fresh interpreter")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    workloads.require_checkout(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import platformsim
    workloads.load_specs(args.workload, ROOT)
    setup_s = time.perf_counter() - t0
    if not platformsim.__file__.startswith(os.path.join(ROOT, "src")):
        raise RuntimeError(f"imported {platformsim.__file__}, not this checkout's package")
    print(json.dumps({"setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
