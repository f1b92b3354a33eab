"""Span recorder for the traced benchmark run.

The recorder replaces module attributes of the package's public names with
wrappers that record one span per call: name, start, end and the span that
was open when the call began.  Spans stay in memory and are written out only
when the run ends.  A layer's self time is its span's duration minus the
part of that interval its child spans cover.

Pool workers that are forked from a traced process inherit the wrappers.
Each of them starts an empty span list and writes it to ``child_dir`` when
the worker exits, so the parent can merge the workers' spans after the pool
has shut down.  Workers that are not forked (spawn, forkserver) import the
package afresh and record nothing.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict
from multiprocessing import util as mp_util

#: (module attribute, span name).  A name patched at several call sites
#: records under one span name.
TRACED = (
    ("runner.run_ocs", "runner.run_ocs"),
    ("cli.run_ocs", "runner.run_ocs"),
    ("runner.derive_rng", "runner.derive_rng"),
    ("runner.simulate_trial", "engine.simulate_trial"),
    ("engine.assemble_analysis_data", "engine.assemble_analysis_data"),
    ("engine.evaluate_cohort", "decisions.evaluate_cohort"),
    ("engine.draw_cohort_truth", "efficacy.draw_cohort_truth"),
    ("engine.one_sided_prop_test", "stats.one_sided_prop_test"),
    ("decisions.one_sided_prop_test", "stats.one_sided_prop_test"),
    ("decisions.prob_greater_by_margin", "stats.prob_greater_by_margin"),
    ("ocs.summarize_trial", "ocs.summarize_trial"),
    ("ocs.TrialAccumulator.finalize", "ocs.finalize"),
    ("reporting.write_ocs_csv", "reporting.write"),
    ("reporting.write_ocs_json", "reporting.write"),
    ("reporting.write_manifest", "reporting.write"),
    ("config.load_scenario", "config.load_scenario"),
    ("cli.load_scenario", "config.load_scenario"),
    ("config.validate", "config.validate"),
    ("cli.validate", "config.validate"),
    ("config.expand_grid", "config.expand_grid"),
    ("cli.expand_grid", "config.expand_grid"),
)


class Recorder:
    """In-memory spans of one process, plus counts taken at the same calls."""

    def __init__(self, child_dir: str | None = None):
        self.child_dir = child_dir
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.kernel_args: set = set()
        self._saved: list = []

    # --- recording ----------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` wrapped so that each call records a span ``name``;
        ``after(recorder, args, result)`` runs once the span has closed."""
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # --- installation -------------------------------------------------------

    def install(self, modules: dict) -> None:
        """Patch every attribute in TRACED; ``modules`` maps the first path
        component to the imported module."""
        for path, name in TRACED:
            head, *mid, attr = path.split(".")
            owner = modules[head]
            for part in mid:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, _AFTER.get(name)))
        if self.child_dir is not None:
            mp_util.register_after_fork(self, Recorder._start_child)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- forked pool workers -----------------------------------------------

    def _start_child(self) -> None:
        # runs in a freshly forked worker: forget the parent's spans and
        # write this worker's own spans when it exits
        for seq in (self.names, self.starts, self.ends, self.parents, self._stack):
            seq.clear()
        self.counts.clear()
        self.kernel_args.clear()
        mp_util.Finalize(None, self._write_child, exitpriority=100)

    def _write_child(self) -> None:
        path = os.path.join(self.child_dir, f"spans-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans(), "counts": dict(self.counts),
                       "kernel_args": sorted(self.kernel_args)}, fh)

    def child_records(self) -> list[dict]:
        """Span files the pool workers wrote, in a fixed order."""
        if self.child_dir is None or not os.path.isdir(self.child_dir):
            return []
        out = []
        for fname in sorted(os.listdir(self.child_dir)):
            if fname.startswith("spans-") and fname.endswith(".json"):
                with open(os.path.join(self.child_dir, fname), encoding="utf-8") as fh:
                    out.append(json.load(fh))
        return out


def _after_kernel(rec: Recorder, args, result) -> None:
    x, y, delta = args
    rec.kernel_args.add((float(x.alpha), float(x.beta), float(y.alpha), float(y.beta),
                         float(delta)))


def _after_cohort(rec: Recorder, args, decision) -> None:
    rec.counts[f"decisions.verdict.{decision.stage}.{decision.verdict}"] += 1


def _after_trial(rec: Recorder, args, result) -> None:
    rec.counts["engine.patients"] += result.total_n


_AFTER = {
    "stats.prob_greater_by_margin": _after_kernel,
    "decisions.evaluate_cohort": _after_cohort,
    "engine.simulate_trial": _after_trial,
}


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its direct
    children's intervals, clipped to the span.  ``spans`` holds
    ``(name, start, end, parent index)`` with parent -1 for a root."""
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(start, spans[j][1]), min(end, spans[j][2]))
                             for j in children.get(i, ())):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(span_groups) -> dict:
    """Per span name: calls, total (inclusive) seconds and self seconds, over
    several processes' span lists."""
    out: dict[str, dict] = {}
    for spans in span_groups:
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += own
    return out
