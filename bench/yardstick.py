"""Calibration loop that measures how fast the machine is right now.

On a shared host the same work can take up to twice as long for minutes on
end, because other tenants load the same physical cores.  Raw wall-clock
rates then spread by 20-35% from run to run.  The benchmark therefore runs
this fixed loop before and after every repetition, in the same process
setting as the repetition, and scales each wall-clock measurement by
``REFERENCE_S / loop time``.  Time-based metrics are so reported in seconds
of a machine running the loop in ``REFERENCE_S``.

The loop mixes the two kinds of work the simulator does: interpreted
Python (integer arithmetic, dict stores) and small NumPy/SciPy vector calls.
It imports nothing from the package under test, so a change to the package
cannot move it.  Changing the loop or ``REFERENCE_S`` changes every
time-based metric and needs a fresh baseline.
"""

from __future__ import annotations

import os
import time

import numpy as np
from scipy import special

#: loop time on an idle 2-vCPU Intel Xeon (Sapphire Rapids) KVM guest,
#: Python 3.11, NumPy 2.4, SciPy 1.17
REFERENCE_S = 0.19

_X = np.linspace(0.01, 0.99, 64)


def _loop() -> float:
    t = time.perf_counter()
    acc = 0
    table = {}
    for i in range(1_800_000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    for i in range(3600):
        special.betainc(3.0 + i % 5, 7.0, _X).sum()
    return time.perf_counter() - t


def slowdown(cpus) -> float:
    """Loop time over REFERENCE_S, averaged over ``cpus``.  The loop runs on
    all of them at once, one forked process pinned to each, so that it sees
    the machine as a call that keeps all of them busy does."""
    pids = {}
    for cpu in sorted(cpus):
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child
            code = 0
            try:
                os.close(read_fd)
                os.sched_setaffinity(0, {cpu})
                os.write(write_fd, repr(_loop()).encode())
            except BaseException:
                code = 1
            finally:
                os._exit(code)
        os.close(write_fd)
        pids[pid] = read_fd
    times = []
    for pid, read_fd in pids.items():
        with os.fdopen(read_fd, "rb") as fh:
            out = fh.read()
        _, status = os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status) != 0 or not out:
            raise RuntimeError("calibration loop failed")
        times.append(float(out))
    return sum(times) / len(times) / REFERENCE_S
