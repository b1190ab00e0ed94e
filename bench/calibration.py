"""Host-speed calibration for the end-to-end times.

The benchmark runs on shared hosts whose speed changes by tens of percent
over a few seconds (a job that takes 0.15 s in one phase takes 0.25 s in the
next, on an otherwise idle 2-vCPU VM).  A run measures a fixed
calibration pass before the first job and after every job, and scales each
job's wall time by ``CALIBRATION_S / calibration time around that job``.
End-to-end times are therefore seconds at the host speed on which one pass
took ``CALIBRATION_S``; the raw wall times are printed beside them.  The
pass is the benchmark's own code, so no change to mimm can move it.
"""

from __future__ import annotations

import time

import numpy as np

# one pass on the baseline host (2-vCPU x86_64 VM) in a quiet phase
CALIBRATION_S = 0.00055
PASS_REPEATS = 3

_VECTOR = np.random.default_rng(0).standard_normal(4096)
_ROWS = [tuple(row) for row in np.random.default_rng(1).standard_normal((64, 2))]


def _work() -> float:
    """Interpreter-bound loop over tuples plus small in-cache numpy calls,
    the two kinds of work mimm's fits are made of."""
    acc = 0.0
    for i in range(3000):
        row = _ROWS[i & 63]
        acc += row[0] * row[1]
    for _ in range(50):
        acc += float(_VECTOR @ _VECTOR)
        acc += float(np.exp(-_VECTOR[:64]).sum())
    return acc


def measure() -> float:
    """Seconds for one calibration pass: the fastest of PASS_REPEATS."""
    best = float("inf")
    for _ in range(PASS_REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, before: float, after: float) -> float:
    """Wall seconds at the calibration host speed."""
    return seconds * CALIBRATION_S / (0.5 * (before + after))
