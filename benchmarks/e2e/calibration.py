"""Machine-speed probe, and the normalisation of timings by it.

This box's speed wanders: a fixed kernel's cost moves by 10-25% in
phases of seconds to an hour (other tenants of the host), and every
pipeline stage moves with it. A raw wall-clock median over one 20 s run
therefore spreads ~20% between runs and drifts ~25% between two sets an
hour apart — as much as the largest bound the benchmark contract allows.

So each timed sample (scan, case, set-up) is bracketed by two runs of a
fixed ~20 ms kernel, and its duration is divided by how much slower than
``REFERENCE_S`` the kernel ran around it. End-to-end *time* metrics are
these reference-speed seconds; the raw wall-clock samples and the
slowdown factor stay in every record (``samples``,
``harness.machine_slowdown``, ``core.scan_s``). Measured over two sets of
ten runs per workload, the run-to-run spread of the latency median falls
from 11-16% raw to 8% normalised on session-image, 14-22% to 7-11% on
session-fem, 4-13% to 5% on serve-steady and 9-11% to 4-7% on
serve-newpatient, and the shift of the median between the sets from up to
17% to at most 9%. The kernel moves less than the program does when the
box slows down, so the correction is partial.

The kernel is single-threaded, reuses its buffers, and is timed in thread
CPU time, so load inside the guest (busy gateway workers) does not count
as machine slowness — only the host slowing the vCPU down does.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np
from scipy import sparse

#: The kernel's cost at this box's usual speed. Any constant would do for
#: comparing commits; this one keeps normalised seconds close to wall seconds.
REFERENCE_S = 0.020

@functools.cache
def _kernel_inputs():
    """Read-only inputs of the kernel, built once and shared by every probe."""
    rng = np.random.default_rng(0)
    n = 30_000
    matrix = sparse.csr_matrix(
        (rng.random(900_000), (rng.integers(0, n, 900_000), rng.integers(0, n, 900_000))),
        shape=(n, n),
    )
    x = rng.random(1_000_000)
    return x, rng.integers(0, len(x), 200_000), matrix, rng.random(n)


class SpeedProbe:
    """The fixed kernel with its own output buffers (one instance per thread)."""

    def __init__(self):
        self._x, self._idx, self._matrix, self._v = _kernel_inputs()
        self._out = np.empty_like(self._x)
        self._gather = np.empty(len(self._idx))

    def __call__(self) -> float:
        """Thread-CPU seconds of one kernel run: stream, gather, SpMV, bytecode."""
        t0 = time.thread_time()
        np.sqrt(self._x, out=self._out)
        np.add(self._out, self._x, out=self._out)
        np.take(self._x, self._idx, out=self._gather)
        for _ in range(10):
            self._matrix @ self._v
        total = 0
        for j in range(40_000):
            total += j
        return time.thread_time() - t0

    def settled(self, runs: int = 3) -> float:
        """Median of a few kernel runs: around a set-up, which has one reading
        on either side and no neighbouring sample to share one with."""
        return statistics.median(self() for _ in range(runs))


def slowdown(before: float, after: float) -> float:
    """Machine slowdown around a sample (1.0 = reference speed)."""
    return (before + after) / 2.0 / REFERENCE_S
