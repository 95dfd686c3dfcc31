"""Host-speed probe: scale timings to a host of fixed speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x in
phases that last from seconds to minutes, as neighbours load the
cores the benchmark shares.  A fixed probe (pure-Python dictionary and
sorting work plus small NumPy kernels, none of it from the program) runs
between timed operations, at most every :data:`PROBE_INTERVAL_S`.  Each
operation's host time is then scaled by ``PROBE_REFERENCE_MS`` over the
median probe time around it, which gives the time it would have taken
on a host where the probe takes ``PROBE_REFERENCE_MS``.  A change to the
program moves the operation but not the probe, so it moves the scaled
time by the same share as the raw one.

Work that runs on the worker pool loads every core, so it is scaled by
probes run on every worker at once (:meth:`HostSpeed.probe_pool`)
against their own reference, ``POOL_PROBE_REFERENCE_MS``.

The probe runs with the garbage collector off, so collector settings
the program changes do not reach it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from typing import List, Tuple

import numpy

#: A typical probe time on a 2-vCPU Intel Xeon VM (Python 3.11, NumPy
#: 2.4).  It only sets the scale every timing is reported in, and must
#: stay fixed for timings to compare across commits.
PROBE_REFERENCE_MS = 17.0
#: The same for :func:`interpreter_work` run on every worker of a
#: two-worker pool at once (on that VM, two at once ran 1.8x slower than
#: one alone).
POOL_PROBE_REFERENCE_MS = 26.0
#: Least time between two probes.
PROBE_INTERVAL_S = 0.25
#: Probes within this many seconds of an operation measure its host
#: speed; if fewer than :data:`NEAREST` do, the nearest ones are used.
#: One probe reads up to 15% off the next, as contention comes and goes
#: within tenths of a second; the median of the probes over ten seconds
#: follows the phases that last longer, which are what would move a
#: run's medians.
WINDOW_S = 5.0
NEAREST = 8

_RNG = numpy.random.default_rng(0)
_MATRIX = _RNG.random((128, 128))
_VECTOR = _RNG.random(32768)


def interpreter_work() -> None:
    """Fixed dictionary and sorting work."""
    table = {}
    for i in range(40000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    sorted(((i * 7919) % 10007, i) for i in range(8000))


def probe_work() -> None:
    """Fixed work mixing interpreter and NumPy time, as the program does."""
    interpreter_work()
    for __ in range(8):
        _MATRIX @ _MATRIX
    for __ in range(2):
        numpy.sort(_VECTOR)
        numpy.exp(_VECTOR).sum()


def timed_probe(work=probe_work) -> Tuple[float, float]:
    """Run ``work`` once; return its (start, end) host times.

    ``time.perf_counter`` reads the system-wide monotonic clock, so the
    times compare across processes, and a pool worker can run this.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return start, time.perf_counter()
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Probe times along a run, and timings scaled by them."""

    def __init__(self, reference_ms: float = PROBE_REFERENCE_MS):
        self.reference_ms = reference_ms
        #: (midpoint, seconds) of every probe, in time order.
        self.probes: List[Tuple[float, float]] = []
        probe_work()  # warm-up, not recorded

    def record(self, start: float, end: float) -> None:
        bisect.insort(self.probes, ((start + end) / 2, end - start))

    def probe(self) -> None:
        self.record(*timed_probe())

    def probe_pool(self, pool, workers: int) -> None:
        """Probe every worker of ``pool`` at once, as a job on the whole
        pool loads every core.  The probe leaves NumPy out: each worker
        runs its own BLAS threads, and at once they would oversubscribe
        the cores and measure that instead."""
        futures = [pool.submit(timed_probe, interpreter_work)
                   for __ in range(workers)]
        for future in futures:
            self.record(*future.result())

    def between_ops(self) -> None:
        """Probe if the last probe ran long enough ago."""
        if (not self.probes or time.perf_counter() - self.probes[-1][0]
                >= PROBE_INTERVAL_S):
            self.probe()

    def local_probe_s(self, start: float, end: float) -> float:
        """Median probe time around the interval ``[start, end]``."""
        times = [p[0] for p in self.probes]
        low = bisect.bisect_left(times, start - WINDOW_S)
        high = bisect.bisect_right(times, end + WINDOW_S)
        if high - low < NEAREST:
            distance = [max(start - t, t - end, 0.0) for t in times]
            nearest = sorted(range(len(times)), key=distance.__getitem__)
            chosen = nearest[:NEAREST]
        else:
            chosen = range(low, high)
        return statistics.median(self.probes[i][1] for i in chosen)

    def scaled(self, start: float, end: float) -> float:
        """Seconds ``[start, end]`` would take on the reference host."""
        return (end - start) * self.reference_ms / 1000.0 \
            / self.local_probe_s(start, end)

    def median_ms(self) -> float:
        return statistics.median(p[1] for p in self.probes) * 1000.0
