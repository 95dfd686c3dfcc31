"""Wall-time profilers: vision-kernel stages and kernel event kinds.

The simulator's *virtual* time is calibrated from the paper's tables
and never depends on how fast the host machine runs; the *real* time
spent computing is what the perf work optimizes.
:class:`StageProfiler` attributes that real wall time to named vision
stages (``sift.detect``, ``fisher.encode``, ``lsh.query``, ...) so
speedups are measured per kernel instead of asserted, and so a
regression in one stage cannot hide behind an improvement in another.
:class:`EventProfile` does the same for the event loop itself,
attributing callback wall time to event kinds (``Timeout._expire``,
a resumed generator such as ``Sidecar._dispatch_loop``, ...) when
``Simulator(profile=True)`` asks for it.

Design constraints:

* **Deterministic accounting** — counters are plain dicts keyed by
  stage name; two runs of the same workload produce the same call
  counts (durations naturally vary with the host).  Snapshots/deltas
  mirror :class:`repro.metrics.summary.CacheStats`.
* **Near-zero cost when disabled** — the ``stage`` context manager
  short-circuits before touching the clock, so production campaigns
  can leave profiler hooks in place.
* **No global mutable state** — there is no default profiler; every
  hook takes an explicit one (or none), so measurements are isolated.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional


@dataclass(frozen=True)
class StageRecord:
    """Immutable snapshot of one stage's accumulated cost."""

    calls: int = 0
    total_ns: int = 0

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def mean_ms(self) -> Optional[float]:
        if self.calls == 0:
            return None
        return self.total_ms / self.calls


@dataclass
class StageProfiler:
    """Accumulates wall time per named stage.

    Usage::

        profiler = StageProfiler()
        with profiler.stage("sift.describe"):
            descriptors = extractor.describe(image, keypoints)
        profiler.snapshot()["sift.describe"].total_ms

    Nested stages are allowed and accounted independently (the outer
    stage's time includes the inner stage's — reports should treat
    stages as a flat attribution, not a strict tree).
    """

    enabled: bool = True
    _calls: Dict[str, int] = field(default_factory=dict)
    _total_ns: Dict[str, int] = field(default_factory=dict)

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            elapsed = time.perf_counter_ns() - start
            self._calls[name] = self._calls.get(name, 0) + 1
            self._total_ns[name] = (self._total_ns.get(name, 0)
                                    + elapsed)

    def record(self, name: str, elapsed_ns: int) -> None:
        """Attribute an externally measured duration to ``name``."""
        if not self.enabled:
            return
        self._calls[name] = self._calls.get(name, 0) + 1
        self._total_ns[name] = (self._total_ns.get(name, 0)
                                + int(elapsed_ns))

    def snapshot(self) -> Dict[str, StageRecord]:
        """Immutable copy of every stage's counters, sorted by name."""
        return {name: StageRecord(calls=self._calls[name],
                                  total_ns=self._total_ns[name])
                for name in sorted(self._calls)}

    def reset(self) -> None:
        self._calls.clear()
        self._total_ns.clear()

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready view: {stage: {calls, total_ms, mean_ms}}."""
        return {name: {"calls": record.calls,
                       "total_ms": record.total_ms,
                       "mean_ms": record.mean_ms}
                for name, record in self.snapshot().items()}


class EventProfile:
    """Per-event-kind counts and wall time from the simulator loop.

    Opt-in via ``Simulator(profile=True)``: the kernel's profiled loop
    wraps every callback in a ``perf_counter_ns`` pair and attributes
    the elapsed time to the event's *kind*: the callback's qualified
    name (the label the trace digest hashes), except that a process
    resume is named after the generator it resumes.  A resume the
    kernel runs in place, inside the timeout expiry that woke it, is
    timed on its own under that same generator name and taken out of
    the expiry's time.  The result says where campaign wall-clock
    actually goes — timer expiries vs the sidecar's dispatch loop vs a
    service's delivery handler — so the next kernel optimization is
    measured, not guessed.

    Profiling is purely observational: it schedules no events, draws
    no RNG and never touches the digest, so fingerprints with the
    profiler on are byte-identical to fingerprints with it off
    (asserted by ``tests/test_sim_kernel.py``).  Counts are exact and
    deterministic; durations naturally vary with the host.
    """

    __slots__ = ("_calls", "_total_ns", "events", "in_place",
                 "in_place_ns")

    def __init__(self) -> None:
        self._calls: Dict[str, int] = {}
        self._total_ns: Dict[str, int] = {}
        #: Events the kernel executed (each also a trace record).
        self.events = 0
        #: Resumes run in place inside another event, and their time.
        self.in_place = 0
        self.in_place_ns = 0

    def _add(self, kind: str, elapsed_ns: int) -> None:
        calls = self._calls
        calls[kind] = calls.get(kind, 0) + 1
        total = self._total_ns
        total[kind] = total.get(kind, 0) + elapsed_ns

    def record(self, kind: str, elapsed_ns: int) -> None:
        """Attribute one executed event's wall time to ``kind``."""
        self._add(kind, elapsed_ns)
        self.events += 1

    def record_in_place(self, kind: str, elapsed_ns: int) -> None:
        """Attribute one in-place resume's wall time to ``kind``."""
        self._add(kind, elapsed_ns)
        self.in_place += 1
        self.in_place_ns += elapsed_ns

    @property
    def total_ms(self) -> float:
        """Wall time spent inside event callbacks, in milliseconds."""
        return sum(self._total_ns.values()) / 1e6

    def snapshot(self) -> Dict[str, StageRecord]:
        """Immutable per-kind records, sorted by name."""
        return {kind: StageRecord(calls=self._calls[kind],
                                  total_ns=self._total_ns[kind])
                for kind in sorted(self._calls)}

    def top(self, n: int = 10) -> Dict[str, StageRecord]:
        """The ``n`` costliest kinds by accumulated wall time."""
        ranked = sorted(self._calls,
                        key=lambda kind: (-self._total_ns[kind], kind))
        return {kind: StageRecord(calls=self._calls[kind],
                                  total_ns=self._total_ns[kind])
                for kind in ranked[:n]}

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view for ``ExperimentResult.event_profile``."""
        total_ns = sum(self._total_ns.values())
        kinds = {}
        for kind, record in self.snapshot().items():
            share = (record.total_ns / total_ns) if total_ns else 0.0
            kinds[kind] = {"calls": record.calls,
                           "total_ms": record.total_ms,
                           "mean_ms": record.mean_ms,
                           "share": share}
        return {"events": self.events,
                "in_place": self.in_place,
                "total_ms": total_ns / 1e6,
                "kinds": kinds}
