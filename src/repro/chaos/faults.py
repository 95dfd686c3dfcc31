"""The fault taxonomy: what can go wrong, as schedulable events.

Edge AR deployments live close to overload (Ben-Ameur et al.), where
failures are rarely the clean crash of textbook fault tolerance.  The
plan language below covers the modes the resilience layer must be
measured against:

* :class:`InstanceCrash` — one replica hard-dies; nobody is told.
* :class:`NodeFailure` — a whole machine goes down (every replica on
  it crashes, the scheduler stops placing there) and optionally
  rejoins later.
* :class:`NetworkPartition` — links crossing a node-group cut drop
  everything until the heal event.
* :class:`DegradationBurst` — a link turns bad (extra latency and/or
  loss via :class:`~repro.net.netem.Netem`) for a window: the mobile
  handover / congestion case.
* :class:`GrayFailure` — a replica silently slows by a factor while
  still acking health probes: visible to clients, invisible to the
  failure detector.

A :class:`FaultPlan` is an ordered bag of these, attachable to any
experiment or benchmark through
:class:`~repro.chaos.injector.FaultInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.netem import Netem


@dataclass(frozen=True)
class InstanceCrash:
    """Hard-kill one replica of ``service`` at ``at_s``."""

    at_s: float
    service: str
    #: Which replica (index into the live replica list, modulo size).
    replica: int = 0


@dataclass(frozen=True)
class NodeFailure:
    """Crash every replica on ``node`` and take it out of scheduling.

    With ``duration_s`` set, the node rejoins (becomes schedulable
    again) after the window; instances do not resurrect — the
    orchestrator must redeploy them.
    """

    at_s: float
    node: str
    duration_s: Optional[float] = None


@dataclass(frozen=True)
class NetworkPartition:
    """Blackhole all links between two node groups for a window."""

    at_s: float
    duration_s: float
    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]


@dataclass(frozen=True)
class DegradationBurst:
    """Apply a :class:`Netem` profile to a link for a window."""

    at_s: float
    duration_s: float
    src: str
    dst: str
    netem: Netem
    symmetric: bool = True


@dataclass(frozen=True)
class GrayFailure:
    """Silently slow one replica of ``service`` by ``slowdown``×.

    The replica keeps acking health probes, so the failure detector
    never fires — only client-observed latency (and the circuit
    breaker) reveal it.
    """

    at_s: float
    duration_s: float
    service: str
    slowdown: float = 4.0
    replica: int = 0

    def __post_init__(self) -> None:
        if self.slowdown <= 1.0:
            raise ValueError(
                f"slowdown must be > 1, got {self.slowdown}")


Fault = Union[InstanceCrash, NodeFailure, NetworkPartition,
              DegradationBurst, GrayFailure]

#: Fault kinds whose recovery requires a redeploy (MTTR applies).
CRASH_KINDS = (InstanceCrash, NodeFailure)


@dataclass
class FaultPlan:
    """An ordered schedule of faults for one run."""

    faults: List[Fault] = field(default_factory=list)

    def __post_init__(self) -> None:
        for fault in self.faults:
            if fault.at_s < 0:
                raise ValueError(
                    f"fault times must be non-negative, got {fault}")

    def add(self, fault: Fault) -> "FaultPlan":
        if fault.at_s < 0:
            raise ValueError(
                f"fault times must be non-negative, got {fault}")
        self.faults.append(fault)
        return self

    def sorted_faults(self) -> List[Fault]:
        return sorted(self.faults, key=lambda f: f.at_s)

    def __len__(self) -> int:
        return len(self.faults)

    # ------------------------------------------------------------------
    # Generators for sweeps
    # ------------------------------------------------------------------
    @classmethod
    def random_crashes(cls, *, services: Sequence[str], count: int,
                       start_s: float, end_s: float,
                       rng: np.random.Generator) -> "FaultPlan":
        """``count`` instance crashes uniform over ``[start_s, end_s)``.

        Deterministic for a given generator state — the fault-intensity
        axis of ``bench_resilience``.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if not services:
            raise ValueError("need at least one service to crash")
        if end_s <= start_s:
            raise ValueError(
                f"need start_s < end_s, got {start_s} / {end_s}")
        times = np.sort(rng.uniform(start_s, end_s, size=count))
        picks = rng.integers(0, len(services), size=count)
        return cls([InstanceCrash(at_s=float(t),
                                  service=services[int(i)])
                    for t, i in zip(times, picks)])
