"""Resilience metrics: MTTR, availability, degradation accounting.

Joins three event streams produced during a chaos run —

* the injector's :class:`~repro.chaos.injector.FaultWindow` log
  (*when did what break*),
* the failure detector's :class:`~repro.orchestra.health.HealthEvent`
  log (*when was it noticed*), and
* the orchestrator's ``redeploy_events`` (*when was it repaired*)

— into per-fault :class:`FaultRecovery` records and an aggregate
:class:`ResilienceReport` that the experiment runner attaches to its
:class:`~repro.experiments.runner.ExperimentResult`.

Definitions:

* **Detection latency** — injection to the detector's DEAD transition.
* **MTTR** — injection to the replacement instance being deployed
  (mean over crash-kind faults; partitions and gray failures recover
  by themselves, so they carry a window duration instead).
* **Availability** — fraction of sent frames answered by anything
  (pipeline result *or* local fallback), from
  :meth:`~repro.metrics.qos.ClientStats.availability`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chaos.faults import CRASH_KINDS, InstanceCrash, NodeFailure
from repro.chaos.injector import FaultInjector, FaultWindow
from repro.experiments.reporting import format_table
from repro.metrics.qos import ClientStats
from repro.orchestra.health import FailureDetector, HealthState
from repro.orchestra.orchestrator import Orchestrator


@dataclass
class FaultRecovery:
    """One crash-kind fault joined with its detection and repair."""

    kind: str
    detail: str
    injected_s: float
    #: Detector DEAD transition; ``None`` when never detected (e.g.
    #: the run ended first).
    detected_s: Optional[float] = None
    #: Replacement deployed; ``None`` when never repaired.
    redeployed_s: Optional[float] = None

    @property
    def detection_latency_s(self) -> Optional[float]:
        if self.detected_s is None:
            return None
        return self.detected_s - self.injected_s

    @property
    def mttr_s(self) -> Optional[float]:
        if self.redeployed_s is None:
            return None
        return self.redeployed_s - self.injected_s


@dataclass
class ResilienceReport:
    """Aggregate resilience outcome of one chaos run."""

    recoveries: List[FaultRecovery] = field(default_factory=list)
    #: Non-crash fault windows (partitions, bursts, gray failures).
    transient_windows: List[FaultWindow] = field(default_factory=list)
    frames_sent: int = 0
    frames_received: int = 0
    frames_degraded: int = 0
    retries: int = 0
    timeouts: int = 0
    breaker_trips: int = 0
    breaker_open_s: float = 0.0
    #: Merged per-client breaker transition logs.
    breaker_timeline: List[Tuple[float, int, str]] = field(
        default_factory=list)
    redeploy_count: int = 0
    health_events: List[Tuple[float, str, str]] = field(
        default_factory=list)

    # ------------------------------------------------------------------
    @property
    def frames_lost(self) -> int:
        return (self.frames_sent - self.frames_received
                - self.frames_degraded)

    def availability(self) -> float:
        if not self.frames_sent:
            return 0.0
        return (self.frames_received
                + self.frames_degraded) / self.frames_sent

    def success_rate(self) -> float:
        if not self.frames_sent:
            return 0.0
        return self.frames_received / self.frames_sent

    def degraded_rate(self) -> float:
        if not self.frames_sent:
            return 0.0
        return self.frames_degraded / self.frames_sent

    def mean_mttr_s(self) -> float:
        values = [r.mttr_s for r in self.recoveries
                  if r.mttr_s is not None]
        return float(np.mean(values)) if values else 0.0

    def mean_detection_latency_s(self) -> float:
        values = [r.detection_latency_s for r in self.recoveries
                  if r.detection_latency_s is not None]
        return float(np.mean(values)) if values else 0.0

    def unrecovered_faults(self) -> int:
        return sum(1 for r in self.recoveries if r.redeployed_s is None)

    # ------------------------------------------------------------------
    def summary_table(self) -> str:
        return format_table(
            ["metric", "value"],
            [["availability", self.availability()],
             ["success rate", self.success_rate()],
             ["degraded rate", self.degraded_rate()],
             ["frames lost", self.frames_lost],
             ["mean MTTR (s)", self.mean_mttr_s()],
             ["mean detection (s)", self.mean_detection_latency_s()],
             ["redeploys", self.redeploy_count],
             ["breaker trips", self.breaker_trips],
             ["breaker open (s)", self.breaker_open_s],
             ["retries", self.retries],
             ["timeouts", self.timeouts]])


def build_resilience_report(
        *, injector: Optional[FaultInjector] = None,
        detector: Optional[FailureDetector] = None,
        orchestrator: Optional[Orchestrator] = None,
        clients: Sequence[object] = (),
        client_stats: Sequence[ClientStats] = ()) -> ResilienceReport:
    """Join injector/detector/orchestrator/client logs into a report.

    ``clients`` are :class:`~repro.scatter.client.ArClient` objects
    (their breakers and stats are both read); ``client_stats`` admits
    bare :class:`ClientStats` when no client objects survive the run.
    """
    report = ResilienceReport()

    stats = [c.stats for c in clients] + list(client_stats)
    for s in stats:
        report.frames_sent += s.frames_sent
        report.frames_received += s.frames_received
        report.frames_degraded += s.frames_degraded
        report.retries += s.retries
        report.timeouts += s.timeouts
    for client in clients:
        breaker = getattr(client, "breaker", None)
        if breaker is None:
            continue
        report.breaker_trips += breaker.trips
        report.breaker_open_s += breaker.open_time_s()
        report.breaker_timeline.extend(
            (t, client.client_id, state.value)
            for t, state in breaker.timeline)
    report.breaker_timeline.sort()

    if orchestrator is not None:
        report.redeploy_count = orchestrator.redeploy_count

    dead_events: List[Tuple[float, str]] = []
    if detector is not None:
        report.health_events = [
            (e.timestamp_s, e.service, e.state.value)
            for e in detector.events]
        dead_events = [(e.timestamp_s, e.service)
                       for e in detector.events
                       if e.state is HealthState.DEAD]
    redeploys: List[Tuple[float, str]] = (
        list(orchestrator.redeploy_events)
        if orchestrator is not None else [])

    if injector is not None:
        used_dead: set = set()
        used_redeploy: set = set()
        for window in injector.windows:
            if not isinstance(window.fault, CRASH_KINDS):
                report.transient_windows.append(window)
                continue
            recovery = FaultRecovery(
                kind=window.kind, detail=window.detail,
                injected_s=window.started_s)
            services = _affected_services(window, orchestrator)
            recovery.detected_s = _first_match(
                dead_events, used_dead, window.started_s, services)
            recovery.redeployed_s = _first_match(
                redeploys, used_redeploy, window.started_s, services)
            report.recoveries.append(recovery)
    return report


def _affected_services(window: FaultWindow,
                       orchestrator: Optional[Orchestrator]
                       ) -> Optional[List[str]]:
    """Services a crash window can account for (None = any)."""
    fault = window.fault
    if isinstance(fault, InstanceCrash):
        return [fault.service]
    if isinstance(fault, NodeFailure):
        # The victims are gone by reporting time; accept any service.
        return None
    return None


def _first_match(events: List[Tuple[float, str]], used: set,
                 after_s: float,
                 services: Optional[List[str]]) -> Optional[float]:
    """Earliest unconsumed event at/after ``after_s`` for a service."""
    for index, (timestamp, service) in enumerate(events):
        if index in used or timestamp < after_s:
            continue
        if services is not None and service not in services:
            continue
        used.add(index)
        return timestamp
    return None
