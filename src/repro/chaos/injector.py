"""Drives a :class:`~repro.chaos.faults.FaultPlan` against a live run.

The injector is a sim process: it sleeps until each fault's ``at_s``,
applies it, and (for windowed faults) schedules the heal.  Faults act
on the *data plane only* — an :class:`InstanceCrash` unbinds the
victim's socket without telling the orchestrator, so recovery must go
through honest detection (heartbeat silence) rather than the seed's
read-the-remote-container-state shortcut.

Every application and heal is logged as a :class:`FaultWindow`;
:mod:`repro.metrics.resilience` joins these against the failure
detector's events and the orchestrator's redeploy log to compute
per-fault MTTR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.chaos.faults import (
    DegradationBurst,
    Fault,
    FaultPlan,
    GrayFailure,
    InstanceCrash,
    NetworkPartition,
    NodeFailure,
)
from repro.dsp.operator import StreamService
from repro.orchestra.orchestrator import Orchestrator


class ChaosError(RuntimeError):
    """Raised when a fault cannot be applied (unknown node/service)."""


@dataclass
class FaultWindow:
    """One applied fault: when it started, when (if) it healed."""

    fault: Fault
    started_s: float
    ended_s: Optional[float] = None
    #: Human-readable note (victim address, links cut, ...).
    detail: str = ""

    @property
    def kind(self) -> str:
        return type(self.fault).__name__


class FaultInjector:
    """Applies a fault plan to an orchestrated deployment."""

    def __init__(self, orchestrator: Orchestrator, plan: FaultPlan):
        self.orchestrator = orchestrator
        self.sim = orchestrator.sim
        self.network = orchestrator.testbed.network
        self.plan = plan
        self.windows: List[FaultWindow] = []
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.spawn(self._driver(), name="fault-injector")

    def _driver(self):
        for fault in self.plan.sorted_faults():
            wait = fault.at_s - self.sim.now
            if wait > 0:
                yield self.sim.timeout(wait)
            self._apply(fault)

    # ------------------------------------------------------------------
    def _apply(self, fault: Fault) -> None:
        if isinstance(fault, InstanceCrash):
            self._apply_instance_crash(fault)
        elif isinstance(fault, NodeFailure):
            self._apply_node_failure(fault)
        elif isinstance(fault, NetworkPartition):
            self._apply_partition(fault)
        elif isinstance(fault, DegradationBurst):
            self._apply_degradation(fault)
        elif isinstance(fault, GrayFailure):
            self._apply_gray(fault)
        else:  # pragma: no cover - taxonomy is closed
            raise ChaosError(f"unknown fault kind {fault!r}")

    def _log(self, fault: Fault, detail: str = "") -> FaultWindow:
        window = FaultWindow(fault=fault, started_s=self.sim.now,
                             detail=detail)
        self.windows.append(window)
        return window

    def _close(self, window: FaultWindow) -> None:
        window.ended_s = self.sim.now

    # ------------------------------------------------------------------
    # Individual fault kinds
    # ------------------------------------------------------------------
    def _pick_victim(self, service: str,
                     replica: int) -> Optional[StreamService]:
        """A live replica to fault, or ``None`` when there is none.

        Mid-handover a replica can be *deregistered but
        not stopped* (draining) or already retired from the live set;
        a fault landing in that window must neither raise nor crash a
        ghost.  Replicas still carrying traffic (registered) are
        preferred; a draining-only replica set is still faultable.
        """
        instances = self.orchestrator.instances(service)
        live = [i for i in instances if i.is_running()]
        if not live:
            return None
        registered = set(
            self.orchestrator.registry.instances(service))
        preferred = [i for i in live if i.address in registered]
        candidates = preferred if preferred else live
        return candidates[replica % len(candidates)]

    def _skip(self, fault: Fault, service: str) -> None:
        """Log a fault that found no live victim (not an error: the
        plan raced a handover/crash that emptied the
        service) and move on."""
        window = self._log(
            fault, detail=f"skipped: no live replica of {service!r}")
        self._close(window)

    def _apply_instance_crash(self, fault: InstanceCrash) -> None:
        victim = self._pick_victim(fault.service, fault.replica)
        if victim is None:
            self._skip(fault, fault.service)
            return
        window = self._log(fault, detail=str(victim.address))
        victim.crash()
        self._close(window)  # the crash itself is instantaneous

    def _apply_node_failure(self, fault: NodeFailure) -> None:
        scheduler = self.orchestrator.scheduler
        if fault.node not in scheduler.machines:
            raise ChaosError(f"unknown node {fault.node!r}")
        victims = [i for i in self.orchestrator.all_instances()
                   if i.address.node == fault.node and i.is_running()]
        window = self._log(
            fault, detail=f"{len(victims)} instance(s) on {fault.node}")
        scheduler.set_offline(fault.node)
        for victim in victims:
            victim.crash()
        if fault.duration_s is not None:
            self.sim.schedule(fault.duration_s, self._rejoin_node,
                              fault.node, window)

    def _rejoin_node(self, node: str, window: FaultWindow) -> None:
        # The node rejoins empty: crashed instances stay dead and the
        # orchestrator redeploys (possibly back here) on its own.
        self.orchestrator.scheduler.set_offline(node, offline=False)
        self._close(window)

    def _apply_partition(self, fault: NetworkPartition) -> None:
        saved = self.network.partition(fault.group_a, fault.group_b)
        window = self._log(
            fault,
            detail=f"{len(saved)} directed link(s) blackholed")
        self.sim.schedule(fault.duration_s, self._heal_partition,
                          saved, window)

    def _heal_partition(self, saved, window: FaultWindow) -> None:
        self.network.heal(saved)
        self._close(window)

    def _apply_degradation(self, fault: DegradationBurst) -> None:
        pairs = [(fault.src, fault.dst)]
        if fault.symmetric:
            pairs.append((fault.dst, fault.src))
        saved = []
        for src, dst in pairs:
            link = self.network.link(src, dst)
            saved.append((src, dst, link.netem))
            link.netem = fault.netem
        window = self._log(
            fault, detail=f"{fault.src}<->{fault.dst} {fault.netem}")
        self.sim.schedule(fault.duration_s, self._heal_degradation,
                          saved, window)

    def _heal_degradation(self, saved, window: FaultWindow) -> None:
        for src, dst, netem in saved:
            self.network.link(src, dst).netem = netem
        self._close(window)

    def _apply_gray(self, fault: GrayFailure) -> None:
        victim = self._pick_victim(fault.service, fault.replica)
        if victim is None:
            self._skip(fault, fault.service)
            return
        window = self._log(
            fault,
            detail=f"{victim.address} x{fault.slowdown:g} slowdown")
        original = victim.base_time_s
        victim.base_time_s = original * fault.slowdown
        self.sim.schedule(fault.duration_s, self._heal_gray,
                          victim, original, window)

    def _heal_gray(self, victim: StreamService, original: float,
                   window: FaultWindow) -> None:
        # Restore only if the slowdown is still in effect — the victim
        # may have been crashed/replaced meanwhile.
        if victim.is_running():
            victim.base_time_s = original
        self._close(window)
