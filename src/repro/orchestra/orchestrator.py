"""The orchestrator: deployment, scaling, monitoring, self-healing.

Ties the pieces together the way Oakestra does for scAtteR (§3.2):
services are deployed from SLAs through the scheduler, registered for
semantic addressing, watched by the hardware monitor, and replaced
automatically when they fail.  The orchestrator's worldview is
hardware-only — it never sees FPS or queue depths, which is exactly
the blind spot the paper characterizes.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.container import Container, ContainerState
from repro.cluster.machine import Machine
from repro.cluster.testbed import Testbed
from repro.dsp.operator import StreamService
from repro.metrics.hardware import HardwareMonitor
from repro.net.addresses import Address, ServiceRegistry
from repro.orchestra.scheduler import Scheduler, SchedulingError
from repro.orchestra.sla import ServiceSla


class OrchestratorError(RuntimeError):
    """Raised for orchestration misuse (unknown service/instance)."""


#: Builds a service replica.  The orchestrator chooses machine and
#: address; the application supplies everything else.
ServiceFactory = Callable[[ServiceSla, Machine, Address],
                          StreamService]


class Orchestrator:
    """Manages the lifecycle of pipeline services on a testbed."""

    #: Port range services are bound on, one port per deployed replica.
    BASE_PORT = 6000

    def __init__(self, testbed: Testbed, *,
                 registry: Optional[ServiceRegistry] = None,
                 monitor_interval_s: float = 1.0,
                 redeploy_delay_s: float = 1.0,
                 base_port: Optional[int] = None):
        self.testbed = testbed
        self.sim = testbed.sim
        self.registry = registry if registry is not None else ServiceRegistry()
        self.scheduler = Scheduler(testbed.machines)
        self.monitor = HardwareMonitor(
            testbed.sim, testbed.machines.values(),
            interval_s=monitor_interval_s)
        self.redeploy_delay_s = redeploy_delay_s
        self._instances: Dict[str, List[StreamService]] = {}
        self._factories: Dict[str, ServiceFactory] = {}
        self._slas: Dict[str, ServiceSla] = {}
        # Distinct port ranges let several orchestrators (independent
        # applications) coexist on one testbed without bind clashes.
        self._next_port = (self.BASE_PORT if base_port is None
                           else base_port)
        self._watchdog_running = False
        self.redeploy_count = 0
        #: (timestamp, service) log of every self-healing redeploy —
        #: the recovery half of the MTTR metric.
        self.redeploy_events: List[Tuple[float, str]] = []
        #: Replicas removed mid-run (handover, replacement).
        #: Kept so post-run audits — frame conservation, state-store
        #: accounting — can still see instances that are no longer in
        #: the live replica set.
        self._retired: Dict[str, List[StreamService]] = {}
        #: The run's tracer (repro.metrics.tracing) and session router
        #: (repro.mobility.handover.SessionDirectory), set by
        #: :meth:`attach` and handed to every replica deployed later.
        self.tracer = None
        self.session_router = None

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------
    def deploy(self, sla: ServiceSla, factory: ServiceFactory,
               replicas: int = 1) -> List[StreamService]:
        """Deploy ``replicas`` instances of a service per its SLA."""
        if replicas < 1:
            raise OrchestratorError(f"replicas must be >= 1, got {replicas}")
        self._factories[sla.service] = factory
        self._slas[sla.service] = sla
        return [self._deploy_one(sla, factory) for __ in range(replicas)]

    def scale_up(self, service: str,
                 machine: Optional[str] = None) -> StreamService:
        """Add one replica, optionally pinned to a ``machine`` the SLA
        allows (:class:`SchedulingError` otherwise)."""
        sla = self._slas.get(service)
        factory = self._factories.get(service)
        if sla is None or factory is None:
            raise OrchestratorError(f"service {service!r} never deployed")
        if machine is not None:
            if sla.allowed_machines and machine not in sla.allowed_machines:
                raise SchedulingError(
                    f"{service!r} may not run on {machine!r}: allowed "
                    f"machines are {sla.allowed_machines}")
            sla = dataclasses.replace(sla, machine=machine)
        return self._deploy_one(sla, factory)

    def _deploy_one(self, sla: ServiceSla,
                    factory: ServiceFactory) -> StreamService:
        machine = self.scheduler.place(sla)
        address = Address(machine.name, self._next_port)
        self._next_port += 1
        instance = factory(sla, machine, address)
        instance.tracer = self.tracer
        instance.session_router = self.session_router
        instance.start()
        self.monitor.watch(instance.container)
        self._instances.setdefault(sla.service, []).append(instance)
        return instance

    def attach(self, *, tracer=None, session_router=None) -> None:
        """Give the run's tracer and/or session router to every live
        replica and to every replica deployed from now on."""
        if tracer is not None:
            self.tracer = tracer
        if session_router is not None:
            self.session_router = session_router
        for instance in self.all_instances():
            instance.tracer = self.tracer
            instance.session_router = self.session_router

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def instances(self, service: str) -> List[StreamService]:
        return list(self._instances.get(service, []))

    def retired_instances(self, service: str) -> List[StreamService]:
        """Replicas of ``service`` removed mid-run (audit trail)."""
        return list(self._retired.get(service, []))

    def all_instances(self) -> List[StreamService]:
        return [instance for instances in self._instances.values()
                for instance in instances]

    def services(self) -> List[str]:
        return sorted(self._instances)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def fail_instance(self, instance: StreamService) -> None:
        """Crash a replica (test/chaos hook)."""
        instance.stop(failed=True)

    def replace_instance(self, service: str,
                         instance: StreamService) -> StreamService:
        """Replace a dead replica with a fresh one (self-healing).

        Shared by the container watchdog and the heartbeat failure
        detector.  Removes the victim from the replica set, withdraws
        its (possibly stale) registry entry, kills it if it is somehow
        still running (a partitioned-but-alive instance the detector
        declared dead), and deploys a replacement per the original SLA.
        Raises :class:`~repro.orchestra.scheduler.SchedulingError` when
        no machine is currently feasible (e.g. the pinned node is down)
        — callers retry once capacity returns.
        """
        sla = self._slas.get(service)
        factory = self._factories.get(service)
        if sla is None or factory is None:
            raise OrchestratorError(f"service {service!r} never deployed")
        instances = self._instances.get(service, [])
        # Place the replacement *before* mutating any state, so a
        # scheduling failure leaves the deployment untouched for retry.
        replacement = self._deploy_one(sla, factory)
        if instance in instances:
            instances.remove(instance)
            self._retired.setdefault(service, []).append(instance)
        self.registry.deregister(service, instance.address)
        if instance.container.state is ContainerState.RUNNING:
            instance.stop(failed=True)
        self.redeploy_count += 1
        self.redeploy_events.append((self.sim.now, service))
        return replacement

    def start(self, *, watchdog: bool = True) -> None:
        """Start monitoring and (by default) the failure watchdog.

        Pass ``watchdog=False`` when a heartbeat
        :class:`~repro.orchestra.health.FailureDetector` is attached:
        the watchdog reads remote container state directly (a
        simulation shortcut no real control plane has), whereas the
        detector must *discover* failures over the network.
        """
        self.monitor.start()
        if watchdog and not self._watchdog_running:
            self._watchdog_running = True
            self.sim.spawn(self._watchdog(), name="orchestrator-watchdog")

    def _watchdog(self):
        """Replace failed containers, Oakestra's automatic redeploy."""
        while True:
            yield self.sim.timeout(self.redeploy_delay_s)
            for service, instances in list(self._instances.items()):
                failed = [i for i in instances
                          if i.container.state is ContainerState.FAILED]
                for instance in failed:
                    # Keep the replacement on the same machine when the
                    # original SLA pinned one; otherwise reschedule.
                    self.replace_instance(service, instance)
