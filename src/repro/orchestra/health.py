"""Heartbeat failure detection (the discovery half of self-healing).

The seed orchestrator learned about crashes by reading remote container
state directly — a simulation shortcut no real control plane has.  This
module replaces that telepathy with the mechanism Oakestra (and every
orchestrator since) actually uses: the control plane **probes** every
instance over the network and infers health from silence.

* A :class:`~repro.net.datagram.HealthProbe` is sent to each live
  instance every ``interval_s``; instances ack from their ingress
  socket (control plane, bypasses the busy-drop rule).
* Silence longer than ``suspect_timeout_s`` moves an instance to
  **SUSPECT**: the service registry stops routing new frames to it,
  but nothing is killed — a transient partition or loss burst can
  still clear.
* Silence longer than ``dead_timeout_s`` moves it to **DEAD**: the
  orchestrator replaces it through its normal redeploy path.
* An ack from a SUSPECT instance recovers it to **HEALTHY** and
  re-registers it for routing.

Because probes ride the same lossy links as frames, the detector sees
exactly what the application sees: crashes and partitions silence it,
while *gray* failures (a service that slows down but still acks) stay
invisible — that blind spot is what the client-side resilience layer
(:mod:`repro.scatter.resilience`) exists to cover.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dsp.operator import StreamService
from repro.net.addresses import Address
from repro.net.datagram import (
    HEALTH_WIRE_BYTES,
    Datagram,
    HealthAck,
    HealthProbe,
)
from repro.orchestra.orchestrator import Orchestrator
from repro.orchestra.scheduler import SchedulingError


class HealthState(enum.Enum):
    HEALTHY = "healthy"
    SUSPECT = "suspect"
    DEAD = "dead"


@dataclass(frozen=True)
class HealthEvent:
    """One detector state transition (the MTTR timeline's raw data)."""

    timestamp_s: float
    service: str
    instance: Address
    state: HealthState


@dataclass
class InstanceHealth:
    """Detector-side bookkeeping for one watched instance."""

    service: str
    address: Address
    first_seen_s: float
    last_ack_s: float
    state: HealthState = HealthState.HEALTHY
    probes_sent: int = 0
    acks_received: int = 0
    rtt_samples_s: List[float] = field(default_factory=list)

    def silence_s(self, now: float) -> float:
        return now - self.last_ack_s


class FailureDetector:
    """Probes every orchestrated instance and reacts to silence."""

    #: Port the detector binds on its home node.
    PROBE_PORT = 5950

    def __init__(self, orchestrator: Orchestrator, *,
                 node: str = "e1",
                 interval_s: float = 0.25,
                 suspect_timeout_s: float = 0.75,
                 dead_timeout_s: float = 1.5,
                 port: Optional[int] = None,
                 redeploy: bool = True):
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {interval_s}")
        if not 0 < suspect_timeout_s < dead_timeout_s:
            raise ValueError(
                f"need 0 < suspect_timeout_s < dead_timeout_s, got "
                f"{suspect_timeout_s} / {dead_timeout_s}")
        self.orchestrator = orchestrator
        self.sim = orchestrator.sim
        self.network = orchestrator.testbed.network
        self.registry = orchestrator.registry
        self.interval_s = interval_s
        self.suspect_timeout_s = suspect_timeout_s
        self.dead_timeout_s = dead_timeout_s
        #: Replace DEAD instances through the orchestrator; disable to
        #: observe raw detection behaviour in tests.
        self.redeploy = redeploy
        self.address = Address(node,
                               self.PROBE_PORT if port is None else port)
        self.records: Dict[Address, InstanceHealth] = {}
        self.events: List[HealthEvent] = []
        self._seq = 0
        self._running = False
        self.network.bind(self.address, self._on_delivery)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._probe_loop(), name="failure-detector")

    def _probe_loop(self):
        while True:
            self._tick()
            yield self.sim.timeout(self.interval_s)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self.sim.now
        live: Dict[Address, tuple] = {}
        for service in self.orchestrator.services():
            for instance in self.orchestrator.instances(service):
                live[instance.address] = (service, instance)

        # Forget replaced/removed instances so zombie acks are ignored.
        for address in [a for a in self.records if a not in live]:
            del self.records[address]

        for address, (service, instance) in live.items():
            record = self.records.get(address)
            if record is None:
                # Grace period: a fresh instance owes no acks yet.
                record = InstanceHealth(service=service, address=address,
                                        first_seen_s=now, last_ack_s=now)
                self.records[address] = record
            silence = record.silence_s(now)
            if silence >= self.dead_timeout_s:
                if record.state is not HealthState.DEAD:
                    self._transition(record, HealthState.DEAD)
                    self.registry.deregister(service, address)
                if self.redeploy:
                    try:
                        self.orchestrator.replace_instance(service,
                                                           instance)
                    except SchedulingError:
                        # No feasible machine right now (e.g. the
                        # pinned node is down): stay DEAD and retry
                        # on a later tick.
                        pass
            elif (silence >= self.suspect_timeout_s
                    and record.state is HealthState.HEALTHY):
                self._transition(record, HealthState.SUSPECT)
                # Stop routing new frames at a silent instance.
                self.registry.deregister(service, address)
            self._probe(record)

    def _probe(self, record: InstanceHealth) -> None:
        self._seq += 1
        probe = HealthProbe(seq=self._seq, reply_to=self.address,
                            sent_s=self.sim.now)
        datagram = Datagram(payload=probe, size_bytes=HEALTH_WIRE_BYTES,
                            src=self.address, dst=record.address)
        record.probes_sent += 1
        self.network.send(self.address.node, record.address, datagram,
                          HEALTH_WIRE_BYTES)

    def _on_delivery(self, datagram: Datagram) -> None:
        ack = datagram.payload
        if not isinstance(ack, HealthAck):
            return
        record = self.records.get(ack.instance)
        if record is None:
            return  # ack from an instance we already replaced
        record.acks_received += 1
        record.last_ack_s = self.sim.now
        record.rtt_samples_s.append(self.sim.now - ack.probe_sent_s)
        if record.state is HealthState.SUSPECT:
            # The instance was alive all along (partition healed, loss
            # burst ended): put it back into rotation.
            self._transition(record, HealthState.HEALTHY)
            self.registry.register(record.service, record.address)

    def _transition(self, record: InstanceHealth,
                    state: HealthState) -> None:
        record.state = state
        self.events.append(HealthEvent(
            timestamp_s=self.sim.now, service=record.service,
            instance=record.address, state=state))
