"""Base class for one-frame-at-a-time stream services.

Encodes scAtteR's service semantics (§3.1):

* UDP ingress — datagrams arrive via the network; nothing is
  retransmitted.
* **One frame at a time** — a service that is processing is *busy*;
  new work arriving while busy is **dropped** ("outstanding requests
  arriving at busy services are dropped").
* Control messages (e.g. fetch responses a busy service is waiting
  for) bypass the drop rule and are routed to :meth:`on_control`.

Subclasses implement :meth:`process` (a simulation-process generator)
and use :meth:`compute` / :meth:`send` / :meth:`send_downstream`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

import numpy as np

from repro.cluster.container import Container
from repro.dsp.record import FrameRecord, RecordKind
from repro.flow.config import CREDIT_TTL_S
from repro.flow.credits import CreditAdvertisement, CreditLedger
from repro.metrics.sketch import PercentileSketch
from repro.net.addresses import Address, ServiceRegistry
from repro.net.datagram import (
    HEALTH_WIRE_BYTES,
    Datagram,
    HealthAck,
    HealthProbe,
)
from repro.net.topology import Network

#: Arrival markers kept for windowed ingress-FPS accounting.  Only the
#: trailing sampling window is ever queried, so older markers can age
#: out without changing any reported rate.
ARRIVAL_WINDOW_SAMPLES = 16384


@dataclass
class ServiceStats:
    """Per-instance counters and latency samples.

    Latency samples live in a constant-memory
    :class:`~repro.metrics.sketch.PercentileSketch` so that city-scale
    soak/chaos runs do not grow memory with frame count; counters
    remain exact, and per-replica sketches merge losslessly into
    pipeline-wide latency distributions.
    """

    received: int = 0
    processed: int = 0
    dropped_busy: int = 0
    failed: int = 0
    #: Sends withheld because the downstream's advertised credits ran
    #: dry (flow control; zero when the substrate is off).
    shed_backpressure: int = 0
    latency_samples_s: PercentileSketch = field(
        default_factory=PercentileSketch)
    #: Arrival timestamps for ingress-FPS accounting, appended at
    #: ``sim.now`` and so nondecreasing.
    arrival_times_s: Deque[float] = field(
        default_factory=lambda: deque(maxlen=ARRIVAL_WINDOW_SAMPLES))

    def ingress_fps(self, window_s: float, now: float) -> float:
        """Arrivals per second over the trailing window."""
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        # The markers never decrease, so those inside the window are
        # the ones after the first marker at or past its start.
        arrivals = self.arrival_times_s
        recent = len(arrivals) - bisect_left(arrivals, now - window_s)
        return recent / window_s


class StreamService:
    """One replica of a pipeline service."""

    #: Multiplicative service-time noise (lognormal sigma).
    TIME_NOISE_SIGMA = 0.08

    #: Heavy-tail stalls: occasionally a request takes SPIKE_FACTOR x
    #: longer (allocator/driver pauses, co-tenant interference).  With
    #: drop-when-busy ingress these stalls lose the frames arriving
    #: during the stall — the background loss visible even at one
    #: client (§4: ≈85% single-client success); a queueing sidecar
    #: rides them out.
    SPIKE_PROB = 0.04
    SPIKE_FACTOR = 2.5

    #: Marginal compute cost of each additional frame in a batched
    #: dispatch, relative to the first: setup/transfer overhead is paid
    #: once and the vectorized kernels (``encode_batch``,
    #: ``signature_batch``) amortize the per-frame work.
    BATCH_MARGINAL_COST = 0.45

    def __init__(self, *, name: str, network: Network,
                 registry: ServiceRegistry, container: Container,
                 address: Address, base_time_s: float,
                 gpu_intensity: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        if base_time_s <= 0:
            raise ValueError(
                f"base_time_s must be positive, got {base_time_s}")
        self.name = name
        self.network = network
        self.sim = network.sim
        self.registry = registry
        self.container = container
        self.address = address
        self.base_time_s = base_time_s
        self.gpu_intensity = gpu_intensity
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = ServiceStats()
        #: Optional distributed tracer (see repro.metrics.tracing).
        self.tracer = None
        #: Flow control (see repro.flow); off keeps every send path
        #: byte-identical to the pre-flow simulator.
        self.flow = False
        #: Downstream credit views, keyed by downstream service name,
        #: populated from CreditAdvertisement packets when flow is on.
        self._credit_ledgers: Dict[str, CreditLedger] = {}
        #: Optional session router (see repro.mobility.handover.
        #: SessionDirectory): consulted before the registry balancer so
        #: a stateful downstream keeps serving the replica a client's
        #: session lives on.  ``None`` (the default) keeps every send
        #: byte-identical to the balancer-only simulator.
        self.session_router = None
        self._busy = False
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the container and attach to the network."""
        if self._started:
            return
        self.container.start()
        self.network.bind(self.address, self._on_delivery)
        self.registry.register(self.name, self.address)
        self._started = True

    def stop(self, failed: bool = False) -> None:
        if not self._started:
            return
        self.network.unbind(self.address)
        self.registry.deregister(self.name, self.address)
        self.container.stop(failed=failed)
        self._started = False

    def crash(self) -> None:
        """Hard-kill this replica without informing the control plane.

        Unlike ``stop(failed=True)``, the service's registry entry
        survives: the rest of the system keeps routing frames (and
        health probes) at a dead address until the failure detector
        notices — the crash-to-recovery window the chaos layer exists
        to measure.
        """
        if not self._started:
            return
        self.network.unbind(self.address)
        self.container.stop(failed=True)
        self._started = False

    def is_running(self) -> bool:
        return self._started

    # ------------------------------------------------------------------
    # Ingress
    # ------------------------------------------------------------------
    def _on_delivery(self, datagram: Datagram) -> None:
        # Frames dominate ingress traffic by orders of magnitude, so
        # test for them first; probes/credits are control-plane rare.
        # The payload types are disjoint, so the reorder cannot change
        # which branch a packet takes.
        record = datagram.payload
        if isinstance(record, FrameRecord):
            if self.is_control(record):
                self.on_control(record)
                return
            stats = self.stats
            stats.received += 1
            stats.arrival_times_s.append(self.sim.now)
            if self._busy:
                stats.dropped_busy += 1
                self.on_dropped(record)
                return
            self._busy = True
            self.sim.spawn(self._work(record),
                           name=f"{self.name}@{self.address}")
            return
        if isinstance(record, HealthProbe):
            self._on_health_probe(record)
            return
        if isinstance(record, CreditAdvertisement):
            self.on_credit(record)
        # anything else is a stray packet: UDP silently discards

    def _work(self, record: FrameRecord):
        start = self.sim.now
        try:
            yield from self.process(record)
            self.stats.processed += 1
        except Exception:
            self.stats.failed += 1
            raise
        finally:
            self._busy = False
            self.stats.latency_samples_s.append(self.sim.now - start)
            if self.tracer is not None:
                self.tracer.record_span(
                    record.key, record.created_s, name=self.name,
                    kind="service", instance=str(self.address),
                    start_s=start, end_s=self.sim.now)

    def _on_health_probe(self, probe: HealthProbe) -> None:
        """Answer a liveness probe (control plane; bypasses busy-drop).

        A busy — or grey-slow — service still acks instantly, which is
        precisely why heartbeat detectors are blind to gray failures.
        """
        ack = HealthAck(seq=probe.seq, instance=self.address,
                        probe_sent_s=probe.sent_s)
        datagram = Datagram(payload=ack, size_bytes=HEALTH_WIRE_BYTES,
                            src=self.address, dst=probe.reply_to)
        self.network.send(self.address.node, probe.reply_to, datagram,
                          HEALTH_WIRE_BYTES)

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def process(self, record: FrameRecord):
        """Handle one unit of work (simulation-process generator)."""
        raise NotImplementedError

    def is_control(self, record: FrameRecord) -> bool:
        """Records for which the busy-drop rule must not apply."""
        return record.kind is RecordKind.FETCH_RESPONSE

    def on_control(self, record: FrameRecord) -> None:
        """Deliver a control record (default: ignore)."""

    def on_dropped(self, record: FrameRecord) -> None:
        """Called when ingress work is dropped because we are busy."""

    def on_credit(self, advertisement: CreditAdvertisement) -> None:
        """Fold a downstream sidecar's credit advertisement in.

        With flow off the packet is ignored (a no-flow service can
        receive one when only part of the pipeline runs flow)."""
        if not self.flow:
            return
        ledger = self._credit_ledgers.get(advertisement.service)
        if ledger is None:
            ledger = CreditLedger(advertisement.service,
                                  ttl_s=CREDIT_TTL_S)
            self._credit_ledgers[advertisement.service] = ledger
        ledger.update(advertisement, self.sim.now)

    def credit_ledger(self, service: str) -> Optional[CreditLedger]:
        """This sender's view of ``service``'s credits (or ``None``)."""
        return self._credit_ledgers.get(service)

    # ------------------------------------------------------------------
    # Helpers for subclasses
    # ------------------------------------------------------------------
    def compute(self, base_time_s: Optional[float] = None):
        """Consume compute on this replica's container.

        Applies the device speed factor (via the container) and a
        small lognormal noise term so service times are not perfectly
        deterministic.  Returns the device's process generator; the
        noise is drawn when this is called, so call it where the
        compute starts: ``yield from self.compute()``.
        """
        base = self.base_time_s if base_time_s is None else base_time_s
        noisy = base * float(self.rng.lognormal(0.0, self.TIME_NOISE_SIGMA))
        if self.rng.random() < self.SPIKE_PROB:
            noisy *= self.SPIKE_FACTOR
        return self.container.compute(noisy,
                                      gpu_intensity=self.gpu_intensity)

    def compute_batch(self, records: List[FrameRecord],
                      base_time_s: Optional[float] = None):
        """Consume compute for a whole batch in one amortized pass.

        The first frame costs the full base time; each additional one
        costs :attr:`BATCH_MARGINAL_COST` of it (setup paid once, the
        vectorized kernels do the rest).  One noise/spike draw covers
        the batch — two RNG draws per *round* instead of per frame.
        Like :meth:`compute`, it draws when called and returns the
        device's process generator.
        """
        if not records:
            raise ValueError("compute_batch needs at least one record")
        base = self.base_time_s if base_time_s is None else base_time_s
        amortized = base * (1.0 + self.BATCH_MARGINAL_COST
                            * (len(records) - 1))
        noisy = amortized * float(
            self.rng.lognormal(0.0, self.TIME_NOISE_SIGMA))
        if self.rng.random() < self.SPIKE_PROB:
            noisy *= self.SPIKE_FACTOR
        return self.container.compute(noisy,
                                      gpu_intensity=self.gpu_intensity)

    def process_batch(self, records: List[FrameRecord]):
        """Handle a batched dispatch (simulation-process generator).

        The default just runs :meth:`process` back to back — correct
        for any stage, amortizing nothing.  Batch-aware stages override
        this with one :meth:`compute_batch` pass.
        """
        for record in records:
            yield from self.process(record)

    def send(self, destination: Address, record: FrameRecord) -> bool:
        """Send a record to a concrete address over plain UDP."""
        datagram = Datagram(payload=record, size_bytes=record.size_bytes,
                            src=self.address, dst=destination)
        return self.network.send(self.address.node, destination, datagram,
                                 record.size_bytes)

    def send_downstream(self, service: str, record: FrameRecord) -> bool:
        """Send to the named service via the registry's balancer.

        With flow control on, a send is withheld when the downstream's
        advertised credits are exhausted — the frame would only age out
        in its queue, so the bytes never travel (``shed_backpressure``).
        Without a fresh credit signal the send always proceeds.
        """
        if self.flow and record.kind is RecordKind.FRAME:
            ledger = self._credit_ledgers.get(service)
            if ledger is not None and not ledger.take(self.sim.now):
                self.stats.shed_backpressure += 1
                return False
        destination = None
        if self.session_router is not None:
            destination = self.session_router.route(service,
                                                    record.client_id)
        if destination is None:
            try:
                destination = self.registry.resolve(service)
            except LookupError:
                return False
        return self.send(destination, record)
