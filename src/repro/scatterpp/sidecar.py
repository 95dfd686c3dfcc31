"""The queue sidecar (§5, Figure 5) with an optional flow substrate.

Attached to every service's ingress, the sidecar:

* accepts every incoming request (no more busy-drops at the UDP
  socket),
* queues requests FIFO and **filters** them against a staleness
  threshold — a frame older than the 100 ms XR latency budget is
  dropped from the queue instead of wasting service time,
* hands surviving requests to the attached service **one at a time
  over gRPC** (the service keeps the one-frame-at-a-time contract) —
  a loopback call, since the sidecar shares its service's node, so
  the dispatcher runs it inline for :data:`RPC_OVERHEAD_S` of virtual
  time (DESIGN.md §19),
* collects analytics — queueing time, processing time, ingress rate
  and the threshold drop ratio — attached to the data's state and
  exported to :class:`~repro.scatterpp.analytics.SidecarAnalytics`.

With ``flow=True`` three further mechanisms engage, at the constants
of :mod:`repro.flow.config` (see DESIGN.md §10):

* **admission control** — a per-client token bucket rejects frames at
  ingress, before they cost a queue slot and state bytes; one hot
  client drains only its own bucket;
* **batched dispatch** — one dispatch round drains up to
  :data:`~repro.flow.config.BATCH_MAX` fresh frames and hands them
  over together, amortizing the RPC overhead and letting batch-aware
  stages vectorize their compute;
* **credit advertisement** — the sidecar periodically tells its
  upstreams how many more frames it could serve inside the staleness
  budget, so senders can shed doomed work at the source.

``flow=False`` (the default everywhere) spawns no extra processes and
draws no RNG, so the event trajectory — and hence the golden trace
digests — is byte-identical to the pre-flow sidecar.

:func:`sidecar_wrap` turns any :class:`~repro.dsp.operator.
StreamService` subclass into its sidecar-fronted variant, so the same
stage logic runs in both scAtteR and scAtteR++.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple, Type

from repro.dsp.operator import StreamService
from repro.dsp.record import FrameRecord
from repro.flow.config import (ADMISSION_BURST, ADMISSION_RATE_FPS,
                               ADVERTISE_INTERVAL_S, BATCH_MAX,
                               UPSTREAM_WINDOW_S)
from repro.flow.credits import (CREDIT_WIRE_BYTES, CreditAdvertisement,
                                TokenBucket)
from repro.metrics.sketch import PercentileSketch
from repro.net.addresses import Address
from repro.net.datagram import Datagram, HealthProbe
from repro.net.rpc import RpcChannel
from repro.sim.resources import Store

#: gRPC serialization/dispatch overhead per hand-off (loopback call).
#: It is the whole cost of the hand-off: on one node the call touches
#: no link, draws no loss and cannot be retransmitted.
RPC_OVERHEAD_S = 0.0004

#: Queued frames a sidecar holds; an arrival beyond it is dropped as
#: overflow.
QUEUE_CAPACITY = 256


@dataclass
class SidecarStats:
    """Cumulative sidecar counters plus sampling helpers.

    Queue-wait samples live in a constant-memory
    :class:`~repro.metrics.sketch.PercentileSketch` so city-scale
    runs don't grow memory with frame count; counters — and the
    sketch's own total/min/max — stay exact, and shard sketches merge
    losslessly across campaign workers.  Only frames that were
    actually *served* contribute queue-wait samples — stale drops
    never pollute the sketch.
    """

    enqueued: int = 0
    #: Frames refused by admission control (flow control); they never
    #: occupy a queue slot.
    rejected: int = 0
    dropped_stale: int = 0
    dropped_overflow: int = 0
    #: Frames still queued when the sidecar detached (instance stopped
    #: or crashed) *plus* frames refused after detach: their state is
    #: freed and they count as drops.
    dropped_detach: int = 0
    #: The post-detach-refusal share of ``dropped_detach`` (never
    #: entered the queue, so they are not part of ``enqueued``).
    detach_refused: int = 0
    dispatched: int = 0
    #: Dispatch rounds that carried more than one frame, and the
    #: frames they carried (batched-dispatch accounting).
    batched_rounds: int = 0
    batched_frames: int = 0
    queue_wait_samples_s: PercentileSketch = field(
        default_factory=PercentileSketch)

    def drop_ratio(self) -> float:
        """Fraction of queue exits that were threshold drops."""
        exits = self.dropped_stale + self.dispatched
        return self.dropped_stale / exits if exits else 0.0

    def overflow_ratio(self) -> float:
        """Fraction of queue admissions refused for a full queue."""
        arrivals = self.enqueued + self.dropped_overflow
        return self.dropped_overflow / arrivals if arrivals else 0.0

    def reject_ratio(self) -> float:
        """Fraction of ingress arrivals shed by admission control.

        Kept separate from :meth:`drop_ratio` (a queue-exit ratio) so
        analytics rows don't silently undercount shed load: a sidecar
        rejecting half its arrivals can still show a zero drop ratio.
        """
        arrivals = self.enqueued + self.rejected
        return self.rejected / arrivals if arrivals else 0.0


class Sidecar:
    """Queue + filter + gRPC dispatcher for one service instance."""

    def __init__(self, service: "StreamService", *,
                 threshold_s: float = 0.100,
                 flow: bool = False):
        if threshold_s <= 0:
            raise ValueError(
                f"threshold_s must be positive, got {threshold_s}")
        self.service = service
        self.sim = service.sim
        self.threshold_s = threshold_s
        self.flow = flow
        #: Client id -> its admission token bucket (flow on).
        self._buckets: Dict[int, TokenBucket] = {}
        self._batch_max = BATCH_MAX if flow else 1
        #: Frames one service pass could clear inside the staleness
        #: budget — the serviceable window credits are computed from.
        self._window = max(1, int(threshold_s /
                                  (service.base_time_s + RPC_OVERHEAD_S)))
        #: Wake-up tokens; the entries deque holds the actual FIFO
        #: queue, so a token redeems the oldest entry.
        self.queue: Store = Store(self.sim)
        self._entries: Deque[Tuple[FrameRecord, float]] = deque()
        self.stats = SidecarStats()
        self._in_flight = 0
        #: Upstream ingress addresses -> last time they sent a frame;
        #: the credit advertiser's audience.
        self._upstreams: Dict[Address, float] = {}
        self._credit_seq = 0
        self._epoch = 0
        #: Credit advertisements travel to upstreams over gRPC notify.
        self._channel = RpcChannel(service.network,
                                   service.address.node)
        self._detached = False

    # ------------------------------------------------------------------
    def attach(self) -> None:
        """Start dispatching (and, with credits on, advertising)."""
        self._detached = False
        self._epoch += 1
        self.sim.spawn(self._dispatch_loop(),
                       name=f"sidecar-{self.service.name}")
        if self.flow:
            self.sim.spawn(self._advertise_loop(self._epoch),
                           name=f"sidecar-credits-{self.service.name}")

    def detach(self) -> None:
        """Stop dispatching and drain the queue.

        Frames still queued when the instance stops would otherwise
        keep their ``allocate_state`` bytes forever (and the dispatch
        loop would hang on them): free every pending entry's state,
        count it as a drop, and wake the dispatcher so it can exit.
        """
        if self._detached:
            return
        self._detached = True
        self._epoch += 1
        for record, __ in self._entries:
            self.service.container.free_state(record.size_bytes)
            self.stats.dropped_detach += 1
        self._entries.clear()
        self.queue.put_nowait(True)  # wake the dispatcher to exit

    def enqueue(self, record: FrameRecord, *,
                source: Optional[Address] = None) -> bool:
        """Admit a request into the queue (never busy-drops).

        ``source`` is the sender's ingress address; with credit flow
        on it joins the advertiser's audience.  Returns whether the
        frame entered the queue.
        """
        stats = self.stats
        if self._detached:
            stats.dropped_detach += 1
            stats.detach_refused += 1
            return False
        now = self.sim.now
        entries = self._entries
        if self.flow:
            if source is not None:
                self._upstreams[source] = now
            bucket = self._buckets.get(record.client_id)
            if bucket is None:
                bucket = self._buckets[record.client_id] = TokenBucket(
                    ADMISSION_RATE_FPS, ADMISSION_BURST)
            if not bucket.take(now):
                stats.rejected += 1
                return False
        if len(entries) >= QUEUE_CAPACITY:
            stats.dropped_overflow += 1
            return False
        entries.append((record, now))
        self.queue.put_nowait(True)  # wake the dispatcher
        stats.enqueued += 1
        # Queued frames occupy service memory until dispatched.
        self.service.container.allocate_state(record.size_bytes)
        return True

    @property
    def depth(self) -> int:
        return len(self._entries)

    @property
    def in_flight(self) -> int:
        """Frames taken off the queue whose hand-off has not finished."""
        return self._in_flight

    def credits(self) -> int:
        """Queue slots the sidecar can still serve inside the budget.

        Clamped headroom: never negative, never beyond the remaining
        queue capacity, never beyond the serviceable window minus work
        already queued or in flight.
        """
        backlog = len(self._entries) + self._in_flight
        serviceable = max(0, self._window - backlog)
        headroom = max(0, QUEUE_CAPACITY - len(self._entries))
        return min(serviceable, headroom)

    # ------------------------------------------------------------------
    def _dispatch_loop(self):
        """Take, filter and serve queued frames, one round at a time.

        One generator runs the whole round: the take and the staleness
        filter, the gRPC hand-off (inline, as the service shares this
        node: one RPC overhead, then the wrapped service's ``process``
        for one frame or one ``process_batch`` pass for a batched
        round), and the served-frame accounting.
        """
        service = self.service
        sim = self.sim
        stats = self.stats
        service_stats = service.stats
        entries = self._entries
        free_state = service.container.free_state
        while True:
            yield self.queue.get()
            if self._detached:
                return
            if not entries:
                continue  # entries were drained while we slept
            record, enqueued_at = entries.popleft()
            free_state(record.size_bytes)
            taken_at = sim.now
            if taken_at - enqueued_at > self.threshold_s:
                # The request spent longer queued than the threshold
                # (the 100 ms XR budget): drop it instead of wasting
                # service time on a frame the client no longer wants.
                stats.dropped_stale += 1
                continue
            batch = (self._fill_batch(record, enqueued_at)
                     if self._batch_max > 1 else None)
            served = 1 if batch is None else len(batch)
            tracer = service.tracer
            if tracer is not None:
                for queued, queued_at in batch or ((record, enqueued_at),):
                    tracer.record_span(
                        queued.key, queued.created_s, name=service.name,
                        kind="queue", instance=str(service.address),
                        start_s=queued_at, end_s=taken_at)
            self._in_flight += served
            try:
                yield sim.timeout(RPC_OVERHEAD_S)
                start = sim.now if tracer is not None else None
                try:
                    if batch is None:
                        yield from service.process(record)
                    else:
                        yield from service.process_batch(
                            [queued for queued, __ in batch])
                    service_stats.processed += served
                finally:
                    if tracer is not None:
                        for queued, __ in batch or ((record, enqueued_at),):
                            tracer.record_span(
                                queued.key, queued.created_s,
                                name=service.name, kind="service",
                                instance=str(service.address),
                                start_s=start, end_s=sim.now)
                stats.dispatched += served
                # Only *served* frames sample the queue-wait sketch.
                # Service latency, as the sidecar reports it, spans
                # queue entry to processing completion.
                if batch is None:
                    stats.queue_wait_samples_s.append(
                        taken_at - enqueued_at)
                    service_stats.latency_samples_s.append(
                        sim.now - enqueued_at)
                else:
                    stats.batched_rounds += 1
                    stats.batched_frames += served
                    for __, queued_at in batch:
                        stats.queue_wait_samples_s.append(
                            taken_at - queued_at)
                        service_stats.latency_samples_s.append(
                            sim.now - queued_at)
            finally:
                self._in_flight -= served

    def _fill_batch(self, record: FrameRecord, enqueued_at: float
                    ) -> Optional[List[Tuple[FrameRecord, float]]]:
        """Drain further fresh entries into the round ``record`` opens
        (no events); the round's entries, or ``None`` if none joined.

        Every entry taken redeems its own wake token, keeping the
        token↔entry pairing exact; stale entries met along the way are
        dropped just as the serial loop would have dropped them.
        """
        batch = [(record, enqueued_at)]
        while len(batch) < self._batch_max and self._entries:
            try:
                self.queue.get_nowait()
            except LookupError:
                break  # no matching token yet: leave the entry queued
            record, enqueued_at = self._entries.popleft()
            self.service.container.free_state(record.size_bytes)
            if self.sim.now - enqueued_at > self.threshold_s:
                self.stats.dropped_stale += 1
                continue
            batch.append((record, enqueued_at))
        return batch if len(batch) > 1 else None

    # ------------------------------------------------------------------
    def _advertise_loop(self, epoch: int):
        """Periodically push serviceable credits to known upstreams."""
        instance = str(self.service.address)
        while True:
            yield self.sim.timeout(ADVERTISE_INTERVAL_S)
            if self._detached or self._epoch != epoch:
                return
            now = self.sim.now
            silent = [address for address, last in self._upstreams.items()
                      if now - last > UPSTREAM_WINDOW_S]
            for address in silent:
                del self._upstreams[address]
            if not self._upstreams:
                continue
            self._credit_seq += 1
            advertisement = CreditAdvertisement(
                service=self.service.name,
                instance=instance,
                credits=self.credits(), seq=self._credit_seq,
                sent_s=now)
            for address in list(self._upstreams):
                self._channel.notify(address, advertisement,
                                     CREDIT_WIRE_BYTES)


def sidecar_wrap(base_class: Type[StreamService],
                 *, threshold_s: float = 0.100,
                 flow: bool = False) -> Type[StreamService]:
    """Build a sidecar-fronted variant of ``base_class``.

    The generated class replaces busy-drop ingress with sidecar
    queueing while reusing the stage's ``process`` logic unchanged.
    ``flow`` switches flow control on in both the sidecar (admission,
    batching, credit advertisement) and the service itself
    (credit-aware downstream sends).
    """

    class SidecarService(base_class):  # type: ignore[misc, valid-type]

        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            self.flow = flow
            self.sidecar = Sidecar(self, threshold_s=threshold_s,
                                   flow=flow)

        def start(self) -> None:
            super().start()
            self.sidecar.attach()

        def stop(self, failed: bool = False) -> None:
            self.sidecar.detach()
            super().stop(failed=failed)

        def crash(self) -> None:
            self.sidecar.detach()
            super().crash()

        def _on_delivery(self, datagram: Datagram) -> None:
            # Frame-first dispatch, mirroring StreamService: frames
            # dominate ingress and the payload types are disjoint.
            record = datagram.payload
            if isinstance(record, FrameRecord):
                if self.is_control(record):
                    self.on_control(record)
                    return
                stats = self.stats
                stats.received += 1
                stats.arrival_times_s.append(self.sim.now)
                self.sidecar.enqueue(record, source=datagram.src)
                return
            if isinstance(record, HealthProbe):
                self._on_health_probe(record)
                return
            if isinstance(record, CreditAdvertisement):
                self.on_credit(record)

        def _work(self, record):  # pragma: no cover - never used
            raise RuntimeError(
                "sidecar services dispatch through the sidecar")

    SidecarService.__name__ = f"Sidecar{base_class.__name__}"
    SidecarService.__qualname__ = SidecarService.__name__
    return SidecarService
