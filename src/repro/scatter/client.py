"""The virtualized AR client.

Clients run as containers on NUC machines and replay the pre-recorded
10 s / 30 FPS video in a loop (§3.2), streaming frames to the pipeline
ingress (``primary``) over UDP and collecting results into
:class:`~repro.metrics.qos.ClientStats`.

With ``resilience=True`` the send path gains three layers (off by
default, preserving the paper's baseline behaviour), at the fixed
setting of :mod:`repro.scatter.resilience`:

* frames with no result within the request timeout are retried with
  exponential backoff;
* consecutive failures trip a per-client circuit breaker — while it is
  open no frames are sent, so a dead or partitioned pipeline costs one
  timeout window instead of one per frame;
* while the breaker is open, frames are answered locally at the
  fallback latency and recorded as ``degraded`` rather than lost.

A mobility experiment additionally wires the client into the session
handover protocol (:mod:`repro.mobility.handover`): ``begin``/``commit``
/``abort`` notices bracket handover windows, during which the client
answers frames locally instead of racing them against a moving
session; committed handovers bump the client's *session epoch*, which
stamps outgoing frames so late results produced under a previous epoch
(at the old site) are rejected, never double-counted.  All of it is
inert — zero extra events, zero RNG draws — until the first notice
arrives, so mobility-off runs are bit-identical.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dsp.record import FrameRecord, RecordKind
from repro.flow.credits import (CreditAdvertisement, CreditLedger,
                                TokenBucket)
from repro.metrics.qos import ClientStats
from repro.mobility.handover import HandoverNotice
from repro.net.addresses import Address, ServiceRegistry
from repro.net.datagram import Datagram
from repro.net.topology import Network
from repro.scatter import config
from repro.scatter.resilience import (
    FALLBACK_LATENCY_S,
    MAX_ATTEMPTS,
    REQUEST_TIMEOUT_S,
    RETRY_BASE_DELAY_S,
    RETRY_JITTER,
    RETRY_MAX_DELAY_S,
    RETRY_MULTIPLIER,
    CircuitBreaker,
)
from repro.sim.kernel import Simulator


class ArClient:
    """One video-replaying client."""

    BASE_PORT = 9000

    def __init__(self, *, client_id: int, node: str, network: Network,
                 registry: ServiceRegistry,
                 fps: float = config.CLIENT_FPS,
                 resilience: bool = False,
                 flow=None,
                 rng: Optional[np.random.Generator] = None):
        if fps <= 0:
            raise ValueError(f"fps must be positive, got {fps}")
        self.client_id = client_id
        self.node = node
        self.network = network
        self.sim: Simulator = network.sim
        self.registry = registry
        self.fps = fps
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.address = Address(node, self.BASE_PORT + client_id)
        self.stats = ClientStats(client_id=client_id)
        #: Optional distributed tracer (see repro.metrics.tracing).
        self.tracer = None
        self.breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(self.sim) if resilience else None)
        #: Flow control (see repro.flow): with ``client_pacing`` on the
        #: send path consults a token bucket plus the ingress sidecar's
        #: advertised credits instead of blind fire-and-drop.  ``None``
        #: keeps the paper's baseline behaviour exactly.
        self.flow = flow
        self.pacer: Optional[TokenBucket] = None
        self.ingress_credits: Optional[CreditLedger] = None
        if flow is not None and flow.client_pacing:
            rate = (flow.client_rate_fps
                    if flow.client_rate_fps is not None else fps)
            self.pacer = TokenBucket(rate, flow.client_burst)
            self.ingress_credits = CreditLedger(
                "primary", ttl_s=flow.credit_ttl_s)
        #: Session-handover state (see repro.mobility.handover): the
        #: epoch of the last committed handover stamps outgoing frames,
        #: and ``handover_window`` is True between a ``begin`` notice
        #: and its ``commit``/``abort``.  Both stay at their zero
        #: values forever in a mobility-off run.
        self.session_epoch = 0
        self.handover_window = False
        self._running = False
        network.bind(self.address, self._on_delivery)

    def _on_delivery(self, datagram: Datagram) -> None:
        record = datagram.payload
        if isinstance(record, CreditAdvertisement):
            if self.ingress_credits is not None:
                self.ingress_credits.update(record, self.sim.now)
            return
        if isinstance(record, HandoverNotice):
            self._on_handover_notice(record)
            return
        if (isinstance(record, FrameRecord)
                and record.kind is RecordKind.RESULT
                and record.client_id == self.client_id):
            if record.meta.get("session_epoch", 0) < self.session_epoch:
                # A late result computed at the pre-handover site under
                # a previous epoch: the session moved on; rejecting it
                # keeps old and new sites from double-answering.  The
                # frame itself is still answered locally.
                self.stats.rejected_stale_results += 1
                self._degrade(record)
                return
            self.stats.record_received(record.frame_number, self.sim.now)
            if self.breaker is not None:
                self.breaker.record_success()
            if self.tracer is not None:
                self.tracer.record_delivery(record.key,
                                            record.created_s,
                                            self.sim.now)

    def _on_handover_notice(self, notice: HandoverNotice) -> None:
        """Track handover windows; epoch-stale notices are ignored
        (reordered control packets must not roll the session back)."""
        if (notice.client_id != self.client_id
                or notice.epoch <= self.session_epoch):
            return
        if notice.phase == "begin":
            if not self.handover_window:
                self.stats.handover_windows += 1
            self.handover_window = True
        elif notice.phase == "commit":
            self.session_epoch = notice.epoch
            self.handover_window = False
        elif notice.phase == "abort":
            self.handover_window = False

    def start(self, duration_s: float) -> None:
        """Begin streaming for ``duration_s`` seconds."""
        if duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {duration_s}")
        if self._running:
            raise RuntimeError("client already started")
        self._running = True
        self.sim.spawn(self._stream(duration_s),
                       name=f"client-{self.client_id}")

    def _stream(self, duration_s: float):
        # Desynchronize clients slightly, as independent devices are.
        yield self.sim.timeout(float(self.client_id) * 0.7 / self.fps)
        interval = 1.0 / self.fps
        deadline = self.sim.now + duration_s
        frame_number = 0
        while self.sim.now < deadline:
            self._send_frame(frame_number)
            frame_number += 1
            # Camera timing has a little jitter of its own.
            wobble = float(self.rng.normal(0.0, interval * 0.01))
            yield self.sim.timeout(max(0.0, interval + wobble))
        self._running = False

    def _send_frame(self, frame_number: int) -> None:
        if self.pacer is not None and not self._pace(frame_number):
            return
        record = FrameRecord(
            client_id=self.client_id, frame_number=frame_number,
            reply_to=self.address, step="primary",
            created_s=self.sim.now,
            size_bytes=config.WIRE_SIZES["client->primary"])
        if self.session_epoch > 0:
            record.meta["session_epoch"] = self.session_epoch
        self.stats.record_sent(frame_number, self.sim.now)
        if self.tracer is not None:
            self.tracer.ensure((self.client_id, frame_number),
                               self.sim.now)
        if self.handover_window and self.breaker is not None:
            # Mid-handover the session state is in flight between
            # sites: answer locally instead of racing the move.
            self._degrade(record)
            return
        if self.breaker is None:
            self._transmit(record)
        else:
            self._dispatch(record, attempt=0)

    def _pace(self, frame_number: int) -> bool:
        """Flow-control gate on one send; ``False`` sheds the frame.

        A frame is withheld when the ingress sidecar's advertised
        credits are exhausted (it would only age out in the queue) or
        the client's own token bucket is dry.  Withheld frames stay in
        the send log as *paced* — honest accounting: they count
        against the success rate like any other unanswered frame.
        """
        assert self.pacer is not None
        now = self.sim.now
        admitted = (self.ingress_credits is None
                    or self.ingress_credits.take(now))
        if admitted:
            admitted = self.pacer.take(now)
        if not admitted:
            self.stats.record_sent(frame_number, now)
            self.stats.record_paced(frame_number, now)
        return admitted

    def _transmit(self, record: FrameRecord) -> bool:
        try:
            ingress = self.registry.resolve("primary")
        except LookupError:
            return False  # pipeline not deployed: the frame is lost
        datagram = Datagram(payload=record, size_bytes=record.size_bytes,
                            src=self.address, dst=ingress)
        self.network.send(self.node, ingress, datagram,
                          record.size_bytes)
        return True

    # ------------------------------------------------------------------
    # Resilient send path
    # ------------------------------------------------------------------
    def _dispatch(self, record: FrameRecord, attempt: int) -> None:
        """Send (or re-send) one frame under breaker control."""
        if record.frame_number in self.stats.received:
            return  # a retry raced a late result
        if not self.breaker.allow():
            self._degrade(record)
            return
        # A failed resolve (registry empty: every replica dead or
        # suspected) still consumes the timeout window, so the breaker
        # learns about it the same way it learns about silence.
        self._transmit(record)
        self.sim.schedule(REQUEST_TIMEOUT_S, self._check_timeout, record,
                          attempt)

    def _check_timeout(self, record: FrameRecord, attempt: int) -> None:
        if record.frame_number in self.stats.received:
            return
        self.stats.timeouts += 1
        self.breaker.record_failure()
        next_attempt = attempt + 1
        if next_attempt >= MAX_ATTEMPTS:
            # Retry budget exhausted: the frame is lost, with a paper
            # trail (conservation audits match every sent frame to a
            # verdict; a late result still supersedes this one).
            self.stats.record_lost(record.frame_number,
                                   "retry-exhausted")
            return
        if not self.breaker.allow():
            self._degrade(record)
            return
        self.stats.retries += 1
        delay = min(RETRY_BASE_DELAY_S * RETRY_MULTIPLIER ** attempt,
                    RETRY_MAX_DELAY_S)
        delay *= 1.0 + RETRY_JITTER * float(self.rng.uniform(-1.0, 1.0))
        self.sim.schedule(delay, self._dispatch, record, next_attempt)

    def _degrade(self, record: FrameRecord) -> None:
        """Answer a frame locally, after the fallback latency."""
        self.sim.schedule(FALLBACK_LATENCY_S, self._complete_degraded,
                          record.frame_number)

    def _complete_degraded(self, frame_number: int) -> None:
        if frame_number in self.stats.received:
            return  # a late pipeline result beat the local answer
        self.stats.record_degraded(frame_number, self.sim.now)
