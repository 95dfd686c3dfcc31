"""The five scAtteR microservices.

Each service is a :class:`~repro.dsp.operator.StreamService` with the
paper's semantics: UDP ingress, one frame at a time, busy → drop.  The
interesting couple is ``sift`` ↔ ``matching``:

* ``sift`` stores every processed frame's features in memory and
  serves *fetch* requests from ``matching`` — so it sees 2× the
  request load of its peers, and fetches compete with new frames for
  its single processing slot (§4).
* ``matching`` busy-waits for sift's reply (dropping its own ingress
  meanwhile) and discards the frame when the fetch times out — the
  dependency loop that amplifies backpressure.
"""

from __future__ import annotations

from typing import Dict

from repro.dsp.operator import StreamService
from repro.dsp.record import FrameRecord, RecordKind
from repro.dsp.statestore import StateStore
from repro.net.addresses import Address
from repro.scatter import config
from repro.sim.kernel import Signal


class PrimaryService(StreamService):
    """Pre-processing: grayscale + dimension reduction (CPU-only)."""

    def process(self, record: FrameRecord):
        yield from self.compute()
        downstream = record.advanced(
            "sift", size_bytes=config.WIRE_SIZES["primary->sift"])
        self.send_downstream("sift", downstream)


class SiftService(StreamService):
    """Feature detection/extraction — the stateful stage."""

    def __init__(self, *, state_ttl_s: float = config.STATE_TTL_S,
                 state_entry_bytes: float = config.STATE_ENTRY_BYTES,
                 fetch_time_s: float = config.SIFT_FETCH_TIME_S,
                 **kwargs):
        super().__init__(**kwargs)
        self.state = StateStore(self.sim, self.container,
                                ttl_s=state_ttl_s)
        self.state_entry_bytes = state_entry_bytes
        self.fetch_time_s = fetch_time_s
        self.fetch_hits = 0
        self.fetch_misses = 0
        self.fetches_forwarded = 0
        #: Handover tombstones: after a client's session state moved,
        #: fetches for that client that miss here chase the state to
        #: its new home instead of silently timing out at matching.
        #: Maintained by the handover coordinator; empty otherwise.
        self.forward_table: Dict[int, Address] = {}

    def is_control(self, record: FrameRecord) -> bool:
        # Fetches are *work* — they contend with frames for the single
        # processing slot, which is exactly the 2x-load bottleneck.
        return False

    def process(self, record: FrameRecord):
        if record.kind is RecordKind.FETCH:
            yield from self._serve_fetch(record)
        else:
            yield from self._extract(record)

    def _extract(self, record: FrameRecord):
        yield from self.compute()
        # Keep the features until matching asks for them (§3.1).
        self.state.put(record.key, {"features": record.key},
                       self.state_entry_bytes)
        downstream = record.advanced(
            "encoding",
            size_bytes=config.WIRE_SIZES["sift->encoding"])
        downstream.sift_address = self.address
        self.send_downstream("encoding", downstream)

    def _serve_fetch(self, record: FrameRecord):
        # A fetch is a memory lookup + reply: it occupies sift (one
        # request at a time) and a CPU core, but no GPU kernel runs.
        yield from self.container.machine.execute_cpu(self.fetch_time_s)
        value = self.state.fetch(record.key)
        reply_address = record.meta.get("fetch_reply_to")
        if value is None:
            forward_to = self.forward_table.get(record.client_id)
            if forward_to is not None and forward_to != self.address:
                # The state moved in a session handover: chase it.
                # The forwarded fetch contends for the new replica's
                # slot like any other — redirection is work, not magic.
                self.fetches_forwarded += 1
                self.send(forward_to, record)
                return
            self.fetch_misses += 1
            return  # state expired: matching will time out
        self.fetch_hits += 1
        if isinstance(reply_address, Address):
            response = record.advanced(
                "matching", kind=RecordKind.FETCH_RESPONSE,
                size_bytes=config.WIRE_SIZES["sift->matching"])
            self.send(reply_address, response)

    def stop(self, failed: bool = False) -> None:
        # Entries dying with the replica are counted, never silent —
        # the stateful-loss cost §5 attributes to in-service state.
        if self._started:
            self.state.drop_all()
        super().stop(failed=failed)

    def crash(self) -> None:
        if self._started:
            self.state.drop_all()
        super().crash()


class EncodingService(StreamService):
    """PCA + Fisher-vector compression."""

    def process(self, record: FrameRecord):
        yield from self.compute()
        downstream = record.advanced(
            "lsh", size_bytes=config.WIRE_SIZES["encoding->lsh"])
        self.send_downstream("lsh", downstream)


class LshService(StreamService):
    """LSH nearest-neighbour shortlist."""

    def process(self, record: FrameRecord):
        yield from self.compute()
        downstream = record.advanced(
            "matching", size_bytes=config.WIRE_SIZES["lsh->matching"])
        self.send_downstream("matching", downstream)


class MatchingService(StreamService):
    """Feature matching + pose estimation; fetches sift's state."""

    def __init__(self, *, fetch_timeout_s: float = config.FETCH_TIMEOUT_S,
                 **kwargs):
        super().__init__(**kwargs)
        self.fetch_timeout_s = fetch_timeout_s
        self._pending: Dict[tuple, Signal] = {}
        self.fetch_timeouts = 0
        self.results_sent = 0

    def on_control(self, record: FrameRecord) -> None:
        if record.kind is not RecordKind.FETCH_RESPONSE:
            return
        signal = self._pending.pop(record.key, None)
        if signal is not None and not signal.fired:
            signal.fire(record)

    def process(self, record: FrameRecord):
        if record.sift_address is None:
            # A frame that never went through sift cannot be matched.
            return
        fetch = record.advanced(
            "sift", kind=RecordKind.FETCH,
            size_bytes=config.WIRE_SIZES["matching->sift"],
            fetch_reply_to=self.address)
        pending = Signal(self.sim)
        self._pending[record.key] = pending
        self.send(record.sift_address, fetch)

        timeout = self.sim.timeout(self.fetch_timeout_s)
        winner, value = yield self.sim.any_of([pending, timeout])
        if winner is timeout:
            # sift was busy (or the state expired): discard the frame.
            self._pending.pop(record.key, None)
            self.fetch_timeouts += 1
            return
        yield from self.compute()
        result = record.advanced(
            "client", kind=RecordKind.RESULT,
            size_bytes=config.WIRE_SIZES["matching->client"])
        self.send(record.reply_to, result)
        self.results_sent += 1
