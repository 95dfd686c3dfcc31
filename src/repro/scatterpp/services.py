"""Stateless pipeline stages for scAtteR++ (§5).

``sift`` is "strategically redesigned to operate statelessly": the
frame's state and the extracted SIFT data are packaged *into the frame
itself*, growing it from ≈180 KB to ≈480 KB but removing the
dependency on a later fetch.  Everything downstream forwards the
packed frame, and ``matching`` finds all the data it needs in the
record — no fetch, no busy-wait, no timeout.
"""

from __future__ import annotations

from repro.dsp.operator import StreamService
from repro.dsp.record import FrameRecord, RecordKind
from repro.scatter import config

#: Wire sizes once sift packs its state into the frame (§5).
PACKED_WIRE_SIZES = {
    "sift->encoding": 480 * 1024,
    "encoding->lsh": 300 * 1024,
    "lsh->matching": 300 * 1024,
}


class StatelessSiftService(StreamService):
    """Feature extraction that encodes its state into the frame."""

    def _forward(self, record: FrameRecord) -> None:
        downstream = record.advanced(
            "encoding",
            size_bytes=PACKED_WIRE_SIZES["sift->encoding"],
            packed_state=True)
        # No store, no sift_address pin: any replica can serve any frame.
        self.send_downstream("encoding", downstream)

    def process(self, record: FrameRecord):
        yield from self.compute()
        self._forward(record)

    def process_batch(self, records):
        """Batched dispatch: one amortized extraction pass."""
        yield from self.compute_batch(records)
        for record in records:
            self._forward(record)


class PackedEncodingService(StreamService):
    """PCA + Fisher encoding, forwarding the packed frame."""

    def _forward(self, record: FrameRecord) -> None:
        downstream = record.advanced(
            "lsh", size_bytes=PACKED_WIRE_SIZES["encoding->lsh"])
        self.send_downstream("lsh", downstream)

    def process(self, record: FrameRecord):
        yield from self.compute()
        self._forward(record)

    def process_batch(self, records):
        """Batched dispatch: one pass through ``encode_batch``."""
        yield from self.compute_batch(records)
        for record in records:
            self._forward(record)


class PackedLshService(StreamService):
    """LSH shortlist, forwarding the packed frame."""

    def _forward(self, record: FrameRecord) -> None:
        downstream = record.advanced(
            "matching", size_bytes=PACKED_WIRE_SIZES["lsh->matching"])
        self.send_downstream("matching", downstream)

    def process(self, record: FrameRecord):
        yield from self.compute()
        self._forward(record)

    def process_batch(self, records):
        """Batched dispatch: signatures vectorize across the batch."""
        yield from self.compute_batch(records)
        for record in records:
            self._forward(record)


class StatelessMatchingService(StreamService):
    """Matching + pose straight from the packed frame."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.results_sent = 0

    def _forward(self, record: FrameRecord) -> None:
        result = record.advanced(
            "client", kind=RecordKind.RESULT,
            size_bytes=config.WIRE_SIZES["matching->client"])
        self.send(record.reply_to, result)
        self.results_sent += 1

    def process(self, record: FrameRecord):
        yield from self.compute()
        self._forward(record)

    def process_batch(self, records):
        yield from self.compute_batch(records)
        for record in records:
            self._forward(record)
