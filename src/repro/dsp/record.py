"""The message that travels between pipeline services.

The paper (§3.1): "Intermediary results transferred between services
include client ID, frame number, client's IP address and port number,
and the current pipeline step — allowing us to map multiple client
inputs to the same service instance."  :class:`FrameRecord` carries
exactly that, plus timestamps for QoS accounting and a small metadata
dict for stage artifacts (descriptor counts, shortlists, sidecar
telemetry).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.net.addresses import Address


class RecordKind(enum.Enum):
    """What a datagram means to the receiving service."""

    FRAME = "frame"                    # a frame travelling downstream
    FETCH = "fetch"                    # matching -> sift state request
    FETCH_RESPONSE = "fetch_response"  # sift -> matching state reply
    RESULT = "result"                  # matching -> client final output


@dataclass(slots=True)
class FrameRecord:
    """One unit of pipeline work.

    Slotted: every hop of every frame allocates one.
    """

    client_id: int
    frame_number: int
    reply_to: Address          # the client's address (IP:port)
    step: str                  # current pipeline step (service name)
    created_s: float           # client-side capture timestamp
    size_bytes: int            # current wire size of the record
    kind: RecordKind = RecordKind.FRAME
    #: The sift replica holding this frame's state (set by sift in
    #: scAtteR; the state tie-in that defeats load balancing, §4).
    sift_address: Optional[Address] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> tuple:
        """Identity of the frame across the pipeline."""
        return (self.client_id, self.frame_number)

    def advanced(self, step: str, *, size_bytes: Optional[int] = None,
                 kind: Optional[RecordKind] = None,
                 **meta: Any) -> "FrameRecord":
        """A copy of this record moved to the next pipeline step.

        Built field by field: every hop of every frame copies a record,
        and ``dataclasses.replace`` costs three times as much.
        """
        return FrameRecord(
            self.client_id, self.frame_number, self.reply_to, step,
            self.created_s,
            self.size_bytes if size_bytes is None else size_bytes,
            self.kind if kind is None else kind,
            self.sift_address,
            {**self.meta, **meta} if meta else dict(self.meta))
