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
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.net.addresses import Address


class RecordKind(enum.Enum):
    """What a datagram means to the receiving service."""

    FRAME = "frame"                    # a frame travelling downstream
    FETCH = "fetch"                    # matching -> sift state request
    FETCH_RESPONSE = "fetch_response"  # sift -> matching state reply
    RESULT = "result"                  # matching -> client final output


@dataclass
class FrameRecord:
    """One unit of pipeline work."""

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
        """A copy of this record moved to the next pipeline step."""
        updated = replace(self, step=step)
        if size_bytes is not None:
            updated.size_bytes = size_bytes
        if kind is not None:
            updated.kind = kind
        if meta:
            updated.meta = {**self.meta, **meta}
        else:
            updated.meta = dict(self.meta)
        return updated

    def age_s(self, now: float) -> float:
        """Time since client capture — what the sidecar thresholds on."""
        return now - self.created_s
