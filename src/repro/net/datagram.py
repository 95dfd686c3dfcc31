"""UDP-like datagrams and the health-probe packets that ride them.

scAtteR uses UDP end-to-end (§3.1): no retransmission, no ordering
guarantees beyond FIFO links, and receivers that are busy simply never
see dropped packets.  A receiver binds a handler to its address with
:meth:`~repro.net.topology.Network.bind`; each delivery hands it one
:class:`Datagram`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addresses import Address


@dataclass(slots=True)
class Datagram:
    """A received packet: payload plus addressing metadata.

    Slotted: one is allocated per send on the hot path, and the slot
    layout keeps that allocation (and attribute access) cheap.
    """

    payload: object
    size_bytes: int
    src: Address
    dst: Address


#: Wire size of a health probe/ack packet (a UDP ping with a header).
HEALTH_WIRE_BYTES = 128


@dataclass(frozen=True, slots=True)
class HealthProbe:
    """Control-plane liveness probe sent by the failure detector.

    Probes ride the same datagram network as frames, so a partition or
    blackholed address silences them exactly like application traffic —
    which is what lets the detector *discover* failures instead of
    being told about them.
    """

    seq: int
    reply_to: Address
    sent_s: float


@dataclass(frozen=True, slots=True)
class HealthAck:
    """A service instance's reply to a :class:`HealthProbe`."""

    seq: int
    instance: Address
    probe_sent_s: float
