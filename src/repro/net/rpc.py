"""Reliable request/response channel (gRPC stand-in).

scAtteR++'s sidecar hands frames to its attached service over gRPC
(§5).  Unlike the datagram path, RPCs are *reliable*: a lost packet is
retransmitted (with a retransmission timeout penalty) rather than
silently dropped, which is exactly the behavioural difference that
matters for the pipeline.  The server side dispatches requests to a
handler coroutine; responses travel back over the same route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro.net.addresses import Address
from repro.net.datagram import Datagram
from repro.net.topology import Network, NetworkError
from repro.sim.kernel import Signal, Waitable

#: Retransmission timeout charged per lost transmission attempt.  With
#: sidecars co-located with their service the RPC path is usually a
#: loopback, so this rarely triggers.
RETRANSMIT_TIMEOUT_S = 0.020

#: Give up after this many transmission attempts.
MAX_ATTEMPTS = 8

#: When a transfer every attempt loses fails: the time the modelled
#: retransmissions take.
GIVE_UP_S = MAX_ATTEMPTS * RETRANSMIT_TIMEOUT_S


class RpcTimeoutError(RuntimeError):
    """Raised inside callers when an RPC exhausts its attempts."""


@dataclass(slots=True)
class _RpcEnvelope:
    request: object
    size_bytes: int
    reply_to: Signal
    src_node: str


RpcHandler = Callable[[object], Generator]


class RpcServer:
    """Binds an address and dispatches incoming RPCs to a handler.

    The handler is a *generator function* ``handler(request)`` executed
    as a simulation process; its return value is the RPC response.
    Requests are handled concurrently — admission control is the
    caller's job (the sidecar serializes calls itself).
    """

    def __init__(self, network: Network, address: Address,
                 handler: RpcHandler):
        self.network = network
        self.address = address
        self.handler = handler
        self.requests_served = 0
        network.bind(address, self._on_request)

    def close(self) -> None:
        self.network.unbind(self.address)

    def _on_request(self, envelope: _RpcEnvelope) -> None:
        self.network.sim.spawn(self._serve(envelope),
                               name=f"rpc-serve-{self.address}")

    def _serve(self, envelope: _RpcEnvelope):
        response = yield self.network.sim.spawn(
            self.handler(envelope.request))
        self.requests_served += 1
        # Deliver the response reliably back to the caller.
        delay = reliable_path_delay(self.network, self.address.node,
                                     envelope.src_node,
                                     size_bytes=max(64, envelope.size_bytes // 8))
        if delay is None:
            self.network.sim.schedule(
                GIVE_UP_S, envelope.reply_to.fail,
                RpcTimeoutError(f"response from {self.address} lost "
                                f"after {MAX_ATTEMPTS} attempts"))
        else:
            self.network.sim.schedule(delay, envelope.reply_to.fire, response)


class RpcChannel:
    """Client side: issue reliable calls from a node to an address."""

    def __init__(self, network: Network, src_node: str):
        if not network.has_node(src_node):
            raise NetworkError(f"unknown node {src_node!r}")
        self.network = network
        self.src_node = src_node
        #: Source address of notifications: the node, no port.
        self._notify_src = Address(src_node, 0)
        self.calls_issued = 0
        self.notifications_sent = 0

    def call(self, dst: Address, request: object,
             size_bytes: int) -> Waitable:
        """Issue an RPC; the returned waitable fires with the response
        (or raises :class:`RpcTimeoutError` in the waiter)."""
        self.calls_issued += 1
        reply = Signal(self.network.sim)
        envelope = _RpcEnvelope(request=request, size_bytes=size_bytes,
                                reply_to=reply, src_node=self.src_node)
        delay = reliable_path_delay(self.network, self.src_node, dst.node,
                                     size_bytes=size_bytes)
        if delay is None:
            self.network.sim.schedule(
                GIVE_UP_S, reply.fail,
                RpcTimeoutError(f"request to {dst} lost after "
                                f"{MAX_ATTEMPTS} attempts"))
        else:
            self.network.deliver_after(delay, dst, envelope)
        return reply

    def notify(self, dst: Address, payload: object,
               size_bytes: int) -> bool:
        """One-way reliable delivery of a control message.

        Used by the flow substrate for credit advertisements: the
        receiver gets a plain :class:`~repro.net.datagram.Datagram`
        (its normal ingress handler sees the payload), no response
        travels back, and the caller never blocks.  Returns whether
        the message survived the path.
        """
        self.notifications_sent += 1
        delay = reliable_path_delay(self.network, self.src_node,
                                    dst.node, size_bytes=size_bytes)
        if delay is None:
            return False
        datagram = Datagram(payload=payload, size_bytes=size_bytes,
                            src=self._notify_src, dst=dst)
        self.network.deliver_after(delay, dst, datagram)
        return True


def reliable_path_delay(network: Network, src: str, dst: str,
                        size_bytes: int) -> Optional[float]:
    """Delay for a reliable transfer ``src -> dst``.

    Walks the route like a datagram, but a per-hop loss draw costs a
    retransmission timeout instead of losing the message.  Returns
    ``None`` only when every attempt on some hop is lost.
    """
    if src == dst:
        return 0.0
    total = 0.0
    for link in network.route_links(src, dst):
        for attempt in range(MAX_ATTEMPTS):
            delay = link.transmit(size_bytes)
            if delay is not None:
                total += delay + attempt * RETRANSMIT_TIMEOUT_S
                break
        else:
            return None
    return total
