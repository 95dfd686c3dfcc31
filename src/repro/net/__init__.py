"""Network substrate.

Models the testbed interconnect of the paper (§3.2): client NUCs wired to
edge server E1 (≤1 ms RTT), E1–E2 over LAN (≈3 ms RTT) and a public-cloud
path (≈15 ms RTT).  Provides:

* :class:`~repro.net.link.Link` — one-way link with propagation latency,
  serialization bandwidth, jitter and probabilistic loss.
* :class:`~repro.net.netem.Netem` — ``tc netem``-style impairments
  (extra delay, delay oscillation, loss) used by Appendix A.1.1.
* :class:`~repro.net.topology.Network` — node/link graph with
  shortest-path routing and datagram delivery.
* :class:`~repro.net.datagram.Datagram` — a UDP-like unreliable packet
  (scAtteR's transport).
* :class:`~repro.net.rpc.RpcChannel` — reliable request/response
  channel (the sidecar's gRPC hand-off in scAtteR++).
* :class:`~repro.net.addresses.ServiceRegistry` — Oakestra-style
  semantic addressing from service names to instance addresses.
"""

from repro.net.addresses import Address, ServiceRegistry
from repro.net.datagram import Datagram
from repro.net.link import Link
from repro.net.netem import Netem
from repro.net.rpc import RpcChannel, RpcServer, RpcTimeoutError
from repro.net.topology import Network, NetworkError

__all__ = [
    "Address",
    "Datagram",
    "Link",
    "Netem",
    "Network",
    "NetworkError",
    "RpcChannel",
    "RpcServer",
    "RpcTimeoutError",
    "ServiceRegistry",
]
