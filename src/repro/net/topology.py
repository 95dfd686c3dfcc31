"""Node/link graph with routing and datagram delivery.

The :class:`Network` owns all nodes, the directed links between them and
the bound datagram sockets.  Delivery walks the (precomputed) shortest
path hop by hop: each hop applies that link's loss, queueing and delay,
so a multi-hop path (client → E1 → E2) composes impairments exactly as
the physical testbed would.  The testbed is a handful of nodes, so
routes come from a plain Dijkstra over an adjacency dict.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.net.addresses import Address
from repro.net.link import Link
from repro.net.netem import Netem
from repro.sim.kernel import Simulator


class NetworkError(RuntimeError):
    """Raised for topology misuse (unknown nodes, no route, port clash)."""


class Network:
    """The simulated interconnect."""

    def __init__(self, sim: Simulator,
                 rng: Optional[np.random.Generator] = None):
        self.sim = sim
        self.rng = rng if rng is not None else np.random.default_rng(0)
        #: node -> {neighbour: one-way latency}, in insertion order.
        self._adjacency: Dict[str, Dict[str, float]] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._sockets: Dict[Address, Callable] = {}
        self._routes: Dict[Tuple[str, str], List[str]] = {}
        self.stats_delivered = 0
        self.stats_lost = 0

    # ------------------------------------------------------------------
    # Topology construction
    # ------------------------------------------------------------------
    def add_node(self, name: str) -> None:
        self._adjacency.setdefault(name, {})

    def has_node(self, name: str) -> bool:
        return name in self._adjacency

    def nodes(self) -> List[str]:
        return sorted(self._adjacency)

    def add_link(self, src: str, dst: str, *, rtt_s: float,
                 bandwidth_bps: float = 1e9, jitter_s: float = 0.0,
                 loss: float = 0.0, netem: Optional[Netem] = None,
                 symmetric: bool = True) -> None:
        """Wire ``src`` and ``dst`` with one-way latency ``rtt_s / 2``.

        With ``symmetric=True`` (default) the reverse direction is
        created with identical parameters.
        """
        for name in (src, dst):
            self.add_node(name)
        directions = [(src, dst), (dst, src)] if symmetric else [(src, dst)]
        for a, b in directions:
            link = Link(self.sim, a, b, latency_s=rtt_s / 2.0,
                        bandwidth_bps=bandwidth_bps, jitter_s=jitter_s,
                        loss=loss, rng=self.rng, netem=netem)
            self._links[(a, b)] = link
            self._adjacency[a][b] = rtt_s / 2.0
        self._routes.clear()

    def link(self, src: str, dst: str) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise NetworkError(f"no link {src} -> {dst}") from None

    def set_netem(self, src: str, dst: str, netem: Optional[Netem],
                  symmetric: bool = True) -> None:
        """Attach/replace a netem profile on an existing link."""
        self.link(src, dst).netem = netem
        if symmetric:
            self.link(dst, src).netem = netem

    def partition(self, group_a: Iterable[str],
                  group_b: Iterable[str]) -> List[Tuple[str, str,
                                                        Optional[Netem]]]:
        """Blackhole every direct link crossing the two node groups.

        Models a network partition the way ``tc netem loss 100%`` does:
        links stay up (routes unchanged) but every packet crossing the
        cut is dropped — control-plane probes included.  Returns the
        saved pre-partition netem profiles; pass them to :meth:`heal`.
        """
        saved: List[Tuple[str, str, Optional[Netem]]] = []
        for a in group_a:
            for b in group_b:
                for src, dst in ((a, b), (b, a)):
                    link = self._links.get((src, dst))
                    if link is None:
                        continue
                    saved.append((src, dst, link.netem))
                    link.netem = Netem(loss=1.0)
        if not saved:
            raise NetworkError(
                f"no links cross the partition {sorted(group_a)} | "
                f"{sorted(group_b)}")
        return saved

    def heal(self, saved: List[Tuple[str, str, Optional[Netem]]]) -> None:
        """Undo a :meth:`partition`, restoring the saved profiles."""
        for src, dst, netem in saved:
            link = self._links.get((src, dst))
            if link is not None:
                link.netem = netem

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> List[str]:
        """Shortest-latency node path from ``src`` to ``dst`` (cached)."""
        if src == dst:
            return [src]
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            path = self._shortest_path(src, dst)
            self._routes[key] = path
        return path

    def _shortest_path(self, src: str, dst: str) -> List[str]:
        """Dijkstra over one-way link latencies.

        Of two equally short paths the first one found wins; the paper
        testbed has no such ties.
        """
        for name in (src, dst):
            if name not in self._adjacency:
                raise NetworkError(
                    f"no route {src} -> {dst}: unknown node {name!r}")
        distance = {src: 0.0}
        previous: Dict[str, str] = {}
        frontier = [(0.0, src)]
        while frontier:
            reached, node = heapq.heappop(frontier)
            if node == dst:
                path = [dst]
                while path[-1] != src:
                    path.append(previous[path[-1]])
                return path[::-1]
            if reached > distance[node]:
                continue  # superseded by a shorter entry
            for neighbour, latency in self._adjacency[node].items():
                candidate = reached + latency
                if candidate < distance.get(neighbour, float("inf")):
                    distance[neighbour] = candidate
                    previous[neighbour] = node
                    heapq.heappush(frontier, (candidate, neighbour))
        raise NetworkError(f"no route {src} -> {dst}")

    def path_rtt(self, src: str, dst: str) -> float:
        """Sum of link RTTs along the route (no queueing/jitter)."""
        path = self.route(src, dst)
        one_way = sum(self._links[(a, b)].latency_s
                      for a, b in zip(path, path[1:]))
        return 2.0 * one_way

    # ------------------------------------------------------------------
    # Socket binding and delivery
    # ------------------------------------------------------------------
    def bind(self, address: Address, handler: Callable) -> None:
        """Register a delivery callback for ``address``."""
        if address.node not in self._adjacency:
            raise NetworkError(f"unknown node {address.node!r}")
        if address in self._sockets:
            raise NetworkError(f"address {address} already bound")
        self._sockets[address] = handler

    def unbind(self, address: Address) -> None:
        self._sockets.pop(address, None)

    def is_bound(self, address: Address) -> bool:
        return address in self._sockets

    def send(self, src: str, dst_address: Address, payload: object,
             size_bytes: int) -> bool:
        """Best-effort datagram delivery.

        Returns ``True`` if the packet survived every hop and was
        scheduled for delivery (the caller learns nothing more — this is
        UDP).  Local delivery (``src == dst``) is immediate and lossless.
        """
        if size_bytes < 0:
            raise NetworkError(f"negative size {size_bytes}")
        path = self.route(src, dst_address.node)
        total_delay = 0.0
        for a, b in zip(path, path[1:]):
            delay = self._links[(a, b)].transmit(size_bytes)
            if delay is None:
                self.stats_lost += 1
                return False
            total_delay += delay
        self.stats_delivered += 1
        self.sim.schedule(total_delay, self._deliver, dst_address, payload)
        return True

    def deliver_after(self, delay: float, address: Address,
                      payload: object) -> None:
        """Schedule direct delivery to a bound address (used by the
        reliable RPC layer, which computes its own path delay)."""
        self.sim.schedule(delay, self._deliver, address, payload)

    def _deliver(self, address: Address, payload: object) -> None:
        handler = self._sockets.get(address)
        if handler is not None:
            handler(payload)
        # An unbound address silently eats the packet, as UDP would.
