"""Point-to-point link model.

A link carries packets with:

* one-way propagation latency (half the configured RTT),
* serialization delay (size / bandwidth) with FIFO queueing at the
  sender — the link's transmitter is busy while a packet serializes,
* Gaussian jitter (truncated at zero) on top of propagation,
* independent per-packet loss, and
* an optional :class:`~repro.net.netem.Netem` impairment stage, the
  equivalent of attaching ``tc netem`` to the egress interface.

Delay bookkeeping uses a ``busy_until`` watermark instead of a full
transmitter process: serialization of packet *n+1* starts when packet
*n* finishes, which models egress queueing exactly for FIFO links while
keeping the event count low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.netem import Netem
from repro.sim.kernel import Simulator


@dataclass
class LinkStats:
    """Counters exposed for tests and experiment reporting."""

    packets_sent: int = 0
    packets_dropped: int = 0
    bytes_sent: int = 0
    busy_time: float = 0.0


class Link:
    """A one-way link between two named nodes."""

    #: Ethernet MTU: a frame bigger than this travels as multiple UDP
    #: fragments, and losing any fragment loses the whole frame.
    MTU_BYTES = 1500

    def __init__(self, sim: Simulator, src: str, dst: str, *,
                 latency_s: float, bandwidth_bps: float,
                 jitter_s: float = 0.0, loss: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 netem: Optional[Netem] = None):
        if latency_s < 0:
            raise ValueError(f"negative latency {latency_s}")
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if not 0.0 <= loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {loss}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self.jitter_s = jitter_s
        self.loss = loss
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.netem = netem
        self.stats = LinkStats()
        self._busy_until = 0.0

    def transmit(self, size_bytes: int) -> Optional[float]:
        """Send a packet of ``size_bytes``.

        Returns the one-way delivery delay in seconds, or ``None`` if
        the packet was lost (link loss or netem loss).
        """
        stats = self.stats
        netem = self.netem
        stats.packets_sent += 1

        # Per-fragment loss: an application frame of ``size_bytes``
        # rides ceil(size/MTU) UDP fragments, and one lost fragment
        # loses the frame.  This is why sub-percent packet loss visibly
        # dents the frame success rate of a 180 KB-per-frame stream.
        # The fragment math runs only on lossy links — the RNG draw
        # sequence (one draw per packet iff loss is possible) is
        # unchanged.
        per_fragment_loss = self.loss
        if netem is not None and netem.loss > 0.0:
            per_fragment_loss = 1.0 - ((1.0 - per_fragment_loss)
                                       * (1.0 - netem.loss))
        if per_fragment_loss > 0.0:
            fragments = max(1, -(-size_bytes // self.MTU_BYTES))
            frame_loss = 1.0 - (1.0 - per_fragment_loss) ** fragments
            if self.rng.random() < frame_loss:
                stats.packets_dropped += 1
                return None

        # NB: the serialization expression must stay ``(bytes * 8) /
        # bandwidth`` verbatim — precomputing a reciprocal changes the
        # result in the last ulp, which shifts event times and breaks
        # the golden digests.
        now = self.sim.now
        serialization = (size_bytes * 8.0) / self.bandwidth_bps
        busy_until = self._busy_until
        start = now if now >= busy_until else busy_until
        self._busy_until = start + serialization
        queue_wait = start - now
        stats.busy_time += serialization
        stats.bytes_sent += size_bytes

        delay = queue_wait + serialization + self.latency_s
        if self.jitter_s > 0.0:
            delay += abs(float(self.rng.normal(0.0, self.jitter_s)))
        if netem is not None:
            delay += netem.extra_delay(self.rng)
        return delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Link({self.src}->{self.dst}, {self.latency_s * 1e3:.2f} ms, "
                f"{self.bandwidth_bps / 1e9:.2f} Gbps)")
