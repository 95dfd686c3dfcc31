"""Deterministic client-mobility model: piecewise site attachments.

A :class:`ClientTrajectory` is the mobility primitive the ROADMAP's
scenario-diversity item asks for: a client walks through a sequence of
:class:`AttachmentSegment`\\ s, each pinning it to one edge site with an
access-network impairment profile (the existing netem machinery — a
WiFi-6 cell at the near site, an LTE macro cell while roaming to the
far one, matching the paper's Appendix A.1.1 emulation).  Segment
boundaries are the handover instants the session protocol in
:mod:`repro.mobility.handover` acts on.

Trajectories are plain data — no events, no RNG at use time — so a
mobility-off run never touches this module and the golden trace
digests stay bit-identical.  The generator draws dwell times from a
caller-supplied stream of the experiment's
:class:`~repro.sim.rng.RngRegistry`, keeping the trajectory family a
pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.netem import Netem, lte_profile, wifi6_profile


def default_site_profiles() -> Dict[str, Netem]:
    """Access profile per attachment: WiFi-6 on the near edge site,
    LTE while attached to the far one (the roaming path)."""
    return {"e1": wifi6_profile(), "e2": lte_profile()}


@dataclass(frozen=True)
class AttachmentSegment:
    """One dwell: from ``start_s`` the client is attached at ``site``.

    ``netem`` is the access-link impairment while attached (``None``
    leaves the link untouched).
    """

    start_s: float
    site: str
    netem: Optional[Netem] = None

    def __post_init__(self) -> None:
        if self.start_s < 0:
            raise ValueError(
                f"segment start must be non-negative, got {self.start_s}")
        if not self.site:
            raise ValueError("segment site must be non-empty")


@dataclass(frozen=True)
class ClientTrajectory:
    """A client's piecewise site-attachment path."""

    client_id: int
    segments: Tuple[AttachmentSegment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a trajectory needs at least one segment")
        if self.segments[0].start_s != 0.0:
            raise ValueError("the first segment must start at t=0")
        for earlier, later in zip(self.segments, self.segments[1:]):
            if later.start_s <= earlier.start_s:
                raise ValueError(
                    f"segment starts must strictly increase "
                    f"({earlier.start_s} -> {later.start_s})")

    @property
    def initial_site(self) -> str:
        return self.segments[0].site

    def handovers(self) -> List[Tuple[float, str, str]]:
        """``(at_s, from_site, to_site)`` for every site change."""
        moves = []
        for earlier, later in zip(self.segments, self.segments[1:]):
            if later.site != earlier.site:
                moves.append((later.start_s, earlier.site, later.site))
        return moves

    def netem_schedule(self) -> List[Tuple[float, Netem]]:
        """``(at_s, profile)`` pairs for ``apply_netem_schedule``."""
        return [(segment.start_s, segment.netem)
                for segment in self.segments
                if segment.netem is not None]


def random_trajectory(client_id: int, *, duration_s: float,
                      rng: np.random.Generator,
                      sites: Sequence[str] = ("e1", "e2"),
                      mean_dwell_s: float = 8.0,
                      min_dwell_s: float = 2.0,
                      site_profiles: Optional[Dict[str, Netem]] = None,
                      ) -> ClientTrajectory:
    """One random walk over ``sites`` with uniform-ish dwell times.

    Deterministic given the generator's state: dwell times are drawn
    uniformly from ``[min_dwell_s, 2 * mean_dwell_s - min_dwell_s]``
    and each move goes to a different site (round-robin when only two),
    so every segment boundary is a real handover.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    if min_dwell_s <= 0 or mean_dwell_s < min_dwell_s:
        raise ValueError(
            f"need 0 < min_dwell_s <= mean_dwell_s, got "
            f"{min_dwell_s}/{mean_dwell_s}")
    if len(sites) < 1:
        raise ValueError("need at least one site")
    profiles = (default_site_profiles() if site_profiles is None
                else site_profiles)
    start_index = int(rng.integers(0, len(sites)))
    site = sites[start_index]
    segments = [AttachmentSegment(0.0, site, profiles.get(site))]
    t = 0.0
    high = 2.0 * mean_dwell_s - min_dwell_s
    while True:
        t += float(rng.uniform(min_dwell_s, high))
        if t >= duration_s or len(sites) < 2:
            break
        others = [s for s in sites if s != site]
        site = others[int(rng.integers(0, len(others)))]
        segments.append(AttachmentSegment(t, site, profiles.get(site)))
    return ClientTrajectory(client_id=client_id,
                            segments=tuple(segments))


def default_trajectories(num_clients: int, *, duration_s: float,
                         rng: np.random.Generator,
                         sites: Sequence[str] = ("e1", "e2"),
                         mean_dwell_s: float = 8.0,
                         min_dwell_s: float = 2.0,
                         ) -> List[ClientTrajectory]:
    """One random trajectory per client from a single RNG stream."""
    return [random_trajectory(client_id, duration_s=duration_s,
                              rng=rng, sites=sites,
                              mean_dwell_s=mean_dwell_s,
                              min_dwell_s=min_dwell_s)
            for client_id in range(num_clients)]
