"""Named deterministic random streams.

Every stochastic element of the testbed (link jitter, loss draws, netem
oscillation, service-time noise, scene generation) pulls from its own
named stream so that adding a new consumer never perturbs existing ones.
Streams are derived from a root seed with ``numpy.random.SeedSequence``
spawning keyed children, which gives high-quality independent streams.
"""

from __future__ import annotations

import binascii
from typing import Dict

import numpy as np


class RngRegistry:
    """Factory of independent named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identical stream,
        independent of creation order.
        """
        generator = self._streams.get(name)
        if generator is None:
            key = binascii.crc32(name.encode("utf-8"))
            sequence = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(key,))
            generator = np.random.default_rng(sequence)
            self._streams[name] = generator
        return generator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self.seed}, streams={sorted(self._streams)})"
