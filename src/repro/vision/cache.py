"""Content-addressed feature cache (CloudAR-style recognition reuse).

CloudAR (Zhang et al.) shows that frame-level recognition caching is
the key throughput lever for multi-client AR offloading: concurrent
clients looking at the same scene submit near-identical frames, so
the expensive SIFT→PCA→Fisher pipeline repeats work.  In the
simulator the same redundancy appears one level up — campaign cells
replay the same synthetic videos across client counts, repetitions,
and seeds — so one extraction can serve thousands of simulated
frames.

Keying is *content-addressed*: the cache key is a blake2b digest of
the frame's raw bytes (dtype + shape + buffer) combined with a
fingerprint of the kernel configuration that would process it
(extractor parameters, PCA basis, GMM parameters).  Two consequences:

* **Correct by construction** — a hit can only occur when both the
  pixels and every parameter that influences the output are
  identical, so a cached result is bit-identical to a recompute.
  There is no invalidation protocol; changing any parameter changes
  the key.
* **Invisible to the determinism contract** — the cache changes only
  *real* wall time; no simulation runs vision, so no trace digest can
  see it (hits are checked bit-identical to recomputes by
  ``tests/test_kernel_equivalence.py``).

Bounds: LRU over an :class:`collections.OrderedDict`, limited by both
entry count and total payload bytes.  Counters are surfaced as
:class:`repro.metrics.summary.CacheStats` snapshots.

Scoping: there is no process-wide cache.  Whoever runs the kernels
owns a cache and passes it in (``FrameFeatureExtractor(cache=)``,
``ObjectRecognizer(feature_cache=)``); ``None`` means uncached.  Stats
are read from the cache itself (:meth:`FeatureCache.stats`); no cell
summary carries them.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Iterable, Optional, Tuple

import numpy as np

from repro.metrics.summary import CacheStats


def array_digest(array: np.ndarray) -> str:
    """Content digest of an array: dtype + shape + raw bytes."""
    data = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(data.dtype).encode())
    h.update(repr(data.shape).encode())
    h.update(data.tobytes())
    return h.hexdigest()


def config_fingerprint(*parts: Any) -> str:
    """Digest of a kernel configuration.

    Accepts scalars, strings, tuples and arrays; arrays contribute
    their full content so e.g. two PCA bases trained on different
    data never collide.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(array_digest(part).encode())
        else:
            h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def _payload_nbytes(payload: Any) -> int:
    """Approximate retained size of a cached payload."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_nbytes(item) for item in payload)
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    return 64  # scalars, small objects: flat-rate estimate


def _freeze(payload: Any) -> Any:
    """Make cached arrays read-only so no caller can corrupt a hit."""
    if isinstance(payload, np.ndarray):
        payload.setflags(write=False)
        return payload
    if isinstance(payload, tuple):
        return tuple(_freeze(item) for item in payload)
    if isinstance(payload, list):
        return [_freeze(item) for item in payload]
    return payload


class FeatureCache:
    """Bounded LRU cache mapping content digests to kernel outputs.

    Payloads are stored *frozen* (numpy arrays flipped read-only):
    every consumer of a hit sees exactly the object that was inserted,
    and accidental in-place mutation raises instead of silently
    poisoning later hits.
    """

    def __init__(self, max_entries: int = 4096,
                 max_bytes: int = 256 * 1024 * 1024):
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(
                f"max_bytes must be >= 1, got {max_bytes}")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[Tuple[str, ...], Any]" = \
            OrderedDict()
        self._sizes: "OrderedDict[Tuple[str, ...], int]" = \
            OrderedDict()
        self._size_bytes = 0
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        return self._size_bytes

    def get(self, key: Tuple[str, ...]) -> Optional[Any]:
        """Look up ``key``; a hit refreshes LRU recency."""
        if key in self._entries:
            self._hits += 1
            self._entries.move_to_end(key)
            self._sizes.move_to_end(key)
            return self._entries[key]
        self._misses += 1
        return None

    def put(self, key: Tuple[str, ...], payload: Any) -> Any:
        """Insert ``payload`` under ``key``; returns the frozen payload.

        Inserting an existing key refreshes its payload and recency.
        Oversized payloads (larger than ``max_bytes`` alone) are
        returned frozen but not retained.
        """
        frozen = _freeze(payload)
        nbytes = _payload_nbytes(frozen)
        if nbytes > self.max_bytes:
            return frozen
        if key in self._entries:
            self._size_bytes -= self._sizes[key]
            del self._entries[key]
            del self._sizes[key]
        self._entries[key] = frozen
        self._sizes[key] = nbytes
        self._size_bytes += nbytes
        self._insertions += 1
        while (len(self._entries) > self.max_entries
               or self._size_bytes > self.max_bytes):
            evicted_key, _ = self._entries.popitem(last=False)
            self._size_bytes -= self._sizes.pop(evicted_key)
            self._evictions += 1
        return frozen

    def get_or_compute(self, key: Tuple[str, ...], compute) -> Any:
        """Return the cached payload for ``key`` or compute + insert."""
        cached = self.get(key)
        if cached is not None:
            return cached
        return self.put(key, compute())

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        self._entries.clear()
        self._sizes.clear()
        self._size_bytes = 0

    def keys(self) -> Iterable[Tuple[str, ...]]:
        """Keys in LRU order (least recently used first)."""
        return tuple(self._entries.keys())

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            insertions=self._insertions,
            evictions=self._evictions,
            entries=len(self._entries),
            size_bytes=self._size_bytes,
        )

