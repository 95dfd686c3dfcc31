"""Mergeable streaming percentile sketches.

City-scale cells record millions of latency and queue-wait samples
per run; a bounded sample reservoir caps memory but *subsamples*, and
reservoirs from different campaign shards cannot be combined without
re-biasing.  The :class:`PercentileSketch` here is a DDSketch-style
log-bucketed histogram instead:

* **Constant memory** — samples land in geometrically spaced buckets;
  the bucket population grows with the sample's dynamic range, not its
  count, and is hard-capped by ``max_bins`` (lowest-magnitude buckets
  collapse first, the tail percentiles stay exact-bucketed).
* **Bounded relative error** — any quantile estimate ``est`` for a
  true order statistic ``x`` satisfies ``|est - x| <= alpha * |x|``
  for ``|x| >= min_magnitude`` (values below ``min_magnitude`` are
  binned as zero, an absolute error of at most ``min_magnitude``).
* **Mergeable** — ``merge`` adds bucket populations, which is exact,
  commutative and (absent the ``max_bins`` collapse) associative, so
  campaign workers can sketch independently and the parent can fold
  the shards losslessly.
* **Deterministic and serializable** — no RNG anywhere, and
  ``to_dict``/``from_dict`` round-trip through JSON across process
  boundaries (the same contract the trace digests ride on).

The sketch additionally tracks the exact ``sum``/``minimum``/
``maximum`` of everything it absorbed, so means and extrema are not
subject to the bucket error at all — invariant checks that previously
iterated raw reservoir samples can assert against ``maximum`` exactly.

Everything here is pure state: no simulation events, no RNG draws —
swapping a reservoir for a sketch is trajectory-neutral by
construction (the golden trace digests pin this).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

#: Default relative-error bound for quantile estimates.
DEFAULT_ALPHA = 0.01

#: Default cap on the live bucket population (per sign).  With
#: ``alpha=0.01`` this spans > 10^17 of dynamic range before any
#: collapse happens — latency data never gets close.
DEFAULT_MAX_BINS = 2048

#: Magnitudes below this are indistinguishable from zero (latencies
#: are seconds; a nanosecond is far below anything the simulator can
#: produce).
DEFAULT_MIN_MAGNITUDE = 1e-9


class PercentileSketch:
    """A mergeable, constant-memory quantile sketch.

    Drop-in for the places a sample reservoir used to sit:
    ``append``/``extend`` record samples, ``total`` counts every
    offered sample exactly, truthiness reflects emptiness.  On top of
    that it answers ``quantile(q)`` within ``alpha`` relative error
    and merges losslessly with sketches from other shards.
    """

    __slots__ = ("alpha", "max_bins", "min_magnitude", "_gamma",
                 "_log_gamma", "_pos", "_neg", "_zeros", "total",
                 "skipped_nonfinite", "collapsed", "_sum", "_min",
                 "_max")

    def __init__(self, alpha: float = DEFAULT_ALPHA,
                 max_bins: int = DEFAULT_MAX_BINS,
                 min_magnitude: float = DEFAULT_MIN_MAGNITUDE):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if max_bins < 2:
            raise ValueError(f"max_bins must be >= 2, got {max_bins}")
        if min_magnitude <= 0.0:
            raise ValueError(
                f"min_magnitude must be positive, got {min_magnitude}")
        self.alpha = alpha
        self.max_bins = max_bins
        self.min_magnitude = min_magnitude
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        #: bucket index -> sample count, positive / negative values.
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zeros = 0
        #: Every sample ever offered, finite or not (exact).
        self.total = 0
        #: NaN/inf placeholders skipped (exact).
        self.skipped_nonfinite = 0
        #: Samples whose bucket was collapsed into a coarser one —
        #: their quantile error bound is no longer ``alpha``.
        self.collapsed = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def insert(self, value: float, count: int = 1) -> None:
        """Record ``value`` with multiplicity ``count``.

        The weighted form is what lets a cohort engine fold an entire
        tick's worth of identical modeled frames in O(1).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return
        value = float(value)
        self.total += count
        if not math.isfinite(value):
            self.skipped_nonfinite += count
            return
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._bin(value, count)

    def append(self, value: float) -> None:
        """Record one sample: :meth:`insert` with ``count=1``, the
        arithmetic unchanged (``value * 1`` is ``value``)."""
        value = float(value)
        self.total += 1
        if not math.isfinite(value):
            self.skipped_nonfinite += 1
            return
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._bin(value, 1)

    def _bin(self, value: float, count: int) -> None:
        """Count a finite ``value`` ``count`` times in its bucket."""
        magnitude = abs(value)
        if magnitude < self.min_magnitude:
            self._zeros += count
            return
        bins = self._pos if value > 0.0 else self._neg
        index = int(math.ceil(math.log(magnitude) / self._log_gamma))
        bins[index] = bins.get(index, 0) + count
        if len(bins) > self.max_bins:
            self._collapse(bins)

    def extend(self, values: Iterable[float]) -> None:
        """Bulk-record samples (vectorized binning)."""
        array = np.asarray(values if isinstance(values, np.ndarray)
                           else list(values), dtype=float).ravel()
        if array.size == 0:
            return
        self.total += int(array.size)
        finite = array[np.isfinite(array)]
        self.skipped_nonfinite += int(array.size - finite.size)
        if finite.size == 0:
            return
        self._sum += float(finite.sum())
        self._min = min(self._min, float(finite.min()))
        self._max = max(self._max, float(finite.max()))
        magnitudes = np.abs(finite)
        near_zero = magnitudes < self.min_magnitude
        self._zeros += int(np.count_nonzero(near_zero))
        for bins, values_signed in (
                (self._pos, finite[(finite > 0.0) & ~near_zero]),
                (self._neg, finite[(finite < 0.0) & ~near_zero])):
            if values_signed.size == 0:
                continue
            indices = np.ceil(
                np.log(np.abs(values_signed)) / self._log_gamma
            ).astype(np.int64)
            unique, counts = np.unique(indices, return_counts=True)
            for index, count in zip(unique.tolist(), counts.tolist()):
                bins[index] = bins.get(index, 0) + count
            if len(bins) > self.max_bins:
                self._collapse(bins)

    def _collapse(self, bins: Dict[int, int]) -> None:
        """Fold lowest-magnitude buckets together to honor max_bins.

        The smallest indices merge upward into the lowest kept bucket:
        tail percentiles (the ones XR budgets care about) keep their
        ``alpha`` bound; the collapsed head is only guaranteed to stay
        below the kept bucket's value.  ``collapsed`` counts the
        samples that lost their bound, surfacing as
        :attr:`overflow_ratio`.
        """
        while len(bins) > self.max_bins:
            lowest = sorted(bins)[:len(bins) - self.max_bins + 1]
            keeper = lowest[-1]
            moved = 0
            for index in lowest[:-1]:
                moved += bins.pop(index)
            bins[keeper] += moved
            self.collapsed += moved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Finite samples recorded (``total`` minus skipped)."""
        return self.total - self.skipped_nonfinite

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        """Exact mean of the recorded finite samples (0.0 if empty)."""
        return self._sum / self.count if self.count else 0.0

    @property
    def minimum(self) -> Optional[float]:
        """Exact minimum recorded, or ``None`` when empty."""
        return self._min if self.count else None

    @property
    def maximum(self) -> Optional[float]:
        """Exact maximum recorded, or ``None`` when empty."""
        return self._max if self.count else None

    @property
    def bin_count(self) -> int:
        return len(self._pos) + len(self._neg) + (1 if self._zeros else 0)

    @property
    def overflow_ratio(self) -> float:
        """Fraction of samples whose error bound was collapsed away."""
        return self.collapsed / self.count if self.count else 0.0

    def __bool__(self) -> bool:
        return self.count > 0

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PercentileSketch(count={self.count}, "
                f"bins={self.bin_count}, alpha={self.alpha})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PercentileSketch):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self) -> int:  # dict equality makes us unhashable
        raise TypeError("PercentileSketch is mutable and unhashable")

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def _bucket_value(self, index: int) -> float:
        # Harmonic midpoint of (gamma^(i-1), gamma^i]: worst-case
        # relative error alpha against any value in the bucket.
        return (2.0 * self._gamma ** index) / (self._gamma + 1.0)

    def _ordered(self) -> Iterator[tuple]:
        """(value, count) in ascending value order."""
        for index in sorted(self._neg, reverse=True):
            yield -self._bucket_value(index), self._neg[index]
        if self._zeros:
            yield 0.0, self._zeros
        for index in sorted(self._pos):
            yield self._bucket_value(index), self._pos[index]

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        ``None`` when no finite sample was recorded.  The estimate is
        within ``alpha`` relative error of the true order statistic at
        rank ``floor(q/100 * (count-1))`` (values under
        ``min_magnitude`` carry an absolute bound of
        ``min_magnitude`` instead), and is clamped into the exact
        observed ``[minimum, maximum]`` — a single-sample sketch
        answers every quantile exactly.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if self.count == 0:
            return None
        rank = (q / 100.0) * (self.count - 1)
        target = int(math.floor(rank))
        cumulative = 0
        for value, count in self._ordered():
            cumulative += count
            if cumulative > target:
                return min(max(value, self._min), self._max)
        return self._max  # pragma: no cover - exhaustion is numeric

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "PercentileSketch") -> None:
        if (self.alpha != other.alpha
                or self.max_bins != other.max_bins
                or self.min_magnitude != other.min_magnitude):
            raise ValueError(
                "cannot merge sketches with different parameters: "
                f"(alpha={self.alpha}, max_bins={self.max_bins}, "
                f"min_magnitude={self.min_magnitude}) vs "
                f"(alpha={other.alpha}, max_bins={other.max_bins}, "
                f"min_magnitude={other.min_magnitude})")

    def update(self, other: "PercentileSketch") -> None:
        """Fold ``other``'s population into this sketch (in place)."""
        self._check_compatible(other)
        for bins, theirs in ((self._pos, other._pos),
                             (self._neg, other._neg)):
            for index, count in theirs.items():
                bins[index] = bins.get(index, 0) + count
            if len(bins) > self.max_bins:
                self._collapse(bins)
        self._zeros += other._zeros
        self.total += other.total
        self.skipped_nonfinite += other.skipped_nonfinite
        self.collapsed += other.collapsed
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def merge(self, other: "PercentileSketch") -> "PercentileSketch":
        """A new sketch holding both populations (inputs untouched)."""
        merged = self.copy()
        merged.update(other)
        return merged

    def copy(self) -> "PercentileSketch":
        clone = PercentileSketch(alpha=self.alpha,
                                 max_bins=self.max_bins,
                                 min_magnitude=self.min_magnitude)
        clone._pos = dict(self._pos)
        clone._neg = dict(self._neg)
        clone._zeros = self._zeros
        clone.total = self.total
        clone.skipped_nonfinite = self.skipped_nonfinite
        clone.collapsed = self.collapsed
        clone._sum = self._sum
        clone._min = self._min
        clone._max = self._max
        return clone

    # ------------------------------------------------------------------
    # Serialization (JSON-safe, canonical key order)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "alpha": self.alpha,
            "max_bins": self.max_bins,
            "min_magnitude": self.min_magnitude,
            "pos": {str(k): self._pos[k] for k in sorted(self._pos)},
            "neg": {str(k): self._neg[k] for k in sorted(self._neg)},
            "zeros": self._zeros,
            "total": self.total,
            "skipped_nonfinite": self.skipped_nonfinite,
            "collapsed": self.collapsed,
            "sum": self._sum,
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "PercentileSketch":
        sketch = cls(alpha=float(payload["alpha"]),
                     max_bins=int(payload["max_bins"]),
                     min_magnitude=float(payload["min_magnitude"]))
        sketch._pos = {int(k): int(v)
                       for k, v in payload["pos"].items()}
        sketch._neg = {int(k): int(v)
                       for k, v in payload["neg"].items()}
        sketch._zeros = int(payload["zeros"])
        sketch.total = int(payload["total"])
        sketch.skipped_nonfinite = int(payload["skipped_nonfinite"])
        sketch.collapsed = int(payload["collapsed"])
        sketch._sum = float(payload["sum"])
        sketch._min = (math.inf if payload["min"] is None
                       else float(payload["min"]))
        sketch._max = (-math.inf if payload["max"] is None
                       else float(payload["max"]))
        return sketch


def merge_sketches(sketches: Iterable[PercentileSketch]
                   ) -> Optional[PercentileSketch]:
    """Fold any number of shard sketches into one (``None`` if none)."""
    merged: Optional[PercentileSketch] = None
    for sketch in sketches:
        if merged is None:
            merged = sketch.copy()
        else:
            merged.update(sketch)
    return merged
