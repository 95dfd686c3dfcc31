"""Small statistics helpers shared by reporting code."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np


class SampleReservoir(list):
    """A bounded sample list (Vitter's algorithm R).

    Long chaos/soak runs append latency and queue-wait samples for the
    whole run; an unbounded list grows memory linearly with virtual
    time.  The reservoir keeps a uniform subsample of at most
    ``maxlen`` values while :attr:`total` counts every offered sample,
    so means/percentiles stay unbiased and counters stay exact.
    Replacement draws come from a private seeded generator, keeping
    runs deterministic.
    """

    def __init__(self, maxlen: int = 65536, seed: int = 0x5EED):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        super().__init__()
        self.maxlen = maxlen
        self.total = 0
        self._rng = np.random.default_rng(seed)

    def append(self, value: float) -> None:
        self.total += 1
        if len(self) < self.maxlen:
            super().append(value)
            return
        slot = int(self._rng.integers(0, self.total))
        if slot < self.maxlen:
            self[slot] = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.append(value)

    @property
    def overflow_ratio(self) -> float:
        """Fraction of offered samples not retained (subsampled away).

        The reservoir analogue of a sketch's collapsed fraction: both
        surface through :class:`Summary` under the same name, so a
        report cannot silently change meaning when a reservoir is
        swapped for a sketch.
        """
        if self.total <= self.maxlen:
            return 0.0
        return (self.total - len(self)) / self.total


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample.

    ``overflow_ratio`` reports how much of the sample lost fidelity
    before summarization: the subsampled fraction of an overflowed
    :class:`SampleReservoir`, or the collapsed fraction of a
    :class:`~repro.metrics.sketch.PercentileSketch`.  Plain lists
    always report 0.0.
    """

    count: int
    mean: float
    median: float
    p95: float
    minimum: float
    maximum: float
    overflow_ratio: float = 0.0

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.3f} "
                f"median={self.median:.3f} p95={self.p95:.3f}")


def summarize(values) -> Summary:
    """Summarize a sample; an empty sample summarizes to zeros.

    Non-finite samples (NaN/inf placeholders) are excluded so a
    single dropped measurement cannot poison every aggregate.
    Accepts any iterable of floats, a :class:`SampleReservoir`
    (overflow surfaces as ``overflow_ratio``), or a
    :class:`~repro.metrics.sketch.PercentileSketch` (summarized from
    its buckets; mean and extrema are exact).
    """
    from repro.metrics.sketch import PercentileSketch

    if isinstance(values, PercentileSketch):
        if values.count == 0:
            return Summary(count=0, mean=0.0, median=0.0, p95=0.0,
                           minimum=0.0, maximum=0.0)
        return Summary(
            count=values.count,
            mean=values.mean,
            median=float(values.quantile(50)),
            p95=float(values.quantile(95)),
            minimum=float(values.minimum),
            maximum=float(values.maximum),
            overflow_ratio=values.overflow_ratio,
        )
    overflow_ratio = (values.overflow_ratio
                      if isinstance(values, SampleReservoir) else 0.0)
    data: List[float] = [float(v) for v in values]
    array = np.asarray(data, dtype=float)
    array = array[np.isfinite(array)]
    if array.size == 0:
        return Summary(count=0, mean=0.0, median=0.0, p95=0.0,
                       minimum=0.0, maximum=0.0)
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        median=float(np.median(array)),
        p95=float(np.percentile(array, 95)),
        minimum=float(array.min()),
        maximum=float(array.max()),
        overflow_ratio=overflow_ratio,
    )


@dataclass(frozen=True)
class CacheStats:
    """Counter snapshot for a content-addressed cache.

    Instances are immutable snapshots; the live cache mutates its own
    counters and exposes them through ``stats()``.
    """

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    entries: int = 0
    size_bytes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Optional[float]:
        """Hit fraction, or ``None`` when there were no lookups."""
        if self.lookups == 0:
            return None
        return self.hits / self.lookups

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = asdict(self)
        payload["hit_rate"] = self.hit_rate
        return payload
