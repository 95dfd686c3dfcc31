"""Small statistics helpers shared by reporting code."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample.

    ``overflow_ratio`` reports how much of the sample lost fidelity
    before summarization: the collapsed fraction of a
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
    Accepts any iterable of floats or a
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
