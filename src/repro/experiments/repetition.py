"""Seed replication and confidence intervals.

The paper reports single five-minute runs; a careful reproduction
quantifies run-to-run spread.  A campaign's ``seeds`` replicate every
cell (:func:`repro.experiments.campaign.run_campaign`), and
:func:`aggregate_summaries` folds the per-seed summaries of one cell
into mean ± std with a t-based 95% confidence half-width per scalar
QoS metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np
from scipy import stats as scipy_stats


@dataclass(frozen=True)
class ReplicatedMetric:
    """One metric across seeds."""

    name: str
    values: tuple

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values, ddof=1)) \
            if len(self.values) > 1 else 0.0

    @property
    def ci95_halfwidth(self) -> float:
        """t-distribution 95% confidence half-width of the mean."""
        n = len(self.values)
        if n < 2 or self.std == 0.0:
            return 0.0
        t_crit = float(scipy_stats.t.ppf(0.975, df=n - 1))
        return t_crit * self.std / np.sqrt(n)

    def __str__(self) -> str:
        return (f"{self.name}: {self.mean:.2f} "
                f"± {self.ci95_halfwidth:.2f} (n={len(self.values)})")


#: The scalar metrics aggregated by replication.
REPLICATED_METRICS = ("fps", "success_rate", "e2e_ms", "jitter_ms",
                      "qoe_mos")


def aggregate_summaries(summaries: Sequence[Dict]
                        ) -> Dict[str, ReplicatedMetric]:
    """Aggregate per-seed result summaries into replicated metrics.

    ``summaries`` must be ordered by seed; the order is preserved in
    each metric's ``values`` so serial and sharded campaign runs
    aggregate bit-identically.
    """
    if not summaries:
        raise ValueError("need at least one summary")
    aggregated = {}
    for metric in REPLICATED_METRICS:
        if all(metric in summary for summary in summaries):
            aggregated[metric] = ReplicatedMetric(
                name=metric,
                values=tuple(float(s[metric]) for s in summaries))
    return aggregated
