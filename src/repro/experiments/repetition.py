"""Seed replication and confidence intervals.

The paper reports single five-minute runs; a careful reproduction
quantifies run-to-run spread.  :func:`replicate_experiment` re-runs a
configuration across seeds and aggregates every scalar QoS metric into
mean ± std with a t-based 95% confidence half-width, and
:func:`significantly_better` provides the non-overlapping-interval
check used when claiming one pipeline beats another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence

import numpy as np
from scipy import stats as scipy_stats

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.store import summarize_result


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

    @property
    def interval(self) -> tuple:
        half = self.ci95_halfwidth
        return (self.mean - half, self.mean + half)

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


def replicate(run_fn: Callable[[int], Dict],
              seeds: Sequence[int]) -> Dict[str, ReplicatedMetric]:
    """Run ``run_fn(seed)`` per seed; aggregate its scalar outputs."""
    if not seeds:
        raise ValueError("need at least one seed")
    summaries: List[Dict] = [run_fn(seed) for seed in seeds]
    return aggregate_summaries(summaries)


def replicate_experiment(spec: ExperimentSpec, *,
                         seeds: Sequence[int] = (0, 1, 2)
                         ) -> Dict[str, ReplicatedMetric]:
    """Replicate one experiment across seeds (``spec.seed`` is
    replaced by each seed in turn)."""
    def run(seed: int) -> Dict:
        return summarize_result(run_experiment(replace(spec, seed=seed)))

    return replicate(run, seeds)


def significantly_better(better: ReplicatedMetric,
                         worse: ReplicatedMetric) -> bool:
    """Whether ``better``'s 95% interval sits wholly above ``worse``'s.

    Non-overlapping intervals are a conservative significance check —
    suitable for the comparisons the benchmarks make.
    """
    return better.interval[0] > worse.interval[1]
