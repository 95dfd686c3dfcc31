"""Cohort frame accounting and the JSON-ready cohort summary.

The macro engine keeps the same discipline the flow substrate imposes
on microscopic frames: every offered frame must end in exactly one
bucket.  :func:`check_cohort_conservation` is the macro twin of
:func:`repro.flow.invariants.check_sidecar_conservation` — it balances
to zero *exactly* (all counters are integers; fractional frame budgets
live in carry accumulators that never enter the ledger).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.flow.invariants import ConservationError
from repro.metrics.sketch import PercentileSketch
from repro.metrics.summary import summarize


@dataclass
class CohortLedger:
    """Where every macro-offered frame ended up (exact integers).

    * ``offered`` — frames the load process generated this run;
    * ``shed_credits`` — withheld at the source because the primary
      sidecar's advertised credits ran dry (credit backpressure);
    * ``paced`` — withheld by the cohort's aggregate send-pacing
      token bucket;
    * ``rejected`` — refused by the aggregate admission bucket
      (sidecar-side admission control);
    * ``served`` — carried through the fluid pipeline model;
    * ``dropped_stale`` — aged past the staleness threshold in the
      virtual queue;
    * ``pending`` — still in the virtual queue at the horizon.
    """

    offered: int = 0
    shed_credits: int = 0
    paced: int = 0
    rejected: int = 0
    served: int = 0
    dropped_stale: int = 0
    pending: int = 0

    @property
    def balance(self) -> int:
        """Zero iff every offered frame is accounted for exactly."""
        return self.offered - (self.shed_credits + self.paced
                               + self.rejected + self.served
                               + self.dropped_stale + self.pending)

    def as_dict(self) -> Dict[str, int]:
        return {
            "offered": self.offered,
            "shed_credits": self.shed_credits,
            "paced": self.paced,
            "rejected": self.rejected,
            "served": self.served,
            "dropped_stale": self.dropped_stale,
            "pending": self.pending,
            "balance": self.balance,
        }


def check_cohort_conservation(ledger: CohortLedger) -> CohortLedger:
    """Assert the macro frame ledger balances exactly; return it."""
    if ledger.balance != 0:
        raise ConservationError(
            f"cohort frame ledger off by {ledger.balance}: "
            f"{ledger.as_dict()}")
    for name in ("offered", "shed_credits", "paced", "rejected",
                 "served", "dropped_stale", "pending"):
        value = getattr(ledger, name)
        if value < 0:
            raise ConservationError(
                f"cohort ledger counter {name} negative: {value}")
    return ledger


@dataclass
class CohortReport:
    """JSON-ready summary of one cohort cell's macro layer.

    ``latency_sketch``/``queue_wait_sketch`` are serialized
    :class:`~repro.metrics.sketch.PercentileSketch` payloads, so
    campaign shards can be folded back together losslessly
    (``PercentileSketch.from_dict(...).merge(...)``).
    """

    spec: Dict[str, object]
    ledger: CohortLedger
    duration_s: float
    bottleneck_service: str
    bottleneck_capacity_fps: float
    tracer_mean_fps: float
    latency: PercentileSketch = field(default_factory=PercentileSketch)
    queue_wait: PercentileSketch = field(
        default_factory=PercentileSketch)

    @property
    def served_fps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.ledger.served / self.duration_s

    def as_dict(self) -> Dict[str, object]:
        summary = summarize(self.latency)
        return {
            "spec": dict(self.spec),
            "ledger": self.ledger.as_dict(),
            "duration_s": self.duration_s,
            "bottleneck_service": self.bottleneck_service,
            "bottleneck_capacity_fps": self.bottleneck_capacity_fps,
            "tracer_mean_fps": self.tracer_mean_fps,
            "served_fps": self.served_fps,
            "latency_ms": {
                "count": summary.count,
                "mean": 1000.0 * summary.mean,
                "median": 1000.0 * summary.median,
                "p95": 1000.0 * summary.p95,
                "minimum": 1000.0 * summary.minimum,
                "maximum": 1000.0 * summary.maximum,
                "overflow_ratio": summary.overflow_ratio,
            },
            "latency_sketch": self.latency.to_dict(),
            "queue_wait_sketch": self.queue_wait.to_dict(),
        }
