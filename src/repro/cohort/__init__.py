"""City-scale client cohorts: the macro half of hybrid runs.

``repro.cohort`` models large client populations statistically — a
:class:`CohortSpec` says how many clients a cell has and how many of
them run as fully simulated *tracers*; the :class:`CohortEngine`
drives the rest through the flow substrate (credits, pacing,
admission) as an aggregate fluid, recording constant-memory
:class:`~repro.metrics.sketch.PercentileSketch` QoS.

The contract that makes the hybrid trustworthy: with zero macro
members the engine is a strict no-op (no events, no RNG), so cohort
machinery never perturbs microscopic trajectories; with macro members
the whole macro layer is deterministic per seed.
"""

from repro.cohort.engine import CohortEngine
from repro.cohort.population import (DEFAULT_TICK_S, LOAD_PROCESSES,
                                     CohortSpec, LoadProcess,
                                     build_load_process)
from repro.cohort.report import (CohortLedger, CohortReport,
                                 check_cohort_conservation)

__all__ = [
    "CohortEngine",
    "CohortLedger",
    "CohortReport",
    "CohortSpec",
    "DEFAULT_TICK_S",
    "LOAD_PROCESSES",
    "LoadProcess",
    "build_load_process",
    "check_cohort_conservation",
]
