"""Experiment harness: testbeds, runners and per-figure reproductions.

:func:`repro.experiments.runner.run_experiment` drives one
:class:`~repro.experiments.runner.ExperimentSpec` — a deployment
configuration with N concurrent clients — and returns an
:class:`~repro.experiments.runner.ExperimentResult` holding QoS and
hardware metrics; :mod:`repro.experiments.figures` maps every figure of
the paper's evaluation to a function regenerating its rows.
"""

from repro.experiments.cache import (
    CampaignCellCache,
    code_fingerprint,
    task_fingerprint,
)
from repro.experiments.parallel import (
    CellFailure,
    CellTask,
    TaskOutcome,
    effective_workers,
    plan_tasks,
    run_tasks,
    shutdown_pool,
    warm_pool,
)
from repro.experiments.repetition import (
    ReplicatedMetric,
    aggregate_summaries,
)
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    MobilitySpec,
    run_experiment,
)
from repro.experiments.store import (
    ResultStore,
    summarize_result,
)

__all__ = [
    "CampaignCellCache",
    "CellFailure",
    "CellTask",
    "ExperimentResult",
    "ExperimentSpec",
    "MobilitySpec",
    "code_fingerprint",
    "effective_workers",
    "ReplicatedMetric",
    "ResultStore",
    "TaskOutcome",
    "aggregate_summaries",
    "plan_tasks",
    "run_experiment",
    "run_tasks",
    "shutdown_pool",
    "summarize_result",
    "task_fingerprint",
    "warm_pool",
]
