"""Sharded, crash-isolated, cache-aware campaign execution.

A campaign grid (pipelines × placements × client counts × seeds) is
embarrassingly parallel: every *(cell, seed)* task builds its own
simulator, testbed and RNG registry from scratch, so tasks share no
state and can run in any order on any worker.  This module turns that
observation into a runner:

* :func:`plan_tasks` enumerates the grid in a canonical order — the
  single source of truth both the serial and the pooled paths use;
* :func:`run_tasks` executes a plan either in-process (``workers=0``)
  or across a **warm, persistent** ``ProcessPoolExecutor``
  (``workers>=1``) that survives across calls, so back-to-back
  campaigns in one process pay worker spawn exactly once
  (:func:`warm_pool` / :func:`shutdown_pool` manage it explicitly).
  Every pending task is one future on that pool; outcomes are
  collected as they complete and filed back in plan order.

Crash isolation: a task that raises is recorded as a
:class:`CellFailure`, and a task that *kills its worker* (breaking
the pool) is quarantined — every task in flight when the pool broke
is retried one at a time in fresh solo pools, so only the genuinely
lethal task is marked failed (and the persistent pool is discarded,
to be respawned clean on the next call).

When a :class:`~repro.experiments.cache.CampaignCellCache` is passed,
tasks are looked up *before* submission — hits are returned
immediately as ``cached`` outcomes without touching a worker — and
only clean, non-quarantined outcomes are admitted afterwards, so
failures can never poison the cache.

The determinism contract — same seed ⇒ identical metrics and identical
:class:`~repro.sim.kernel.TraceDigest` fingerprint regardless of
worker count, caching, scheduling order, or process boundary — is
enforced by ``tests/test_determinism.py`` against this module.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: ``(pipeline, placement, clients)`` — one cell of the campaign grid.
Cell = Tuple[str, str, int]

Progress = Optional[Callable[[str], None]]

@dataclass(frozen=True)
class CellTask:
    """One unit of sharded work: a single seed of a single cell."""

    pipeline: str
    placement: str
    clients: int
    seed: int
    duration_s: float

    @property
    def cell(self) -> Cell:
        return (self.pipeline, self.placement, self.clients)

    def __str__(self) -> str:
        return (f"{self.pipeline}/{self.placement}/"
                f"{self.clients}c/seed{self.seed}")


@dataclass(frozen=True)
class CellFailure:
    """Why one task did not produce a result.

    ``kind`` is one of ``"exception"`` (the runner raised),
    ``"worker-lost"`` (the worker process died — SIGKILL, OOM,
    interpreter abort) or ``"duplicate"`` (the same task was submitted
    twice; the second submission is refused).
    """

    task: CellTask
    kind: str
    error: str
    traceback: str = ""


@dataclass(frozen=True)
class TaskOutcome:
    """Result (or failure) of one task, in plan order.

    ``cached`` marks a summary replayed from the campaign cell cache;
    ``quarantined`` marks a result recovered in a solo pool after a
    pool breakage (correct, but never admitted to the cache — the
    no-poisoning policy treats the whole casualty set as suspect).
    """

    task: CellTask
    summary: Optional[Dict] = None
    failure: Optional[CellFailure] = None
    cached: bool = False
    quarantined: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None

    @property
    def digest(self) -> Optional[str]:
        if self.summary is None:
            return None
        return self.summary.get("trace_digest")


def plan_tasks(campaign, *, seeds: Optional[Sequence[int]] = None
               ) -> List[CellTask]:
    """Enumerate a campaign's tasks in canonical (cell, seed) order."""
    seeds = list(campaign.seeds if seeds is None else seeds)
    return [CellTask(pipeline=pipeline, placement=placement,
                     clients=clients, seed=seed,
                     duration_s=campaign.duration_s)
            for pipeline, placement, clients in campaign.cells
            for seed in seeds]


def run_cell_task(task: CellTask) -> Dict:
    """Execute one task hermetically and return its summary dict.

    The summary carries the scalar QoS metrics plus the run's
    ``trace_digest``.  Runners registered in
    :data:`repro.experiments.campaign.RUNNERS` may also return a
    ready-made summary dict (used by tests to fake cheap cells).
    """
    # Imported lazily: campaign.py imports this module at top level.
    from repro.experiments.campaign import RUNNERS, resolve_placement
    from repro.experiments.store import summarize_result

    runner = RUNNERS[task.pipeline]
    placement = resolve_placement(task.placement)
    result = runner(placement, num_clients=task.clients,
                    duration_s=task.duration_s, seed=task.seed)
    return result if isinstance(result, dict) \
        else summarize_result(result)


def _execute(task: CellTask) -> Tuple:
    """Run one task; never raises, returns a tagged payload."""
    try:
        return ("ok", run_cell_task(task))
    except Exception as exc:
        return ("error", f"{type(exc).__name__}: {exc}",
                traceback.format_exc())


def _outcome(task: CellTask, payload: Tuple, *,
             quarantined: bool = False) -> TaskOutcome:
    if payload[0] == "ok":
        return TaskOutcome(task=task, summary=payload[1],
                           quarantined=quarantined)
    return TaskOutcome(task=task, failure=CellFailure(
        task=task, kind="exception", error=payload[1],
        traceback=payload[2]), quarantined=quarantined)


def _lost_worker(task: CellTask) -> TaskOutcome:
    return TaskOutcome(task=task, failure=CellFailure(
        task=task, kind="worker-lost",
        error="worker process died while executing this task"),
        quarantined=True)


class _Reporter:
    """Serializes per-task progress lines `[done/total] task: status`."""

    def __init__(self, progress: Progress, total: int):
        self._progress = progress
        self._total = total
        self._done = 0

    def report(self, outcome: TaskOutcome) -> None:
        self._done += 1
        if self._progress is None:
            return
        if outcome.ok:
            status = "ok (cached)" if outcome.cached else "ok"
        else:
            status = f"FAILED ({outcome.failure.kind})"
        self._progress(f"[{self._done}/{self._total}] "
                       f"{outcome.task}: {status}")


# ----------------------------------------------------------------------
# Warm, persistent worker pool
# ----------------------------------------------------------------------
_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0


def effective_workers(workers: int) -> int:
    """Pool size actually used for a ``workers``-way request.

    Worker processes beyond the core count cannot add throughput —
    they only add scheduler churn, copy-on-write page duplication and
    redundant per-process caches.  Requests are therefore capped at
    ``os.cpu_count()``.  An *explicitly* warmed pool of exactly the
    requested size overrides the cap (:func:`warm_pool` is operator
    intent — tests use it to force real multi-process fan-out on
    small boxes).  Results are bit-identical at any pool size; this
    is a wall-clock policy only.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if _POOL is not None and _POOL_WORKERS == workers:
        return workers
    return max(1, min(workers, os.cpu_count() or workers))


def warm_pool(workers: int) -> ProcessPoolExecutor:
    """Return the shared pool, (re)spawning it at ``workers`` size.

    The pool persists across :func:`run_tasks` calls, so consecutive
    campaigns (or a benchmark's timed region) reuse already-forked
    workers instead of paying spawn + import cost per run.  Resizing
    replaces the pool.  NOTE for tests that monkeypatch
    :data:`repro.experiments.campaign.RUNNERS`: forked workers freeze
    module state at spawn time — call :func:`shutdown_pool` around
    such patches so later campaigns do not inherit stale fakes.
    """
    global _POOL, _POOL_WORKERS
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if _POOL is not None and _POOL_WORKERS == workers:
        return _POOL
    shutdown_pool()
    _POOL = ProcessPoolExecutor(max_workers=workers)
    _POOL_WORKERS = workers
    return _POOL


def shutdown_pool() -> None:
    """Shut the shared pool down (idempotent)."""
    global _POOL, _POOL_WORKERS
    if _POOL is not None:
        _POOL.shutdown(wait=True, cancel_futures=True)
    _POOL = None
    _POOL_WORKERS = 0


def _discard_broken_pool() -> None:
    """Forget a pool that broke; a later call respawns it clean."""
    global _POOL, _POOL_WORKERS
    pool, _POOL, _POOL_WORKERS = _POOL, None, 0
    if pool is not None:
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


def _quarantine(tasks: List[Tuple[int, CellTask]],
                outcomes: Dict[int, TaskOutcome],
                reporter: _Reporter) -> None:
    """Retry pool-breakage casualties one at a time, each in a fresh
    single-worker pool, so only the genuinely lethal task fails."""
    for index, task in tasks:
        try:
            with ProcessPoolExecutor(max_workers=1) as solo:
                payload = solo.submit(_execute, task).result()
            outcomes[index] = _outcome(task, payload, quarantined=True)
        except BrokenProcessPool:
            outcomes[index] = _lost_worker(task)
        reporter.report(outcomes[index])


def _run_on_pool(pending: List[Tuple[int, CellTask]], workers: int,
                 outcomes: Dict[int, TaskOutcome],
                 reporter: _Reporter) -> None:
    """Execute ``pending`` on the warm pool, one future per task.

    Tasks are submitted longest first (by ``clients × duration_s``,
    plan order among equals), so a long cell never starts last and
    leaves the other workers idle; outcomes are filed by plan index.
    """
    pool = warm_pool(effective_workers(workers))
    futures = {}
    casualties: List[Tuple[int, CellTask]] = []
    broken = False
    longest_first = sorted(
        pending, key=lambda pair: -pair[1].clients * pair[1].duration_s)
    try:
        for index, task in longest_first:
            try:
                futures[pool.submit(_execute, task)] = (index, task)
            except BrokenProcessPool:
                # The pool died mid-submission: everything not yet
                # submitted goes straight to quarantine.
                casualties.append((index, task))
                broken = True
        for future in as_completed(futures):
            index, task = futures[future]
            try:
                payload = future.result()
            except BrokenProcessPool:
                # Either this task killed its worker or it is
                # collateral damage of another one doing so; the
                # quarantine pass below tells the two apart.
                casualties.append((index, task))
                broken = True
                continue
            outcomes[index] = _outcome(task, payload)
            reporter.report(outcomes[index])
    finally:
        if broken:
            _discard_broken_pool()
    casualties.sort(key=lambda pair: pair[0])
    _quarantine(casualties, outcomes, reporter)


def run_tasks(tasks: Sequence[CellTask], *, workers: int = 0,
              progress: Progress = None,
              cache=None) -> List[TaskOutcome]:
    """Execute a plan and return one outcome per task, in plan order.

    ``workers=0`` runs every task in-process (serial); ``workers>=1``
    submits each one to the shared warm pool.  Either way the returned
    list is ordered and keyed by the plan, so downstream aggregation
    is independent of completion order.  Duplicate submissions are
    refused: the first occurrence runs, later ones are recorded as
    ``"duplicate"`` failures.

    ``cache`` (a :class:`~repro.experiments.cache.CampaignCellCache`)
    short-circuits tasks whose key is already stored — their outcomes
    come back ``cached=True`` without touching a worker — and admits
    every clean, non-quarantined fresh outcome afterwards.  Failures
    and quarantine survivors are never admitted.
    """
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    tasks = list(tasks)
    outcomes: Dict[int, TaskOutcome] = {}
    reporter = _Reporter(progress, len(tasks))

    runnable: List[Tuple[int, CellTask]] = []
    first_index: Dict[CellTask, int] = {}
    for index, task in enumerate(tasks):
        if task in first_index:
            outcomes[index] = TaskOutcome(task=task, failure=CellFailure(
                task=task, kind="duplicate",
                error=f"duplicate submission of {task} (first submitted "
                      f"at plan index {first_index[task]})"))
            reporter.report(outcomes[index])
            continue
        first_index[task] = index
        runnable.append((index, task))

    pending: List[Tuple[int, CellTask]] = []
    if cache is not None:
        for index, task in runnable:
            summary = cache.get(task)
            if summary is not None:
                outcomes[index] = TaskOutcome(task=task, summary=summary,
                                              cached=True)
                reporter.report(outcomes[index])
            else:
                pending.append((index, task))
    else:
        pending = runnable

    if workers == 0:
        for index, task in pending:
            outcomes[index] = _outcome(task, _execute(task))
            reporter.report(outcomes[index])
    elif pending:
        _run_on_pool(pending, workers, outcomes, reporter)

    if cache is not None:
        # Admission policy: clean, fresh, non-quarantined results only
        # — a failure (or anything adjacent to a dead worker) must
        # never become a future campaign's "truth".
        for index, _task in pending:
            outcome = outcomes[index]
            if outcome.ok and not outcome.quarantined:
                cache.put(outcome.task, outcome.summary)

    return [outcomes[index] for index in range(len(tasks))]
