"""Failure paths of the sharded campaign runner.

The contract under test: a cell that raises, kills its worker, or is
submitted twice must be recorded as a failed cell — never a dead
campaign — and every other cell must still produce results.

The fake runners below return ready-made summary dicts (a capability
``run_cell_task`` supports precisely for this), so these tests cost
milliseconds of simulated work per task.  They rely on the ``fork``
start method (Linux): monkeypatched ``RUNNERS`` entries are inherited
by pool workers.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.experiments import campaign as campaign_mod
from repro.experiments.campaign import Campaign, render_report, run_campaign
from repro.experiments import parallel as parallel_mod
from repro.experiments.parallel import (
    CellTask,
    plan_tasks,
    run_tasks,
    shutdown_pool,
    warm_pool,
)

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fake-runner injection into pool workers requires fork")


@pytest.fixture(autouse=True)
def fresh_pool():
    """Drop the persistent pool around every test.

    Pool workers freeze ``RUNNERS`` at fork time, so a pool warmed
    before a monkeypatch would run the *real* runners — and a pool
    forked with this file's fakes would leak them into later tests.
    """
    shutdown_pool()
    yield
    shutdown_pool()


def fake_runner(placement, *, num_clients, duration_s, seed):
    return {"fps": 30.0 - num_clients, "success_rate": 1.0,
            "e2e_ms": 40.0 + seed, "jitter_ms": 1.0, "qoe_mos": 4.0,
            "trace_digest":
                f"digest-{placement.name}-{num_clients}c-s{seed}"}


def raising_runner(placement, *, num_clients, duration_s, seed):
    if placement.name == "C2":
        raise RuntimeError(f"calibration exploded on seed {seed}")
    return fake_runner(placement, num_clients=num_clients,
                       duration_s=duration_s, seed=seed)


def killer_runner(placement, *, num_clients, duration_s, seed):
    if placement.name == "C2":
        os.kill(os.getpid(), signal.SIGKILL)  # worker dies mid-cell
    return fake_runner(placement, num_clients=num_clients,
                       duration_s=duration_s, seed=seed)


def tiny_campaign(**overrides):
    defaults = dict(name="par", pipelines=("scatter",),
                    placements=("C1", "C2"), client_counts=(1,),
                    duration_s=1.0, seeds=(0, 1))
    defaults.update(overrides)
    return Campaign(**defaults)


@pytest.fixture
def fake_pipeline(monkeypatch):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter", fake_runner)


# ----------------------------------------------------------------------
# Plan determinism
# ----------------------------------------------------------------------
def test_plan_tasks_canonical_order():
    campaign = tiny_campaign()
    tasks = plan_tasks(campaign)
    assert [str(t) for t in tasks] == [
        "scatter/C1/1c/seed0", "scatter/C1/1c/seed1",
        "scatter/C2/1c/seed0", "scatter/C2/1c/seed1"]
    assert plan_tasks(campaign) == tasks  # stable


def test_run_tasks_rejects_negative_workers():
    with pytest.raises(ValueError):
        run_tasks([], workers=-1)


# ----------------------------------------------------------------------
# Success path (fake cells, 2 workers)
# ----------------------------------------------------------------------
def test_parallel_campaign_with_fake_cells(fake_pipeline, tmp_path):
    lines = []
    report = run_campaign(tiny_campaign(), workers=2,
                          progress=lines.append,
                          store_dir=str(tmp_path / "store"))
    assert not report.failures
    assert len(report.cells) == 2
    assert len(lines) == 2  # one progress line per cell
    assert report.digests[("scatter", "C1", 1)] == {
        0: "digest-C1-1c-s0", 1: "digest-C1-1c-s1"}
    stored = json.loads(
        (tmp_path / "store" / "par__scatter__C1__1c.json").read_text())
    assert stored["trace_digests"] == {"0": "digest-C1-1c-s0",
                                      "1": "digest-C1-1c-s1"}


# ----------------------------------------------------------------------
# Worker raising mid-cell
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 2])
def test_raising_cell_marked_failed_campaign_continues(
        monkeypatch, tmp_path, workers):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        raising_runner)
    report = run_campaign(tiny_campaign(), workers=workers,
                          store_dir=str(tmp_path / "store"))
    # The healthy cell still produced metrics...
    assert ("scatter", "C1", 1) in report.cells
    # ...and the raising one is a recorded failure, not a crash.
    failures = report.failures[("scatter", "C2", 1)]
    assert len(failures) == 2  # both seeds raised
    assert all(f.kind == "exception" for f in failures)
    assert "calibration exploded" in failures[0].error
    assert "RuntimeError" in failures[0].error
    stored = json.loads(
        (tmp_path / "store" / "par__scatter__C2__1c.json").read_text())
    assert stored["failed"] is True
    assert stored["failures"][0]["kind"] == "exception"


def test_failure_traceback_survives_process_boundary(monkeypatch):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        raising_runner)
    report = run_campaign(tiny_campaign(placements=("C2",),
                                        seeds=(0,)), workers=1)
    failure = report.failures[("scatter", "C2", 1)][0]
    assert "raising_runner" in failure.traceback


# ----------------------------------------------------------------------
# Worker killed mid-cell (broken pool + quarantine)
# ----------------------------------------------------------------------
def test_killed_worker_marked_lost_others_survive(monkeypatch):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        killer_runner)
    # Killer cell first in plan order so the pool breaks while the
    # healthy cell may still be in flight (quarantine path).
    report = run_campaign(tiny_campaign(placements=("C2", "C1"),
                                        seeds=(0,)), workers=2)
    failures = report.failures[("scatter", "C2", 1)]
    assert [f.kind for f in failures] == ["worker-lost"]
    assert ("scatter", "C1", 1) in report.cells
    assert report.cells[("scatter", "C1", 1)]["fps"].mean == 29.0


# ----------------------------------------------------------------------
# Per-task submission on the warm pool
# ----------------------------------------------------------------------
def test_per_task_submission_preserves_plan_order(fake_pipeline):
    """Completion order must not reorder outcomes: position i of the
    result always belongs to task i of the plan."""
    campaign = tiny_campaign(placements=("C2", "C1"),
                             client_counts=(1, 2, 3), seeds=(0, 1))
    tasks = plan_tasks(campaign)
    warm_pool(2)
    outcomes = run_tasks(tasks, workers=2)
    assert [outcome.task for outcome in outcomes] == tasks
    assert all(outcome.ok for outcome in outcomes)
    digests = [outcome.summary["trace_digest"] for outcome in outcomes]
    assert digests == [
        f"digest-{t.placement}-{t.clients}c-s{t.seed}" for t in tasks]


def test_sigkill_on_the_pool_quarantines_only_the_lethal_tasks(
        monkeypatch):
    """A SIGKILL breaks the pool and fails every future in flight, but
    quarantine retries the casualties one at a time: healthy tasks
    still produce results and only the lethal tasks end up
    ``worker-lost``."""
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        killer_runner)
    campaign = tiny_campaign(placements=("C2", "C1"),
                             client_counts=(1, 2, 3), seeds=(0,))
    tasks = plan_tasks(campaign)
    warm_pool(2)  # 6 tasks on 2 workers: killers and healthy in flight
    outcomes = run_tasks(tasks, workers=2)
    assert [outcome.task for outcome in outcomes] == tasks
    for outcome in outcomes:
        if outcome.task.placement == "C2":
            assert not outcome.ok
            assert outcome.failure.kind == "worker-lost"
            assert outcome.quarantined
        else:
            assert outcome.ok, outcome.failure
            assert outcome.summary["fps"] == 30.0 - outcome.task.clients


def test_pool_reuse_across_run_tasks_calls_leaks_no_state(
        fake_pipeline):
    """Consecutive ``run_tasks`` calls share one warm pool and stay
    independent: identical results, no carried-over outcomes."""
    warm_pool(2)
    tasks = plan_tasks(tiny_campaign())
    first = run_tasks(tasks, workers=2)
    pool = parallel_mod._POOL
    assert pool is not None
    second = run_tasks(tasks, workers=2)
    assert parallel_mod._POOL is pool  # reused, not respawned
    assert len(first) == len(second) == len(tasks)
    assert [o.summary for o in first] == [o.summary for o in second]
    assert all(o.ok and not o.quarantined and not o.cached
               for o in first + second)


# ----------------------------------------------------------------------
# Duplicate submission
# ----------------------------------------------------------------------
def test_duplicate_submission_refused(fake_pipeline):
    task = CellTask(pipeline="scatter", placement="C1", clients=1,
                    seed=0, duration_s=1.0)
    other = CellTask(pipeline="scatter", placement="C1", clients=1,
                     seed=1, duration_s=1.0)
    outcomes = run_tasks([task, task, other], workers=0)
    assert len(outcomes) == 3
    assert outcomes[0].ok
    assert not outcomes[1].ok
    assert outcomes[1].failure.kind == "duplicate"
    assert "plan index 0" in outcomes[1].failure.error
    assert outcomes[2].ok


def test_duplicate_refused_in_parallel_mode_too(fake_pipeline):
    task = CellTask(pipeline="scatter", placement="C1", clients=1,
                    seed=0, duration_s=1.0)
    outcomes = run_tasks([task, task], workers=2)
    assert [o.ok for o in outcomes] == [True, False]
    assert outcomes[1].failure.kind == "duplicate"


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def test_render_report_lists_failed_cells(monkeypatch):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        raising_runner)
    report = run_campaign(tiny_campaign(), workers=0)
    text = render_report(report)
    assert "## failed cells" in text
    assert "exception" in text
    assert "calibration exploded" in text


def test_task_progress_reports_every_task(fake_pipeline):
    lines = []
    run_campaign(tiny_campaign(), workers=2, task_progress=lines.append)
    assert len(lines) == 4
    assert any(line.startswith("[4/4] ") for line in lines)
    assert all(": ok" in line for line in lines)
