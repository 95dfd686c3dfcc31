"""Golden determinism-contract tests.

The contract: same seed ⇒ identical :class:`TraceDigest` fingerprint
and identical metrics, regardless of worker count, scheduling order,
or process boundary.  This file enforces it four ways:

* serial vs. sharded (1 and 4 workers) runs of the same small
  campaign must agree bit-for-bit;
* back-to-back serial runs in one process must agree (replay
  stability — no hidden global state);
* a cache-warm rerun (every cell replayed from the content-addressed
  cell cache) must agree with both, and with the golden — caching is
  the third leg of the contract: serial ≡ sharded ≡ cached;
* every row of the outcome referee (``tests/golden/referee.py``) must
  match the committed golden ``tests/golden/referee.json`` field for
  field, catching cross-version drift.  If a change *intentionally*
  alters simulation behaviour, regenerate with
  ``python tests/golden/referee.py`` and commit the diff, which then
  shows which rows moved.

CI runs this module under a ``DETERMINISM_WORKERS`` matrix; locally
both 1 and 4 workers are exercised.
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.cache import CampaignCellCache
from repro.experiments.campaign import (PRESETS, RUNNERS, Campaign,
                                        run_campaign)
from repro.experiments.runner import ExperimentSpec, run_experiment
from tests.golden import referee
from tests.golden.referee import CONTRACT_CAMPAIGN, FLOW_CAMPAIGN

#: How to mend a golden mismatch, appended to every failure below.
REGENERATE = (
    "If this change to the simulation is intentional, run `python "
    "tests/golden/referee.py`, commit tests/golden and name each moved "
    "row with its reason; otherwise the determinism contract has been "
    "broken.")


def golden_rows():
    return json.loads(referee.GOLDEN_PATH.read_text())


def golden_traces(campaign):
    """The committed trace digest of every cell of ``campaign``, keyed
    like :func:`_digest_map`."""
    rows = golden_rows()
    return {key: rows[f"a/{key}"]["trace"]
            for key in referee.campaign_keys(campaign)}


def runner_cell_row(key):
    """One runner cell's referee row, all but its event count."""
    return referee.cell_row(referee.runner_cells()[key]())


def replay_runner_cells(workers=0):
    """Every runner cell's row, in-process or on the shared campaign
    worker pool at ``workers`` processes."""
    from repro.experiments.parallel import warm_pool

    keys = sorted(referee.runner_cells())
    if not workers:
        return {key: runner_cell_row(key) for key in keys}
    return dict(zip(keys, warm_pool(workers).map(runner_cell_row,
                                                 keys)))


def _worker_counts():
    env = os.environ.get("DETERMINISM_WORKERS")
    if env:
        return tuple(int(part) for part in env.split(","))
    return (1, 4)


def _digest_map(report):
    """Flatten a report's digests into {\"pipe/place/Nc/seedS\": hex}."""
    flat = {}
    for (pipeline, placement, clients), digests in \
            sorted(report.digests.items()):
        for seed, digest in sorted(digests.items()):
            flat[f"{pipeline}/{placement}/{clients}c/seed{seed}"] = \
                digest
    return flat


def _metric_map(report):
    """Exact (not approximate) per-cell metric values."""
    return {cell: {name: metric.values
                   for name, metric in sorted(metrics.items())}
            for cell, metrics in sorted(report.cells.items())}


@pytest.fixture(scope="module")
def serial_report():
    report = run_campaign(CONTRACT_CAMPAIGN)
    assert not report.failures
    return report


def test_serial_replay_is_stable(serial_report):
    replay = run_campaign(CONTRACT_CAMPAIGN)
    assert _digest_map(replay) == _digest_map(serial_report)
    assert _metric_map(replay) == _metric_map(serial_report)


@pytest.mark.parametrize("workers", _worker_counts())
def test_sharded_run_matches_serial_bit_for_bit(serial_report,
                                                workers):
    sharded = run_campaign(CONTRACT_CAMPAIGN, workers=workers)
    assert not sharded.failures
    # Identical trace digests: the event trajectories were the same.
    assert _digest_map(sharded) == _digest_map(serial_report)
    # Identical metrics, compared exactly (no tolerance): crossing a
    # process boundary must not perturb a single bit.
    assert _metric_map(sharded) == _metric_map(serial_report)


def test_every_task_produced_a_digest(serial_report):
    flat = _digest_map(serial_report)
    expected = (len(CONTRACT_CAMPAIGN.cells)
                * len(CONTRACT_CAMPAIGN.seeds))
    assert len(flat) == expected
    assert all(len(digest) == 32 for digest in flat.values())
    # Different seeds walk different trajectories.
    assert flat["scatter/C1/1c/seed0"] != flat["scatter/C1/1c/seed1"]


def test_digests_match_committed_golden_file():
    """Every referee row matches ``referee.json`` in every field: trace
    digest and event count, frames sent, outcome and summary digests,
    and each search's front digest and oracle fingerprints."""
    simulate, oracle = referee.Simulator.run, RUNNERS["optimize"]
    moved = referee.differences(golden_rows(), referee.rows())
    # The in-process run hands back what it wrapped, so later tests
    # (the call pins of test_event_budget.py) see the plain kernel.
    assert referee.Simulator.run is simulate
    assert RUNNERS["optimize"] is oracle
    assert not moved, (
        f"{len(moved)} golden rows or fields moved:\n" + "\n".join(moved)
        + "\n" + REGENERATE)


def test_golden_comparison_names_each_moved_row_and_field():
    golden = {"a/x": {"trace": "t", "events": 3}, "a/gone": {"trace": "u"}}
    moved = referee.differences(
        golden, {"a/x": {"trace": "t", "events": 4}})
    assert moved == ["a/gone: only in the golden", "a/x events: 3 -> 4"]


def test_write_command_refuses_when_two_runs_disagree(monkeypatch,
                                                     tmp_path):
    runs = iter([{"a/x": {"trace": "t"}}, {"a/x": {"trace": "u"}}])
    monkeypatch.setattr(referee, "rows", lambda: next(runs))
    monkeypatch.setattr(referee, "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(referee, "GOLDEN_PATH", tmp_path / "referee.json")
    assert referee.main() == 1
    assert not any(tmp_path.iterdir())


def test_perfbench_goldens_are_the_referee_rows_they_project():
    """The two files perfbench's golden probe reads hold exactly the
    contract and flow rows' trace digests, so a hand edit fails."""
    for path, projection in referee.perfbench_goldens(golden_rows()).items():
        assert json.loads(path.read_text()) == projection, (
            f"{path.name} is not the projection of referee.json; "
            "run `python tests/golden/referee.py`.")


# ----------------------------------------------------------------------
# Cell cache vs the contract: serial = sharded = cached, bit-for-bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers",
                         tuple(dict.fromkeys((0,) + _worker_counts())))
def test_cached_rerun_matches_serial_and_golden(serial_report,
                                                workers, tmp_path):
    """Three-way contract: a cold cache-on run and a fully-cached
    rerun both reproduce the uncached serial digests and metrics
    exactly, at every worker count, and still match the goldens."""
    tasks = (len(CONTRACT_CAMPAIGN.cells)
             * len(CONTRACT_CAMPAIGN.seeds))

    cold = run_campaign(CONTRACT_CAMPAIGN, workers=workers,
                        cache=CampaignCellCache(tmp_path / "cells"))
    assert not cold.failures
    assert cold.cache["misses"] == tasks
    assert cold.cache["stored"] == tasks
    # Turning the cache *on* must not perturb a cold run...
    assert _digest_map(cold) == _digest_map(serial_report)
    assert _metric_map(cold) == _metric_map(serial_report)

    warm = run_campaign(CONTRACT_CAMPAIGN, workers=workers,
                        cache=CampaignCellCache(tmp_path / "cells"))
    assert not warm.failures
    assert warm.cache["hits"] == tasks
    assert warm.cache["misses"] == 0
    assert warm.cache["stored"] == 0
    # ...and a replayed run is bit-identical to a computed one.
    assert _digest_map(warm) == _digest_map(serial_report)
    assert _metric_map(warm) == _metric_map(serial_report)

    assert _digest_map(warm) == golden_traces(CONTRACT_CAMPAIGN), (
        "Cache-replayed digests drifted from the committed golden — "
        "the cell cache returned something a recompute would not.")


# ----------------------------------------------------------------------
# Flow-control substrate vs the contract
# ----------------------------------------------------------------------
def test_event_profiler_is_inert_on_a_real_cell():
    """``profile=True`` must not perturb the trajectory of a full
    experiment cell — same trace digest, same delivered frames — while
    still reporting a per-event-kind breakdown."""
    from repro.scatter.config import baseline_configs

    placement = baseline_configs()["C1"]
    base = run_experiment(ExperimentSpec(
        placement, num_clients=2, duration_s=2.0, seed=0, scatterpp=True))
    profiled = run_experiment(ExperimentSpec(
        placement, num_clients=2, duration_s=2.0, seed=0, scatterpp=True,
        profile=True))
    assert base.event_profile is None
    assert profiled.trace_digest == base.trace_digest
    assert [c.received for c in profiled.clients] == \
        [c.received for c in base.clients]
    report = profiled.event_profile
    assert report is not None and report["events"] > 0
    assert "Process._resume" in report["kinds"]


def test_flow_on_walks_a_different_trajectory():
    """Flow on really engages: its digests differ from flow off."""
    flow_digests = set(golden_traces(FLOW_CAMPAIGN).values())
    base_digests = set(golden_traces(CONTRACT_CAMPAIGN).values())
    assert not flow_digests & base_digests


# ----------------------------------------------------------------------
# Optimizer-oracle cells are pinned to the same goldens
# ----------------------------------------------------------------------
def _neutral_c1_spec():
    """The C1 placement lifted into genome space."""
    from repro.orchestra.optimize import Genome
    from repro.scatter.config import baseline_configs

    return Genome.from_placement(baseline_configs()["C1"]).encode()


def test_optimize_oracle_cells_replay_flow_goldens():
    """The optimizer's oracle runner is digest-neutral: a genome cell
    walks *byte-identically* the committed flow-on golden trajectory
    for the same placement/clients/seed.  Zero events moved — the
    energy model is post-hoc."""
    spec = _neutral_c1_spec()
    campaign = Campaign(
        name="determinism-optimize", pipelines=("optimize",),
        placements=(spec,), client_counts=(1, 2), duration_s=2.0,
        seeds=(0, 1))
    report = run_campaign(campaign)
    assert not report.failures
    golden = golden_traces(FLOW_CAMPAIGN)
    digests = _digest_map(report)
    for key, digest in digests.items():
        flow_key = key.replace(f"optimize/{spec}",
                               "scatterpp-flow/C1")
        assert digest == golden[flow_key], (
            f"optimizer oracle moved events for {key}: the oracle "
            "must inherit the flow substrate's pinned trajectory "
            "(energy accounting is post-hoc)")
    # Energy numbers rode along without touching the trajectory.
    for cell, summaries in report.summaries.items():
        for summary in summaries:
            assert summary["energy"]["total_j"] > 0.0


# ----------------------------------------------------------------------
# Every mode: pinned goldens and one result shape
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers",
                         tuple(dict.fromkeys((0,) + _worker_counts())))
def test_runner_cells_match_committed_golden_file(workers):
    """Ramp, mobility, chaos and cohort cells replay their golden rows,
    in-process and across worker processes."""
    golden = golden_rows()
    for key, row in replay_runner_cells(workers).items():
        assert row.items() <= golden[f"a/{key}"].items(), (
            f"a/{key} moved. {REGENERATE}")


def _shape_specs():
    """Every campaign preset, plus a ramp and a chaos spec, at 1 s."""
    from repro.chaos.faults import FaultPlan, InstanceCrash
    from repro.scatter.config import baseline_configs

    c1 = baseline_configs()["C1"]
    specs = {name: preset(c1, num_clients=1, duration_s=1.0, seed=0)
             for name, preset in PRESETS.items()}
    specs["ramp"] = ExperimentSpec(c1, 2, duration_s=1.0,
                                   scatterpp=True, stage_s=0.5)
    specs["resilience"] = ExperimentSpec(
        baseline_configs()["C2"], 1, duration_s=1.0,
        plan=FaultPlan(faults=[InstanceCrash(at_s=0.5,
                                             service="sift")]))
    return specs


@pytest.mark.parametrize("mode", sorted(_shape_specs()))
def test_every_mode_returns_the_same_result_shape(mode):
    """Tracing and profiling work in every mode, are reported exactly
    when switched on, and never move the trajectory."""
    spec = _shape_specs()[mode]
    plain = run_experiment(spec)
    traced = run_experiment(dataclasses.replace(spec, tracing=True))
    profiled = run_experiment(dataclasses.replace(spec, profile=True))
    for result in (plain, traced, profiled):
        assert result.trace_digest is not None
        assert result.trace_digest == plain.trace_digest
        assert (result.tracer is not None) == (result is traced)
        assert (result.event_profile is not None) == (result is profiled)
