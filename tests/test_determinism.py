"""Golden determinism-contract tests.

The contract: same seed ⇒ identical :class:`TraceDigest` fingerprint
and identical metrics, regardless of worker count, scheduling order,
or process boundary.  This file enforces it three ways:

* serial vs. sharded (1 and 4 workers) runs of the same small
  campaign must agree bit-for-bit;
* back-to-back serial runs in one process must agree (replay
  stability — no hidden global state);
* a cache-warm rerun (every cell replayed from the content-addressed
  cell cache) must agree with both, and with the goldens — caching is
  the third leg of the contract: serial ≡ sharded ≡ cached;
* digests must match the committed golden file
  (``tests/golden/determinism_digests.json``), catching
  cross-version drift.  If a PR *intentionally* changes simulation
  behaviour, regenerate with
  ``python tests/golden/regenerate_determinism.py`` and commit the
  diff — reviewers then see that the trajectory changed.

CI runs this module under a ``DETERMINISM_WORKERS`` matrix; locally
both 1 and 4 workers are exercised.
"""

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.experiments.cache import CampaignCellCache
from repro.experiments.campaign import (PRESETS, RUNNERS, Campaign,
                                        resolve_placement, run_campaign)
from repro.experiments.runner import (ExperimentSpec, MobilitySpec,
                                      run_experiment)
from repro.experiments.store import summarize_result

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "determinism_digests.json")
FLOW_GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
                    / "flow_digests.json")
RUNNER_GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
                      / "runner_digests.json")

#: The contract campaign: both pipelines, two cells each, two seeds —
#: small enough for tier-1, broad enough to cover the sidecar path.
CONTRACT_CAMPAIGN = Campaign(
    name="determinism", pipelines=("scatter", "scatterpp"),
    placements=("C1",), client_counts=(1, 2), duration_s=2.0,
    seeds=(0, 1))

#: The flow-on contract cells: the full substrate (admission +
#: batching + credits + pacing) walks its *own* pinned trajectory.
FLOW_CAMPAIGN = Campaign(
    name="determinism-flow", pipelines=("scatterpp-flow",),
    placements=("C1",), client_counts=(1, 2), duration_s=2.0,
    seeds=(0, 1))


#: Run length of every runner golden cell.
RUNNER_CELL_S = 2.0


def runner_cells():
    """The modes the campaign goldens never reach, one short cell each:
    golden key -> zero-argument callable returning the result."""
    from repro.chaos.faults import FaultPlan, InstanceCrash
    from repro.scatter.config import baseline_configs

    c1, c2 = baseline_configs()["C1"], baseline_configs()["C2"]

    def cell(placement, clients, **fields):
        return lambda: run_experiment(ExperimentSpec(
            placement, clients, duration_s=RUNNER_CELL_S, seed=0,
            **fields))

    def crash(at_s):
        return FaultPlan(faults=[InstanceCrash(at_s=at_s,
                                               service="sift")])

    roam = MobilitySpec(mean_dwell_s=0.6, min_dwell_s=0.3)
    roaming = dict(scatterpp=True, stateless_sift=False, mobility=roam)
    cohort = dict(scatterpp=True, flow=True, cohort_size=1000)
    return {
        "ramp/C1/2c/seed0": cell(c1, 2, scatterpp=True,
                                 stage_s=RUNNER_CELL_S / 2),
        "mobility-stateful/C1/2c/seed0": cell(c1, 2, **roaming),
        "mobility-naive/C1/2c/seed0": cell(
            c1, 2, **dict(roaming, mobility=dataclasses.replace(
                roam, naive=True))),
        "mobility-crash-flow/C1/2c/seed0": cell(
            c1, 2, plan=crash(1.0), flow=True, **roaming),
        "resilience-scatter/C2/1c/seed0": cell(c2, 1, plan=crash(0.5)),
        "resilience-scatterpp/C2/1c/seed0": cell(
            c2, 1, scatterpp=True, plan=crash(0.5)),
        "cohort-constant/C1/2c/seed0": cell(c1, 2, **cohort),
        "cohort-poisson/C1/2c/seed0": cell(c1, 2, cohort_load="poisson",
                                           **cohort),
    }


def summary_digest(summary):
    """Digest of a stored summary without its trace digest: the
    statistics alone, so a change that only adds or removes events
    keeps it while any moved statistic moves it."""
    text = json.dumps({key: value for key, value in summary.items()
                       if key != "trace_digest"},
                      sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def runner_cell_digests(key):
    """Trace digest, trace-free summary digest (the chaos report
    added) and outcome digest of one runner cell."""
    result = runner_cells()[key]()
    summary = summarize_result(result)
    if result.resilience is not None:
        summary["resilience"] = dataclasses.asdict(result.resilience)
    return {"trace_digest": result.trace_digest,
            "summary_digest": summary_digest(summary),
            "outcome_digest": result.outcome_digest()}


def campaign_cell_digests(campaign):
    """Trace-free summary and outcome digests of every cell of
    ``campaign``, each run in-process the way a campaign worker runs
    it, keyed like the golden ``digests`` map."""
    summaries, outcomes = {}, {}
    for pipeline, placement, clients in campaign.cells:
        for seed in campaign.seeds:
            result = RUNNERS[pipeline](
                resolve_placement(placement), num_clients=clients,
                duration_s=campaign.duration_s, seed=seed)
            key = f"{pipeline}/{placement}/{clients}c/seed{seed}"
            summaries[key] = summary_digest(summarize_result(result))
            outcomes[key] = result.outcome_digest()
    return {"summary_digests": summaries, "outcome_digests": outcomes}


def replay_runner_cells(workers=0):
    """Every runner cell's digests, in-process or on the shared campaign
    worker pool at ``workers`` processes."""
    from repro.experiments.parallel import warm_pool

    keys = sorted(runner_cells())
    if not workers:
        return {key: runner_cell_digests(key) for key in keys}
    return dict(zip(keys, warm_pool(workers).map(runner_cell_digests,
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


def test_digests_match_committed_golden_file(serial_report):
    golden = json.loads(GOLDEN_PATH.read_text())
    current = _digest_map(serial_report)
    assert current == golden["digests"], (
        "Trace digests drifted from tests/golden/"
        "determinism_digests.json.  If this change to the simulation "
        "is intentional, regenerate the golden file with "
        "`python tests/golden/regenerate_determinism.py` and commit "
        "it; otherwise the determinism contract has been broken.")


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

    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest_map(warm) == golden["digests"], (
        "Cache-replayed digests drifted from the committed goldens — "
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


@pytest.fixture(scope="module")
def flow_report():
    report = run_campaign(FLOW_CAMPAIGN)
    assert not report.failures
    return report


def test_flow_on_digests_match_committed_golden_file(flow_report):
    golden = json.loads(FLOW_GOLDEN_PATH.read_text())
    assert _digest_map(flow_report) == golden["digests"], (
        "Flow-on trace digests drifted from tests/golden/"
        "flow_digests.json.  If this change to the flow substrate is "
        "intentional, regenerate with `python tests/golden/"
        "regenerate_determinism.py` and commit it; otherwise the "
        "substrate's determinism has been broken.")


@pytest.mark.parametrize("campaign,path", [
    (CONTRACT_CAMPAIGN, GOLDEN_PATH), (FLOW_CAMPAIGN, FLOW_GOLDEN_PATH)],
    ids=["determinism", "determinism-flow"])
def test_campaign_cells_match_golden_summary_and_outcome_digests(
        campaign, path):
    """Every contract cell's statistics and per-frame fates are pinned
    apart from its event trajectory: a change that only removes
    bookkeeping events moves the trace digests and nothing here."""
    golden = json.loads(path.read_text())
    digests = campaign_cell_digests(campaign)
    assert digests == {name: golden[name] for name in digests}, (
        f"Summary or outcome digests drifted from {path.name}: a "
        "statistic or a frame's fate changed.")


def test_flow_on_walks_a_different_trajectory(flow_report,
                                              serial_report):
    """Flow on really engages: its digests differ from flow off."""
    flow_digests = set(_digest_map(flow_report).values())
    base_digests = set(_digest_map(serial_report).values())
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
    golden = json.loads(FLOW_GOLDEN_PATH.read_text())["digests"]
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
    """Ramp, mobility, chaos and cohort cells replay their pinned
    trace, summary and outcome digests, in-process and across worker
    processes."""
    golden = json.loads(RUNNER_GOLDEN_PATH.read_text())
    assert golden["duration_s"] == RUNNER_CELL_S
    assert replay_runner_cells(workers) == golden["cells"], (
        "Runner cells drifted from tests/golden/runner_digests.json.  "
        "If this change to the simulation is intentional, regenerate "
        "with `python tests/golden/regenerate_determinism.py` and "
        "commit it; otherwise the determinism contract has been "
        "broken.")


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
