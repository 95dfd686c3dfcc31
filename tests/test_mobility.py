"""Tests for client mobility and stateful session handover.

Covers the trajectory model (deterministic, seed-derived, validated),
the session directory routing contract, the handover protocol's happy
path (state moves, nothing lost, the client cuts over to the new
epoch), the naive kill-and-reconnect baseline (state dies, counted),
supersession of in-flight handovers, and mid-handover chaos (source
crash → forward recovery).  Conservation is audited after every run:
see ``tests/test_handover_conservation.py`` for the randomized sweep.
"""

import numpy as np
import pytest

from repro.chaos import FaultPlan, InstanceCrash, NetworkPartition
from repro.experiments.runner import (DRAIN_S, ExperimentSpec, MobilitySpec,
                                      run_experiment)
from repro.flow import (
    check_client_conservation,
    check_result_conservation,
    check_state_conservation,
)
from repro.mobility import (
    AttachmentSegment,
    ClientTrajectory,
    SessionDirectory,
    default_site_profiles,
    random_trajectory,
)
from repro.mobility.handover import (BACKOFF_MULTIPLIER, MAX_ATTEMPTS,
                                     RETRY_BACKOFF_S)
from repro.net.netem import lte_profile
from repro.scatter.config import (PIPELINE_ORDER, PlacementConfig,
                                  baseline_configs)

PLACEMENT = baseline_configs()["C1"]
#: C2 with a second sift replica at e1, where the roaming client's
#: session starts: its move to e2 finds a warm replica there, so the
#: first snapshot is taken in the same event as the trigger and catches
#: the session entries in flight instead of letting them drain during
#: a container warmup.
WARM_TARGET = PlacementConfig("C2+sift@e1", {
    **baseline_configs()["C2"].placements, "sift": ["e1", "e2"]})

#: Outer bound on how long the resilience layer may take to reach a
#: verdict on one frame (retry budget + breaker window + fallback).
VERDICT_BUDGET_S = 3.0


def _check_all(result, duration_s):
    now = duration_s + DRAIN_S
    check_result_conservation(result)
    check_state_conservation(result)
    for stats in result.clients:
        check_client_conservation(stats, now=now,
                                  budget_s=VERDICT_BUDGET_S)


# ----------------------------------------------------------------------
# Trajectory model
# ----------------------------------------------------------------------
def test_trajectory_validation():
    with pytest.raises(ValueError):
        ClientTrajectory(client_id=0, segments=())
    with pytest.raises(ValueError):  # must start at t=0
        ClientTrajectory(client_id=0, segments=(
            AttachmentSegment(1.0, "e1"),))
    with pytest.raises(ValueError):  # strictly increasing starts
        ClientTrajectory(client_id=0, segments=(
            AttachmentSegment(0.0, "e1"), AttachmentSegment(0.0, "e2")))
    with pytest.raises(ValueError):
        AttachmentSegment(-1.0, "e1")
    with pytest.raises(ValueError):
        AttachmentSegment(0.0, "")


def test_trajectory_site_at_and_handovers():
    trajectory = ClientTrajectory(client_id=3, segments=(
        AttachmentSegment(0.0, "e1"),
        AttachmentSegment(4.0, "e2"),
        AttachmentSegment(9.0, "e1"),
    ))
    assert trajectory.initial_site == "e1"
    assert trajectory.handovers() == [(4.0, "e1", "e2"),
                                      (9.0, "e2", "e1")]


def test_trajectory_netem_schedule_carries_site_profiles():
    lte = lte_profile()
    trajectory = ClientTrajectory(client_id=0, segments=(
        AttachmentSegment(0.0, "e1"),           # no profile: untouched
        AttachmentSegment(5.0, "e2", netem=lte),
    ))
    assert trajectory.netem_schedule() == [(5.0, lte)]


def test_random_trajectory_is_deterministic_and_bounded():
    make = lambda: random_trajectory(  # noqa: E731
        0, duration_s=60.0, rng=np.random.default_rng(42),
        mean_dwell_s=8.0, min_dwell_s=2.0)
    a, b = make(), make()
    assert a == b  # same seed, same walk
    assert a.segments[0].start_s == 0.0
    high = 2.0 * 8.0 - 2.0
    for earlier, later in zip(a.segments, a.segments[1:]):
        # Every boundary is a real move with a bounded dwell.
        assert later.site != earlier.site
        assert 2.0 <= later.start_s - earlier.start_s <= high
    # Segments carry the per-site access profiles.
    profiles = default_site_profiles()
    for segment in a.segments:
        assert segment.netem == profiles[segment.site]


def test_random_trajectory_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_trajectory(0, duration_s=0.0, rng=rng)
    with pytest.raises(ValueError):
        random_trajectory(0, duration_s=10.0, rng=rng,
                          mean_dwell_s=1.0, min_dwell_s=2.0)
    with pytest.raises(ValueError):
        random_trajectory(0, duration_s=10.0, rng=rng, sites=())


# ----------------------------------------------------------------------
# Session directory
# ----------------------------------------------------------------------
class _FakeInstance:
    def __init__(self, address, running=True):
        self.address = address
        self.running = running

    def is_running(self):
        return self.running


def test_session_directory_routes_only_its_service():
    directory = SessionDirectory("sift")
    instance = _FakeInstance(address="e1:5001")
    directory.bind(7, instance, epoch=2)
    assert directory.route("sift", 7) == "e1:5001"
    assert directory.epoch(7) == 2
    # Wrong service or unknown client: fall back to the balancer.
    assert directory.route("matching", 7) is None
    assert directory.route("sift", 8) is None
    assert directory.epoch(8) == 0
    # A dead pinned replica must not capture traffic.
    instance.running = False
    assert directory.route("sift", 7) is None


# ----------------------------------------------------------------------
# The protocol, end to end
# ----------------------------------------------------------------------
ONE_MOVE = ClientTrajectory(client_id=0, segments=(
    AttachmentSegment(0.0, "e1"),
    AttachmentSegment(4.0, "e2"),
))
DURATION_S = 10.0


def _mobility(*, seed=0, plan=None, placement=PLACEMENT, **mobility):
    mobility.setdefault("trajectories", [ONE_MOVE])
    return run_experiment(ExperimentSpec(
        placement, num_clients=1, duration_s=DURATION_S, seed=seed,
        scatterpp=True, stateless_sift=False, plan=plan,
        mobility=MobilitySpec(**mobility)))


def test_stateful_handover_moves_state_without_loss():
    result = _mobility(placement=WARM_TARGET)
    report = result.mobility["report"]
    assert report["planned"] == 1
    assert report["started"] == 1
    assert report["completed"] == 1
    assert report["pending"] == 0
    # Real state crossed the wire, in real chunks, and none died.
    assert report["state_entries_moved"] > 0
    assert report["state_bytes_moved"] > 0
    assert report["transfer_chunks"] >= 1
    assert report["state_entries_lost"] == 0
    # The client saw the window open and cut over to the new epoch;
    # late results computed at the old site against the old epoch are
    # rejected, not double-counted.
    assert report["handover_windows"] >= 1
    assert report["rejected_stale_results"] > 0
    # MTTR is the window→cutover bound: positive, well under a second
    # for ~MBs of session state on a gigabit inter-site link.
    assert 0.0 < report["mttr_s"]["mean"] < 1.0
    (record,) = result.mobility["handovers"]
    assert record["outcome"] == "completed"
    assert record["from_site"] == "e1" and record["to_site"] == "e2"
    assert record["epoch"] == 1
    assert record["latency_s"] == pytest.approx(
        report["mttr_s"]["mean"])
    _check_all(result, DURATION_S)


def test_naive_baseline_loses_session_state():
    stateful = _mobility()
    naive = _mobility(naive=True)
    s_report = stateful.mobility["report"]
    n_report = naive.mobility["report"]
    # The naive rebind tears the session down: entries die, counted.
    assert n_report["state_entries_lost"] > 0
    assert n_report["state_entries_moved"] == 0
    assert s_report["state_entries_lost"] == 0
    # And the client pays for it: never fewer lost frames than the
    # stateful protocol on the identical trajectory and seed.
    assert s_report["frames_lost"] <= n_report["frames_lost"]
    _check_all(naive, DURATION_S)


def test_same_site_handover_is_a_noop():
    stay = ClientTrajectory(client_id=0, segments=(
        AttachmentSegment(0.0, "e1"),))
    result = _mobility(trajectories=[stay])
    report = result.mobility["report"]
    assert report["planned"] == 0
    assert report["started"] == 0
    assert report["state_entries_moved"] == 0
    assert report["handover_windows"] == 0
    _check_all(result, DURATION_S)


def test_rapid_second_handover_supersedes_the_first():
    bounce = ClientTrajectory(client_id=0, segments=(
        AttachmentSegment(0.0, "e1"),
        AttachmentSegment(4.0, "e2"),
        # Back before the first handover's warmup ends: supersede it.
        AttachmentSegment(4.05, "e1"),
    ))
    result = _mobility(trajectories=[bounce])
    report = result.mobility["report"]
    assert report["started"] == 2
    assert report["superseded"] == 1
    assert report["completed"] == 1
    outcomes = [r["outcome"] for r in result.mobility["handovers"]]
    assert outcomes == ["superseded", "completed"]
    _check_all(result, DURATION_S)


def test_source_crash_mid_handover_fails_over_forward():
    # Kill sift just as the handover's transfer gets going.  The
    # directory already points at e1's replica; with warmup 0.5 s the
    # transfer is in flight at 4.6 s.
    plan = FaultPlan([InstanceCrash(at_s=4.6, service="sift")])
    result = _mobility(plan=plan, seed=1)
    report = result.mobility["report"]
    assert report["started"] == 1
    assert report["pending"] == 0
    # The crash races the transfer: whichever phase it lands in, the
    # protocol must end in a terminal state without losing accounting.
    (record,) = result.mobility["handovers"]
    assert record["outcome"] in ("completed", "failed-over",
                                 "abandoned")
    if record["outcome"] == "failed-over":
        assert "source-crashed" in record["abort_reasons"]
    _check_all(result, DURATION_S)


def test_replicas_deployed_mid_run_route_by_session():
    """A replica deployed mid-run — the failure detector's replacement
    primary, a handover's target sift — consults the session directory
    like the replicas deployed at start."""
    result = run_experiment(ExperimentSpec(
        PLACEMENT, num_clients=2, duration_s=4.0, seed=0,
        scatterpp=True, stateless_sift=False,
        mobility=MobilitySpec(mean_dwell_s=0.6, min_dwell_s=0.3),
        plan=FaultPlan([InstanceCrash(at_s=1.0, service="primary")])))
    orchestrator = result.pipeline.orchestrator
    replicas = [instance for service in orchestrator.services()
                for instance in (orchestrator.instances(service)
                                 + orchestrator.retired_instances(service))]
    first_late_port = orchestrator.BASE_PORT + len(PIPELINE_ORDER)
    late = {instance.name for instance in replicas
            if instance.address.port >= first_late_port}
    assert {"primary", "sift"} <= late
    routers = {id(instance.session_router) for instance in replicas}
    assert routers == {id(replicas[0].session_router)}
    assert replicas[0].session_router is not None


def test_handover_retries_with_bounded_backoff_then_abandons():
    # The sites partition just before the move and stay apart past the
    # run: matching at e2 can no longer fetch the session's entries at
    # e1, so every attempt has state to ship, and every chunk is lost.
    plan = FaultPlan([NetworkPartition(
        at_s=3.9, duration_s=DURATION_S + DRAIN_S - 3.9,
        group_a=("e1",), group_b=("e2",))])
    result = _mobility(placement=WARM_TARGET, plan=plan)
    (record,) = result.mobility["handovers"]
    assert record["outcome"] == "abandoned"
    assert record["attempts"] == MAX_ATTEMPTS
    assert record["abort_reasons"] == ["transfer-lost"] * MAX_ATTEMPTS
    # The attempts are spaced by the deterministic backoff, no more.
    backoff_s = sum(RETRY_BACKOFF_S * BACKOFF_MULTIPLIER ** k
                    for k in range(MAX_ATTEMPTS - 1))
    assert record["completed_s"] - record["started_s"] == \
        pytest.approx(backoff_s)
    report = result.mobility["report"]
    assert report["abandoned"] == 1 and report["retried"] == 1
    # Nothing moved, and — rollback being free pre-cutover — nothing
    # was lost either: the session stayed at the source.
    assert report["state_entries_moved"] == 0
    assert report["state_entries_lost"] == 0
    _check_all(result, DURATION_S)


def test_mobility_off_run_is_bit_identical():
    """The mobility machinery must be invisible until engaged: a plain
    scatterpp run replays the same digest whether or not the mobility
    package was ever imported/exercised in the process (it was, by the
    tests above)."""
    a = run_experiment(ExperimentSpec(
        PLACEMENT, num_clients=1, duration_s=2.0, seed=0, scatterpp=True))
    b = run_experiment(ExperimentSpec(
        PLACEMENT, num_clients=1, duration_s=2.0, seed=0, scatterpp=True))
    assert a.trace_digest == b.trace_digest


def test_mobility_run_is_deterministic():
    results = [_mobility(seed=3, trajectories=None) for __ in range(2)]
    a, b = results
    assert a.trace_digest == b.trace_digest
    assert a.mobility == b.mobility
    assert [c.received for c in a.clients] == \
        [c.received for c in b.clients]
