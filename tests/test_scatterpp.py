"""Integration tests: scAtteR++ (stateless sift + sidecars)."""

import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs, uniform_config
from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs
from repro.scatterpp.services import PACKED_WIRE_SIZES


@pytest.fixture(scope="module")
def pp_single():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=10.0,
        scatterpp=True))


@pytest.fixture(scope="module")
def pp_four():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        scatterpp=True))


@pytest.fixture(scope="module")
def scatter_four():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0))


@pytest.fixture(scope="module")
def scatter_single():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=10.0))


def test_packed_frames_grow_to_480kb():
    """§5: packaging SIFT state grows frames from ≈180 KB to ≈480 KB."""
    assert PACKED_WIRE_SIZES["sift->encoding"] == 480 * 1024


def test_single_client_improvement(pp_single, scatter_single):
    """§5: ≈9% FPS and ≈+17.6% success at one client."""
    assert pp_single.mean_fps() >= scatter_single.mean_fps()
    assert pp_single.success_rate() >= \
        scatter_single.success_rate() + 0.05


def test_multi_client_framerate_multiplier(pp_four, scatter_four):
    """§5: ≈2.5x frame rate with concurrent clients."""
    multiplier = pp_four.mean_fps() / max(0.1, scatter_four.mean_fps())
    assert multiplier >= 2.0


def test_four_clients_maintain_realtime_floor(pp_four):
    """§5: scAtteR++ consistently maintains ≥12 FPS with 4 clients."""
    assert pp_four.mean_fps() >= 12.0


def test_no_fetch_machinery_in_stateless_pipeline(pp_single):
    sift = pp_single.pipeline.instances("sift")[0]
    assert not hasattr(sift, "fetch_hits")
    matching = pp_single.pipeline.instances("matching")[0]
    assert not hasattr(matching, "fetch_timeouts")


def test_sidecars_eliminate_busy_drops(pp_four):
    """Drops move from the UDP socket into the sidecar's threshold."""
    drops = pp_four.drop_counts()
    assert all(count == 0 for count in drops.values())
    stale = sum(
        i.sidecar.stats.dropped_stale
        for service in ("sift", "encoding", "lsh", "matching")
        for i in pp_four.pipeline.instances(service))
    assert stale > 0


def test_sidecar_latency_includes_queueing(pp_four, pp_single):
    """§5: scAtteR++ incurs slightly higher per-service latency (the
    sidecar's queueing time is part of what it reports)."""
    busy = pp_four.service_latency_ms()["sift"]
    idle = pp_single.service_latency_ms()["sift"]
    assert busy > idle


def test_analytics_present_and_sampled(pp_four):
    analytics = pp_four.analytics
    assert analytics is not None
    assert analytics.services() == ["encoding", "lsh", "matching",
                                    "primary", "sift"]
    assert analytics.mean("primary", "ingress_fps") > 50.0


def test_threshold_controls_drops():
    strict = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        threshold_s=0.020, scatterpp=True))
    lax = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        threshold_s=0.500, scatterpp=True))

    def stale_drops(result):
        return sum(i.sidecar.stats.dropped_stale
                   for service in ("sift", "encoding", "lsh", "matching")
                   for i in result.pipeline.instances(service))

    assert stale_drops(strict) > stale_drops(lax)


def test_threshold_validation():
    with pytest.raises(ValueError):
        scatterpp_pipeline_kwargs(threshold_s=0.0)


def test_ablation_stateless_only_beats_scatter(scatter_four):
    stateless_only = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        with_sidecars=False, scatterpp=True))
    assert stateless_only.mean_fps() > scatter_four.mean_fps()


def test_ablation_no_components_reduces_to_scatter(scatter_four):
    plain = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        stateless_sift=False, with_sidecars=False, scatterpp=True))
    assert plain.mean_fps() == pytest.approx(scatter_four.mean_fps(),
                                             rel=0.25)
    # The fetch machinery is back.
    matching = plain.pipeline.instances("matching")[0]
    assert hasattr(matching, "fetch_timeouts")


def test_ramp_experiment_staged_load():
    result = run_experiment(ExperimentSpec(
        uniform_config("E1", "e1"), 3, duration_s=15.0, scatterpp=True,
        stage_s=5.0))
    assert result.duration_s == pytest.approx(15.0)
    # Client 0 streamed the whole run; client 2 only the last stage.
    assert result.clients[0].frames_sent > \
        result.clients[2].frames_sent * 2
    # Ingress at primary steps up stage by stage.
    ingress = result.analytics.series("primary", "ingress_fps")
    first_stage = [v for t, v in ingress if t <= 5.0]
    last_stage = [v for t, v in ingress if t > 10.0]
    assert max(last_stage) > max(first_stage) * 2


def test_ramp_validation():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(
            uniform_config("E1", "e1"), 0, duration_s=10.0,
            scatterpp=True, stage_s=10.0))
    with pytest.raises(ValueError):
        ExperimentSpec(uniform_config("E1", "e1"), 1, duration_s=10.0,
                       scatterpp=True, stage_s=0.0)


def test_admission_rejections_surface_in_analytics():
    """Shed load is visible as reject_ratio, not hidden in drop_ratio.

    Mid-run, a hot client enqueues more than ``ADMISSION_BURST``
    frames at once at the primary sidecar of a flow run: its token
    bucket rejects the excess.  The analytics rows must report it in
    the dedicated ``reject_ratio`` column while ``drop_ratio`` keeps its
    queue-exit meaning, and every ledger still balances.
    """
    from repro.dsp.record import FrameRecord
    from repro.experiments.runner import DRAIN_S, build_experiment
    from repro.flow import check_sidecar_conservation
    from repro.flow.config import ADMISSION_BURST
    from repro.net.addresses import Address
    from repro.scatter.config import WIRE_SIZES
    from repro.scatterpp.analytics import SidecarAnalytics

    sim, __, orchestrator, pipeline, clients = build_experiment(
        ExperimentSpec(baseline_configs()["C1"], num_clients=2,
                       duration_s=4.0, flow=True, scatterpp=True))
    analytics = SidecarAnalytics(sim)
    for instance in orchestrator.all_instances():
        analytics.watch(instance)
    analytics.start()
    primary = pipeline.instances("primary")[0]

    def hot_burst():
        # An unbound reply address: the results are dropped on arrival.
        for number in range(ADMISSION_BURST + 3):
            primary.sidecar.enqueue(FrameRecord(
                client_id=9, frame_number=number,
                reply_to=Address("nuc0", 9109), step="primary",
                created_s=sim.now,
                size_bytes=WIRE_SIZES["client->primary"]))

    sim.schedule(1.5, hot_burst)
    for client in clients:
        client.start(4.0)
    sim.run(until=4.0 + DRAIN_S)

    stats = primary.sidecar.stats
    assert stats.rejected == 3
    assert 0.0 < stats.reject_ratio() < 1.0
    # Rejected frames never entered the queue, so they must not count
    # as queue exits.
    assert stats.reject_ratio() > stats.drop_ratio()
    assert analytics.mean("primary", "reject_ratio") > 0.0
    # The rows still expose the sidecar's instantaneous credits.
    rows = [row for row in analytics.rows if row.service == "primary"]
    assert rows and all(row.credits >= 0 for row in rows)
    for instance in orchestrator.all_instances():
        check_sidecar_conservation(instance)


def test_analytics_reject_ratio_zero_without_flow(pp_four):
    assert pp_four.analytics.mean("primary", "reject_ratio") == 0.0
    assert all(row.reject_ratio == 0.0
               for row in pp_four.analytics.rows)
