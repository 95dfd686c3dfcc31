"""Integration tests: scAtteR end to end on the simulated testbed."""

import pytest

from repro.cluster.machine import GB
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.orchestra.orchestrator import Orchestrator
from repro.scatter.config import (
    baseline_configs,
    scaling_config,
    uniform_config,
)
from repro.scatter.pipeline import ScatterPipeline
from repro.cluster.testbed import build_paper_testbed
from repro.sim import RngRegistry, Simulator


@pytest.fixture(scope="module")
def c1_single():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=10.0))


@pytest.fixture(scope="module")
def c1_four():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0))


def test_deploy_places_services_correctly():
    sim = Simulator()
    testbed = build_paper_testbed(sim, RngRegistry(0), num_clients=1)
    orchestrator = Orchestrator(testbed)
    pipeline = ScatterPipeline(testbed, orchestrator,
                               baseline_configs()["C12"])
    pipeline.deploy()
    assert pipeline.instances("primary")[0].address.node == "e1"
    assert pipeline.instances("sift")[0].address.node == "e1"
    for service in ("encoding", "lsh", "matching"):
        assert pipeline.instances(service)[0].address.node == "e2"


def test_deploy_is_idempotent():
    sim = Simulator()
    testbed = build_paper_testbed(sim, RngRegistry(0), num_clients=1)
    orchestrator = Orchestrator(testbed)
    pipeline = ScatterPipeline(testbed, orchestrator,
                               baseline_configs()["C1"])
    pipeline.deploy()
    pipeline.deploy()
    assert len(pipeline.instances("sift")) == 1


def test_deploy_reserves_memory():
    sim = Simulator()
    testbed = build_paper_testbed(sim, RngRegistry(0), num_clients=1)
    orchestrator = Orchestrator(testbed)
    ScatterPipeline(testbed, orchestrator,
                    baseline_configs()["C1"]).deploy()
    # All five base footprints land on E1: 0.4+1.5+1.2+0.8+1.0 GB.
    assert testbed.machine("e1").memory.in_use_bytes == \
        pytest.approx(4.9 * GB)


def test_single_client_realtime_qos(c1_single):
    """§4: single client ≥25 FPS at ≈40 ms E2E."""
    assert c1_single.mean_fps() >= 25.0
    assert c1_single.success_rate() >= 0.80
    assert 30.0 <= c1_single.mean_e2e_ms() <= 55.0


def test_single_client_service_latencies(c1_single):
    latencies = c1_single.service_latency_ms()
    # sift is the heaviest stage; every service is in Fig. 2's range.
    assert latencies["sift"] >= latencies["encoding"]
    for service, value in latencies.items():
        assert 1.0 <= value <= 45.0, (service, value)


def test_concurrency_degrades_fps(c1_single, c1_four):
    """§4: scAtteR degrades significantly with concurrent clients."""
    assert c1_four.mean_fps() < 0.5 * c1_single.mean_fps()


def test_four_clients_below_five_fps(c1_four):
    """§5: scAtteR struggles to maintain > 5 FPS with four clients."""
    assert c1_four.mean_fps() <= 8.0


def test_sift_sees_double_load(c1_single):
    """§4: sift observes ≈2x the request load of its peers."""
    sift = c1_single.pipeline.instances("sift")[0]
    encoding = c1_single.pipeline.instances("encoding")[0]
    ratio = sift.stats.received / max(1, encoding.stats.received)
    assert 1.6 <= ratio <= 2.2


def test_sift_memory_grows_with_clients(c1_single, c1_four):
    """§4: sift stores state while matching lags; memory grows."""
    single = c1_single.service_memory_gb()["sift"]
    four = c1_four.service_memory_gb()["sift"]
    assert four > single + 0.1


def test_drops_concentrate_at_sift_and_matching(c1_four):
    drops = c1_four.drop_counts()
    assert drops["sift"] > drops["encoding"]
    assert drops["sift"] > drops["lsh"]
    assert drops["matching"] > 0


def test_fetch_timeouts_rise_with_load(c1_single, c1_four):
    def timeouts(result):
        return sum(i.fetch_timeouts
                   for i in result.pipeline.instances("matching"))

    assert timeouts(c1_four) > timeouts(c1_single)


def test_utilization_not_proportional_to_load(c1_single, c1_four):
    """Insight I: hardware utilization does not track QoS.  FPS drops
    ~7x from 1 to 4 clients while GPU utilization moves only a few
    points."""
    gpu_single = c1_single.machine_gpu_util()["e1"]
    gpu_four = c1_four.machine_gpu_util()["e1"]
    fps_ratio = c1_single.mean_fps() / max(0.1, c1_four.mean_fps())
    util_ratio = gpu_four / max(1e-6, gpu_single)
    assert fps_ratio > 3.0
    assert 0.7 <= util_ratio <= 1.5


def test_state_stickiness_with_sift_replicas():
    """§4: fetches target the replica holding the frame's state."""
    result = run_experiment(ExperimentSpec(
        scaling_config([1, 2, 1, 1, 2]), num_clients=2, duration_s=10.0))
    sifts = result.pipeline.instances("sift")
    assert len(sifts) == 2
    # Both replicas served fetches; none was bypassed.
    for sift in sifts:
        assert sift.fetch_hits > 0


def test_results_only_go_to_owning_client():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C2"], num_clients=2, duration_s=10.0))
    for stats in result.clients:
        # Every received frame number was one this client sent.
        assert set(stats.received) <= set(stats.sent)


def test_e2e_latency_of_split_higher_than_local():
    local = run_experiment(ExperimentSpec(
        uniform_config("C1", "e1"), num_clients=1, duration_s=10.0))
    split = run_experiment(ExperimentSpec(
        baseline_configs()["C12"], num_clients=1, duration_s=10.0))
    assert split.mean_e2e_ms() > local.mean_e2e_ms()


def test_deterministic_given_seed():
    first = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=5.0, seed=7))
    second = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=5.0, seed=7))
    assert first.mean_fps() == second.mean_fps()
    assert first.mean_e2e_ms() == second.mean_e2e_ms()


def test_different_seeds_differ():
    first = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=5.0, seed=1))
    second = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=5.0, seed=2))
    assert first.mean_e2e_ms() != second.mean_e2e_ms()
