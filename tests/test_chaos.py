"""Chaos tests: failures injected under live load.

The orchestrator must keep the deployment converging through crashes
(§3.2: Oakestra automatically re-deploys services upon failures), and
the pipelines must degrade gracefully rather than wedge.
"""

import pytest

from repro.cluster.container import ContainerState
from repro.cluster.testbed import build_paper_testbed
from repro.experiments.runner import DRAIN_S
from repro.orchestra.orchestrator import Orchestrator
from repro.scatter.client import ArClient
from repro.scatter.config import PIPELINE_ORDER, baseline_configs
from repro.scatter.pipeline import ScatterPipeline
from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs
from repro.sim import RngRegistry, Simulator


def run_with_chaos(*, scatterpp: bool, victims, kill_times,
                   duration_s=30.0, num_clients=2):
    sim = Simulator()
    rng = RngRegistry(0)
    testbed = build_paper_testbed(sim, rng, num_clients=num_clients)
    orchestrator = Orchestrator(testbed, redeploy_delay_s=1.0)
    kwargs = scatterpp_pipeline_kwargs() if scatterpp else {}
    pipeline = ScatterPipeline(testbed, orchestrator,
                               baseline_configs()["C1"], **kwargs)
    pipeline.deploy()
    orchestrator.start()
    clients = [ArClient(client_id=i, node=node,
                        network=testbed.network,
                        registry=orchestrator.registry,
                        rng=rng.stream(f"client.{i}"))
               for i, node in enumerate(testbed.client_nodes)]
    for client in clients:
        client.start(duration_s)

    def chaos():
        for when, service in sorted(zip(kill_times, victims)):
            yield sim.timeout(max(0.0, when - sim.now))
            instances = orchestrator.instances(service)
            if instances:
                orchestrator.fail_instance(instances[0])

    sim.spawn(chaos())
    sim.run(until=duration_s + DRAIN_S)
    return sim, orchestrator, clients


def test_single_crash_recovers():
    __, orchestrator, clients = run_with_chaos(
        scatterpp=False, victims=["sift"], kill_times=[10.0])
    assert orchestrator.redeploy_count == 1
    # The replacement runs and is registered.
    sift = orchestrator.instances("sift")
    assert len(sift) == 1
    assert sift[0].container.state is ContainerState.RUNNING
    assert orchestrator.registry.instances("sift") == \
        [sift[0].address]
    # Clients kept receiving after recovery.
    for client in clients:
        late = [t for t in client.stats.received.values() if t > 15.0]
        assert late, "no frames delivered after the recovery window"


def test_repeated_crashes_all_services():
    """Kill every service once, in pipeline order, under load."""
    __, orchestrator, clients = run_with_chaos(
        scatterpp=False, victims=list(PIPELINE_ORDER),
        kill_times=[4.0, 8.0, 12.0, 16.0, 20.0])
    assert orchestrator.redeploy_count == 5
    for service in PIPELINE_ORDER:
        instances = orchestrator.instances(service)
        assert len(instances) == 1
        assert instances[0].container.state is ContainerState.RUNNING
    total_received = sum(c.stats.frames_received for c in clients)
    assert total_received > 0


def test_scatterpp_crash_recovers_with_sidecar():
    __, orchestrator, clients = run_with_chaos(
        scatterpp=True, victims=["encoding"], kill_times=[10.0])
    assert orchestrator.redeploy_count == 1
    encoding = orchestrator.instances("encoding")[0]
    # The replacement came back with a working sidecar.
    assert hasattr(encoding, "sidecar")
    assert encoding.sidecar.stats.enqueued > 0
    for client in clients:
        late = [t for t in client.stats.received.values() if t > 15.0]
        assert late


def test_crash_frees_machine_memory():
    sim, orchestrator, __ = run_with_chaos(
        scatterpp=False, victims=["matching"], kill_times=[10.0])
    # Exactly one replica per service exists; books balance (no
    # leaked memory from the failed container).
    machine = orchestrator.testbed.machine("e1")
    expected = sum(
        instance.container.memory_bytes()
        for service in PIPELINE_ORDER
        for instance in orchestrator.instances(service))
    assert machine.memory.in_use_bytes == pytest.approx(expected)


def test_back_to_back_crashes_of_same_service():
    __, orchestrator, clients = run_with_chaos(
        scatterpp=False, victims=["sift", "sift", "sift"],
        kill_times=[5.0, 10.0, 15.0])
    assert orchestrator.redeploy_count == 3
    assert len(orchestrator.instances("sift")) == 1
    late = [t for c in clients
            for t in c.stats.received.values() if t > 20.0]
    assert late


# ----------------------------------------------------------------------
# Heartbeat-discovered failures (no control-plane telepathy)
# ----------------------------------------------------------------------
from repro.chaos import (  # noqa: E402
    FaultPlan,
    GrayFailure,
    InstanceCrash,
    NetworkPartition,
    NodeFailure,
)
from repro.chaos.injector import FaultInjector  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentSpec,
    run_experiment,
)
from repro.orchestra.health import (  # noqa: E402
    FailureDetector,
    HealthState,
)
from repro.scatter.resilience import ResilienceConfig  # noqa: E402


def run_with_detector(*, plan, config_name="C2", scatterpp=False,
                      duration_s=20.0, num_clients=1,
                      detector_kwargs=None, resilience=None):
    """Manual twin of a chaos :func:`run_experiment` that returns the
    live detector/injector objects for assertions."""
    sim = Simulator()
    rng = RngRegistry(0)
    testbed = build_paper_testbed(sim, rng, num_clients=num_clients)
    orchestrator = Orchestrator(testbed)
    kwargs = scatterpp_pipeline_kwargs() if scatterpp else {}
    pipeline = ScatterPipeline(testbed, orchestrator,
                               baseline_configs()[config_name], **kwargs)
    pipeline.deploy()
    orchestrator.start(watchdog=False)
    detector = FailureDetector(orchestrator, **(detector_kwargs or {}))
    detector.start()
    injector = FaultInjector(orchestrator, plan)
    injector.start()
    clients = [ArClient(client_id=i, node=node,
                        network=testbed.network,
                        registry=orchestrator.registry,
                        resilience=resilience,
                        rng=rng.stream(f"client.{i}"))
               for i, node in enumerate(testbed.client_nodes)]
    for client in clients:
        client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)
    return sim, orchestrator, detector, injector, clients


def test_heartbeat_detects_crash_and_redeploys():
    """A crash nobody signals is found by probes and healed."""
    crash_at = 8.0
    sim, orchestrator, detector, __, clients = run_with_detector(
        plan=FaultPlan([InstanceCrash(at_s=crash_at, service="sift")]))
    # The watchdog is off: the only path to a redeploy is detection.
    assert orchestrator.redeploy_count == 1
    sift_events = [e for e in detector.events if e.service == "sift"]
    states = [e.state for e in sift_events]
    assert HealthState.SUSPECT in states
    assert HealthState.DEAD in states
    dead = [e for e in sift_events if e.state is HealthState.DEAD][0]
    # Detected within the dead timeout plus a probe interval of slack.
    assert crash_at + detector.dead_timeout_s <= dead.timestamp_s \
        <= crash_at + detector.dead_timeout_s + 2 * detector.interval_s
    redeploy_t, service = orchestrator.redeploy_events[0]
    assert service == "sift"
    assert redeploy_t >= dead.timestamp_s
    # The replacement is live, routed, and serving clients again.
    sift = orchestrator.instances("sift")
    assert len(sift) == 1
    assert sift[0].container.state is ContainerState.RUNNING
    assert orchestrator.registry.instances("sift") == [sift[0].address]
    late = [t for c in clients
            for t in c.stats.received.values()
            if t > redeploy_t + 2.0]
    assert late, "no frames delivered after heartbeat-driven recovery"


@pytest.mark.parametrize("scatterpp", [False, True])
def test_partition_then_heal_recovers_routing(scatterpp):
    """A short partition suspends routing; healing restores it."""
    part_start, part_len = 8.0, 2.0
    plan = FaultPlan([NetworkPartition(
        at_s=part_start, duration_s=part_len,
        group_a=("e1",), group_b=("e2",))])
    # dead_timeout longer than the partition: instances must come back
    # via SUSPECT -> HEALTHY, never via redeploy.
    sim, orchestrator, detector, injector, clients = run_with_detector(
        plan=plan, scatterpp=scatterpp,
        detector_kwargs={"suspect_timeout_s": 0.75,
                         "dead_timeout_s": 10.0})
    assert orchestrator.redeploy_count == 0
    suspects = [e for e in detector.events
                if e.state is HealthState.SUSPECT]
    recoveries = [e for e in detector.events
                  if e.state is HealthState.HEALTHY]
    assert suspects, "partition never suspected anyone"
    assert recoveries, "nobody recovered after the heal"
    assert all(part_start <= e.timestamp_s for e in suspects)
    heal_t = part_start + part_len
    assert all(e.timestamp_s >= heal_t for e in recoveries)
    # Every instance is HEALTHY and routed again at the end.
    for service in PIPELINE_ORDER:
        instance = orchestrator.instances(service)[0]
        assert detector.records[instance.address].state is \
            HealthState.HEALTHY
        assert orchestrator.registry.instances(service) == \
            [instance.address]
    window = injector.windows[0]
    assert window.ended_s == pytest.approx(heal_t)
    late = [t for c in clients
            for t in c.stats.received.values() if t > heal_t + 2.0]
    assert late, "no frames delivered after the partition healed"


def test_gray_failure_invisible_to_detector_visible_to_breaker():
    """A silent slowdown never trips heartbeats, only the breaker."""
    plan = FaultPlan([GrayFailure(at_s=6.0, duration_s=6.0,
                                  service="matching", slowdown=25.0)])
    resilience = ResilienceConfig(request_timeout_s=0.2)
    sim, orchestrator, detector, __, clients = run_with_detector(
        plan=plan, duration_s=16.0, resilience=resilience)
    # The replica keeps acking: zero detector transitions, no redeploy.
    assert detector.events == []
    assert orchestrator.redeploy_count == 0
    client = clients[0]
    assert client.breaker.trips >= 1
    assert client.stats.frames_degraded > 0
    # Slowdown is restored afterwards: late frames flow again.
    late = [t for t in client.stats.received.values() if t > 13.0]
    assert late


def test_node_failure_blocks_then_retries_redeploy():
    """A pinned node going down stalls healing until it rejoins."""
    fail_at, down_for = 5.0, 3.0
    plan = FaultPlan([NodeFailure(at_s=fail_at, node="e2",
                                  duration_s=down_for)])
    sim, orchestrator, detector, __, __ = run_with_detector(
        plan=plan, duration_s=20.0)
    # All five pinned services eventually came back on e2...
    assert orchestrator.redeploy_count == len(PIPELINE_ORDER)
    for service in PIPELINE_ORDER:
        instances = orchestrator.instances(service)
        assert len(instances) == 1
        assert instances[0].address.node == "e2"
        assert instances[0].container.state is ContainerState.RUNNING
    # ...but only after the node rejoined: no redeploy can precede it.
    rejoin_t = fail_at + down_for
    assert all(t >= rejoin_t for t, __ in orchestrator.redeploy_events)


def test_fault_on_empty_service_is_skipped_not_raised():
    """A fault racing a handover/crash that emptied the
    service must log a skipped window and move on — never raise
    ChaosError, never crash a ghost instance."""
    sim = Simulator()
    rng = RngRegistry(0)
    testbed = build_paper_testbed(sim, rng, num_clients=1)
    orchestrator = Orchestrator(testbed)
    pipeline = ScatterPipeline(testbed, orchestrator,
                               baseline_configs()["C1"])
    pipeline.deploy()
    orchestrator.start(watchdog=False)
    plan = FaultPlan([
        InstanceCrash(at_s=1.0, service="sift"),
        GrayFailure(at_s=2.0, duration_s=1.0, service="sift",
                    slowdown=10.0),
    ])
    injector = FaultInjector(orchestrator, plan)
    injector.start()
    # Empty the service before either fault lands (no watchdog, no
    # detector: nothing redeploys it).
    orchestrator.instances("sift")[0].crash()
    sim.run(until=4.0)

    assert len(injector.windows) == 2
    for window in injector.windows:
        assert window.detail == "skipped: no live replica of 'sift'"
        assert window.ended_s == window.started_s


def test_fault_prefers_registered_replica_mid_drain():
    """With one replica deregistered (draining out of a handover) and
    one registered, the crash lands on the replica still
    carrying traffic."""
    sim = Simulator()
    rng = RngRegistry(0)
    testbed = build_paper_testbed(sim, rng, num_clients=1)
    orchestrator = Orchestrator(testbed)
    pipeline = ScatterPipeline(testbed, orchestrator,
                               baseline_configs()["C1"])
    pipeline.deploy()
    orchestrator.start(watchdog=False)
    draining = orchestrator.instances("sift")[0]
    serving = orchestrator.scale_up("sift", machine="e2")
    orchestrator.registry.deregister("sift", draining.address)

    injector = FaultInjector(orchestrator,
                             FaultPlan([InstanceCrash(at_s=1.0,
                                                      service="sift")]))
    injector.start()
    sim.run(until=2.0)

    assert not serving.is_running()
    assert draining.is_running()
    assert injector.windows[0].detail == str(serving.address)


def test_resilience_experiment_deterministic():
    """Same seed, same plan -> bit-identical resilience metrics."""
    plan = [InstanceCrash(at_s=5.0, service="sift"),
            GrayFailure(at_s=10.0, duration_s=2.0, service="matching",
                        slowdown=25.0)]
    results = [run_experiment(ExperimentSpec(
        baseline_configs()["C2"], num_clients=1,
        plan=FaultPlan(list(plan)), duration_s=15.0, seed=7))
        for __ in range(2)]
    a, b = (r.resilience for r in results)
    assert a.availability() == b.availability()
    assert a.success_rate() == b.success_rate()
    assert a.mean_mttr_s() == b.mean_mttr_s()
    assert a.frames_sent == b.frames_sent
    assert a.frames_degraded == b.frames_degraded
    assert a.breaker_timeline == b.breaker_timeline
    assert a.health_events == b.health_events
    # And the numbers are non-trivial: faults really happened.
    assert a.mean_mttr_s() > 0
    assert a.frames_degraded > 0
    assert a.redeploy_count >= 1
    assert 0.0 < a.availability() <= 1.0
