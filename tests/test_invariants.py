"""System-level conservation invariants under real load.

Every frame, byte and queue entry must be accounted for somewhere —
these tests run full deployments and then audit the books.
"""

import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import PIPELINE_ORDER, baseline_configs


@pytest.fixture(scope="module")
def scatter_run():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=3, duration_s=15.0,
        tracing=True))


@pytest.fixture(scope="module")
def scatterpp_run():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=3, duration_s=15.0,
        scatterpp=True))


def test_scatter_frame_conservation(scatter_run):
    """Sent frames = delivered + lost-in-network + dropped-at-services
    + consumed-by-failures + in-flight remainder."""
    sent = sum(c.frames_sent for c in scatter_run.clients)
    delivered = sum(c.frames_received for c in scatter_run.clients)
    assert delivered <= sent
    # Tracing saw every sent frame.
    assert len(scatter_run.tracer) == sent
    completed = len(scatter_run.tracer.completed_traces())
    incomplete = len(scatter_run.tracer.incomplete_traces())
    assert completed == delivered
    assert completed + incomplete == sent


def test_scatter_per_service_accounting(scatter_run):
    for service in PIPELINE_ORDER:
        for instance in scatter_run.pipeline.instances(service):
            stats = instance.stats
            # Everything received was processed, dropped, or is the
            # one unit still in flight at cutoff.
            assert stats.processed + stats.dropped_busy <= \
                stats.received
            assert stats.received - (stats.processed
                                     + stats.dropped_busy) <= 1
            assert stats.failed == 0
            assert len(stats.latency_samples_s) == stats.processed


def test_sift_state_accounting(scatter_run):
    sift = scatter_run.pipeline.instances("sift")[0]
    store = sift.state
    # Every stored entry left by fetch, expiry, or is still resident.
    assert store.stats_stored == (store.stats_fetched
                                  + store.stats_expired + len(store))
    # Resident bytes equal the container's state memory.
    assert store.bytes_in_use == pytest.approx(
        sift.container.state_memory_bytes)


def test_fetch_accounting(scatter_run):
    sift = scatter_run.pipeline.instances("sift")[0]
    matching = scatter_run.pipeline.instances("matching")[0]
    # Fetches that reached sift either hit or missed.
    fetch_attempts = sift.fetch_hits + sift.fetch_misses
    assert fetch_attempts <= matching.stats.processed
    # Matching outcomes partition its processed work (modulo frames
    # without a sift pin, which it also counts as processed).
    assert matching.results_sent + matching.fetch_timeouts <= \
        matching.stats.processed
    assert matching.results_sent == sum(
        c.frames_received for c in scatter_run.clients)


def test_sidecar_queue_conservation(scatterpp_run):
    for service in PIPELINE_ORDER:
        for instance in scatterpp_run.pipeline.instances(service):
            sidecar = instance.sidecar
            stats = sidecar.stats
            # enqueued = dispatched + stale-dropped + still queued
            # (+ at most one entry being processed at cutoff).
            accounted = (stats.dispatched + stats.dropped_stale
                         + sidecar.depth)
            assert 0 <= stats.enqueued - accounted <= 1
            # Overflow counted separately from enqueued.
            assert stats.dropped_overflow >= 0
            # Queue memory zero or positive, never negative.
            assert instance.container.state_memory_bytes >= 0


def test_machine_memory_books_balance(scatterpp_run):
    for name, machine in scatterpp_run.testbed.machines.items():
        total = sum(
            instance.container.memory_bytes()
            for service in PIPELINE_ORDER
            for instance in scatterpp_run.pipeline.instances(service)
            if instance.container.machine is machine)
        assert machine.memory.in_use_bytes == pytest.approx(total)
        assert machine.memory.in_use_bytes <= \
            machine.memory.capacity_bytes


def test_client_books_balance(scatter_run):
    for stats in scatter_run.clients:
        assert set(stats.received) <= set(stats.sent)
        assert len(stats.e2e_latencies_s) == stats.frames_received
        assert all(latency > 0 for latency in stats.e2e_latencies_s)


def test_gpu_meters_return_to_idle(scatter_run):
    for machine in scatter_run.testbed.machines.values():
        for gpu in machine.gpus:
            assert gpu.meter.level == pytest.approx(0.0)
            assert gpu.slot.in_use == 0
        assert machine.cpu_meter.level == pytest.approx(0.0)


def test_network_delivery_books(scatter_run):
    network = scatter_run.testbed.network
    sent = sum(link.stats.packets_sent
               for link in network._links.values())
    dropped = sum(link.stats.packets_dropped
                  for link in network._links.values())
    assert network.stats_delivered + network.stats_lost > 0
    assert dropped <= sent
    assert network.stats_lost <= dropped  # multi-hop: one loss kills
