"""Unit tests for the client resilience layer and its metrics.

Covers the pieces in isolation — breaker transitions, sidecar detach
cleanup and overflow, and the degraded accounting in
:class:`~repro.metrics.qos.ClientStats` — so the chaos integration
tests can focus on end-to-end behaviour.
"""

import numpy as np
import pytest

from repro.cluster import Container, Machine
from repro.cluster.gpu import RTX_2080
from repro.cluster.machine import GB
from repro.dsp import FrameRecord, StreamService
from repro.metrics.qos import ClientStats
from repro.net import Address, Network, ServiceRegistry
from repro.scatter.resilience import (
    FAILURE_THRESHOLD,
    RECOVERY_TIMEOUT_S,
    BreakerState,
    CircuitBreaker,
)
from repro.scatterpp.sidecar import QUEUE_CAPACITY, Sidecar
from repro.sim import Simulator


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def make_breaker():
    sim = Simulator()
    return sim, CircuitBreaker(sim)


def test_breaker_closed_to_open_to_half_open_to_closed():
    sim, breaker = make_breaker()
    assert breaker.state is BreakerState.CLOSED
    for __ in range(FAILURE_THRESHOLD):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1
    assert not breaker.allow()

    # After the recovery timeout one probe is let through...
    sim.run(until=1.5 * RECOVERY_TIMEOUT_S)
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    # ...but only one (HALF_OPEN_PROBES is 1).
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()


def test_breaker_reopens_on_failed_probe():
    sim, breaker = make_breaker()
    for __ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    sim.run(until=1.2)
    assert breaker.allow()  # half-open probe
    breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    # The recovery clock restarted at the failed probe.
    assert breaker.opened_at_s == pytest.approx(1.2)
    assert not breaker.allow()


def test_breaker_success_resets_consecutive_count():
    __, breaker = make_breaker()
    for __ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    breaker.record_success()
    for __ in range(FAILURE_THRESHOLD - 1):
        breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED


def test_breaker_timeline_and_open_time():
    sim, breaker = make_breaker()
    for __ in range(FAILURE_THRESHOLD):
        breaker.record_failure()
    sim.run(until=2.0)
    breaker.allow()           # -> HALF_OPEN at t=2.0
    breaker.record_success()  # -> CLOSED at t=2.0
    states = [state for __, state in breaker.timeline]
    assert states == [BreakerState.CLOSED, BreakerState.OPEN,
                      BreakerState.HALF_OPEN, BreakerState.CLOSED]
    assert breaker.open_time_s() == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Sidecar detach: no leaked state, drops accounted
# ----------------------------------------------------------------------
def make_sidecar_service():
    sim = Simulator()
    network = Network(sim, rng=np.random.default_rng(0))
    network.add_link("a", "b", rtt_s=0.002)
    machine = Machine(sim, "b", cpu_cores=8, memory_gb=64,
                      gpu_architecture=RTX_2080, gpu_count=1)
    registry = ServiceRegistry()
    container = Container(machine, "svc", base_memory_bytes=GB)

    class NullService(StreamService):
        def process(self, record):
            yield from self.compute()

    service = NullService(name="svc", network=network,
                          registry=registry, container=container,
                          address=Address("b", 5000),
                          base_time_s=0.010,
                          rng=np.random.default_rng(1))
    service.start()
    return sim, service


def make_frame(frame):
    return FrameRecord(client_id=0, frame_number=frame,
                       reply_to=Address("a", 9000), step="svc",
                       created_s=0.0, size_bytes=50_000)


def test_sidecar_detach_frees_pending_state():
    sim, service = make_sidecar_service()
    sidecar = Sidecar(service, threshold_s=10.0)
    sidecar.attach()
    base = service.container.memory_bytes()
    for frame in range(5):
        sidecar.enqueue(make_frame(frame))
    assert sidecar.depth == 5
    assert service.container.memory_bytes() == base + 5 * 50_000

    sidecar.detach()
    # Every pending entry's state is freed and counted as a drop.
    assert sidecar.depth == 0
    assert service.container.memory_bytes() == base
    assert sidecar.stats.dropped_detach == 5
    # Post-detach arrivals are refused, not leaked.
    sidecar.enqueue(make_frame(99))
    assert sidecar.stats.dropped_detach == 6
    assert service.container.memory_bytes() == base
    # The dispatcher exits instead of hanging on the drained queue.
    sim.run(until=1.0)


def test_sidecar_overflow_ratio():
    __, service = make_sidecar_service()
    sidecar = Sidecar(service, threshold_s=10.0)
    arrivals = QUEUE_CAPACITY + 2
    for frame in range(arrivals):
        sidecar.enqueue(make_frame(frame))
    assert sidecar.stats.enqueued == QUEUE_CAPACITY
    assert sidecar.stats.dropped_overflow == 2
    assert sidecar.stats.overflow_ratio() == pytest.approx(2 / arrivals)


# ----------------------------------------------------------------------
# ClientStats degraded accounting
# ----------------------------------------------------------------------
def test_degraded_frames_count_toward_availability_only():
    stats = ClientStats(client_id=0)
    for frame in range(4):
        stats.record_sent(frame, frame * 0.1)
    stats.record_received(0, 0.05)
    stats.record_degraded(1, 0.15)
    assert stats.frames_received == 1
    assert stats.frames_degraded == 1
    assert stats.success_rate() == pytest.approx(0.25)
    assert stats.degraded_rate() == pytest.approx(0.25)
    assert stats.availability() == pytest.approx(0.5)


def test_late_pipeline_result_supersedes_degraded():
    stats = ClientStats(client_id=0)
    stats.record_sent(0, 0.0)
    stats.record_degraded(0, 0.01)
    stats.record_received(0, 0.30)
    assert stats.frames_degraded == 0
    assert stats.frames_received == 1
    assert stats.availability() == pytest.approx(1.0)


def test_degraded_unknown_frame_rejected():
    stats = ClientStats(client_id=0)
    with pytest.raises(ValueError):
        stats.record_degraded(7, 1.0)

