"""Unit tests for the client resilience layer and its metrics.

Covers the pieces in isolation — retry backoff, breaker transitions,
the local fast-feature fallback on real (synthetic) images, the
bounded sample reservoir, sidecar detach cleanup and the degraded
accounting in :class:`~repro.metrics.qos.ClientStats` — so the chaos
integration tests can focus on end-to-end behaviour.
"""

import numpy as np
import pytest

from repro.cluster import Container, Machine
from repro.cluster.gpu import RTX_2080
from repro.cluster.machine import GB
from repro.dsp import FrameRecord, StreamService
from repro.metrics.qos import ClientStats
from repro.metrics.summary import SampleReservoir
from repro.net import Address, Network, ServiceRegistry
from repro.scatter.resilience import (
    BreakerState,
    CircuitBreaker,
    LocalFallbackTracker,
    ResilienceConfig,
    RetryPolicy,
)
from repro.scatterpp.sidecar import Sidecar
from repro.sim import Simulator
from repro.vision.recognizer import Recognition
from repro.vision.video import SyntheticVideo


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_exponential_growth():
    policy = RetryPolicy(base_delay_s=0.05, multiplier=2.0,
                        max_delay_s=1.0, jitter=0.0)
    assert policy.delay_s(1) == pytest.approx(0.05)
    assert policy.delay_s(2) == pytest.approx(0.10)
    assert policy.delay_s(3) == pytest.approx(0.20)
    # Cap: far attempts saturate at max_delay_s.
    assert policy.delay_s(10) == pytest.approx(1.0)


def test_retry_policy_jitter_bounded_and_deterministic():
    policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, jitter=0.5)
    delays = [policy.delay_s(1, np.random.default_rng(42))
              for __ in range(50)]
    # Same generator seed -> same draw.
    assert len(set(delays)) == 1
    rng = np.random.default_rng(0)
    spread = [policy.delay_s(1, rng) for __ in range(200)]
    assert all(0.05 <= d <= 0.15 for d in spread)
    assert max(spread) > min(spread)


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy().delay_s(0)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def make_breaker(**kwargs):
    sim = Simulator()
    defaults = dict(failure_threshold=3, recovery_timeout_s=1.0)
    defaults.update(kwargs)
    return sim, CircuitBreaker(sim, **defaults)


def test_breaker_closed_to_open_to_half_open_to_closed():
    sim, breaker = make_breaker()
    assert breaker.state is BreakerState.CLOSED
    for __ in range(3):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1
    assert not breaker.allow()

    # After the recovery timeout one probe is let through...
    sim.run(until=1.5)
    assert breaker.allow()
    assert breaker.state is BreakerState.HALF_OPEN
    # ...but only one (half_open_probes=1).
    assert not breaker.allow()
    breaker.record_success()
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow()


def test_breaker_reopens_on_failed_probe():
    sim, breaker = make_breaker()
    for __ in range(3):
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
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state is BreakerState.CLOSED


def test_breaker_timeline_and_open_time():
    sim, breaker = make_breaker()
    for __ in range(3):
        breaker.record_failure()
    sim.run(until=2.0)
    breaker.allow()           # -> HALF_OPEN at t=2.0
    breaker.record_success()  # -> CLOSED at t=2.0
    states = [state for __, state in breaker.timeline]
    assert states == [BreakerState.CLOSED, BreakerState.OPEN,
                      BreakerState.HALF_OPEN, BreakerState.CLOSED]
    assert breaker.open_time_s() == pytest.approx(2.0)


# ----------------------------------------------------------------------
# LocalFallbackTracker (real vision on synthetic frames)
# ----------------------------------------------------------------------
def test_fallback_tracker_estimates_camera_shift():
    video = SyntheticVideo(duration_s=1.0, fps=30.0, seed=3)
    tracker = LocalFallbackTracker(seed=0)
    # Prime with frame 0, then measure the shift to a later frame.
    tracker.estimate_shift(video.frame(0).image)
    dx, dy = tracker.estimate_shift(video.frame(6).image)
    # The synthetic camera pans: a non-trivial, bounded shift.
    assert (abs(dx) + abs(dy)) > 0.0
    assert abs(dx) < 20.0 and abs(dy) < 20.0


def test_fallback_tracker_advects_seeded_recognitions():
    video = SyntheticVideo(duration_s=1.0, fps=30.0, seed=3)
    tracker = LocalFallbackTracker(seed=0)
    corners = np.array([[40.0, 40.0], [80.0, 40.0],
                        [80.0, 80.0], [40.0, 80.0]])
    tracker.seed([Recognition(name="monitor", corners=corners,
                              num_inliers=20, similarity=0.9,
                              mean_error=1.0)])
    tracks = None
    for index in range(5):
        tracks = tracker.track(index, video.frame(index).image)
    assert tracker.frames_tracked == 5
    assert tracks and tracks[0].name == "monitor"
    # The advected object stayed in-frame and near its seed.
    drift = np.linalg.norm(tracks[0].centre - corners.mean(axis=0))
    assert drift < 30.0


def test_fallback_tracker_ignores_rewinds():
    video = SyntheticVideo(duration_s=1.0, fps=30.0, seed=3)
    tracker = LocalFallbackTracker(seed=0)
    tracker.track(5, video.frame(5).image)
    # A late-retried older frame must not rewind the tracker.
    tracker.track(3, video.frame(3).image)
    assert tracker.frames_tracked == 2
    tracker.track(6, video.frame(6).image)  # still advances fine


# ----------------------------------------------------------------------
# SampleReservoir
# ----------------------------------------------------------------------
def test_reservoir_exact_below_cap():
    reservoir = SampleReservoir(maxlen=100)
    reservoir.extend(range(50))
    assert list(reservoir) == list(range(50))
    assert reservoir.total == 50


def test_reservoir_bounded_above_cap():
    reservoir = SampleReservoir(maxlen=64)
    reservoir.extend(float(i) for i in range(10_000))
    assert len(reservoir) == 64
    assert reservoir.total == 10_000
    # Uniform sampling: the kept set spans the stream, not a prefix.
    assert max(reservoir) > 5_000


def test_reservoir_mean_still_computes():
    reservoir = SampleReservoir(maxlen=32)
    reservoir.extend([2.0] * 1000)
    assert float(np.mean(reservoir)) == pytest.approx(2.0)


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
    sidecar = Sidecar(service, threshold_s=10.0, queue_capacity=3)
    for frame in range(5):
        sidecar.enqueue(make_frame(frame))
    assert sidecar.stats.enqueued == 3
    assert sidecar.stats.dropped_overflow == 2
    assert sidecar.stats.overflow_ratio() == pytest.approx(2 / 5)


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


def test_resilience_config_validation_and_breaker_factory():
    with pytest.raises(ValueError):
        ResilienceConfig(request_timeout_s=0.0)
    sim = Simulator()
    config = ResilienceConfig(failure_threshold=7,
                              recovery_timeout_s=2.0)
    breaker = config.build_breaker(sim)
    assert breaker.failure_threshold == 7
    assert breaker.recovery_timeout_s == 2.0
    assert breaker.state is BreakerState.CLOSED
