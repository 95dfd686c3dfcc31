"""Unit tests for QoS and hardware metrics."""

import pytest

from repro.cluster import Container, Machine
from repro.cluster.gpu import RTX_2080
from repro.cluster.machine import GB
from repro.metrics import (
    CacheStats,
    ClientStats,
    HardwareMonitor,
    PercentileSketch,
    StageProfiler,
    summarize,
)
from repro.metrics.summary import SampleReservoir
from repro.sim import Simulator


# ----------------------------------------------------------------------
# summarize
# ----------------------------------------------------------------------
def test_summarize_basic():
    summary = summarize([1.0, 2.0, 3.0, 4.0])
    assert summary.count == 4
    assert summary.mean == pytest.approx(2.5)
    assert summary.median == pytest.approx(2.5)
    assert summary.minimum == 1.0
    assert summary.maximum == 4.0


def test_summarize_empty():
    summary = summarize([])
    assert summary.count == 0
    assert summary.mean == 0.0


def test_summarize_p95():
    summary = summarize(range(100))
    assert summary.p95 == pytest.approx(94.05)


def test_summarize_ignores_non_finite_samples():
    clean = summarize([1.0, 2.0, 3.0])
    poisoned = summarize([1.0, float("nan"), 2.0, float("inf"), 3.0])
    assert poisoned == clean
    assert poisoned.count == 3


def test_summarize_all_non_finite_is_empty():
    summary = summarize([float("nan"), float("inf")])
    assert summary.count == 0
    assert summary.mean == 0.0


# ----------------------------------------------------------------------
# summarize on sketches (reservoir drop-ins)
# ----------------------------------------------------------------------
def test_summarize_empty_sketch_matches_empty_list():
    assert summarize(PercentileSketch()) == summarize([])


def test_summarize_single_sample_sketch_is_exact():
    sketch = PercentileSketch()
    sketch.append(0.042)
    summary = summarize(sketch)
    assert summary.count == 1
    assert summary.mean == pytest.approx(0.042)
    assert summary.median == pytest.approx(0.042, rel=1e-12)
    assert summary.p95 == pytest.approx(0.042, rel=1e-12)
    assert summary.minimum == pytest.approx(0.042)
    assert summary.maximum == pytest.approx(0.042)
    assert summary.overflow_ratio == 0.0


def test_summarize_sketch_matches_list_within_alpha():
    values = [0.010 * (i + 1) for i in range(100)]
    sketch = PercentileSketch()
    sketch.extend(values)
    from_list = summarize(values)
    from_sketch = summarize(sketch)
    assert from_sketch.count == from_list.count
    assert from_sketch.mean == pytest.approx(from_list.mean)
    assert from_sketch.minimum == from_list.minimum
    assert from_sketch.maximum == from_list.maximum
    assert from_sketch.median == pytest.approx(from_list.median,
                                               rel=0.02)
    assert from_sketch.p95 == pytest.approx(from_list.p95, rel=0.02)


def test_summarize_sketch_skips_non_finite():
    sketch = PercentileSketch()
    sketch.extend([1.0, float("nan"), 2.0, float("inf"), 3.0])
    summary = summarize(sketch)
    assert summary.count == 3
    assert summary.mean == pytest.approx(2.0)
    assert summary.minimum == 1.0
    assert summary.maximum == 3.0


def test_summarize_all_non_finite_sketch_is_empty():
    sketch = PercentileSketch()
    sketch.extend([float("nan"), float("inf")])
    assert summarize(sketch) == summarize([])


def test_overflow_ratio_consistent_between_reservoir_and_sketch():
    """The same overloaded stream reports overflow the same way
    whether it lands in a bounded reservoir (subsampling) or a
    bin-capped sketch (bound-collapsing): zero when nothing was
    dropped, positive and equal to the affected fraction otherwise."""
    reservoir = SampleReservoir(maxlen=10)
    reservoir.extend(float(i) for i in range(40))
    assert reservoir.overflow_ratio == pytest.approx(30 / 40)
    assert summarize(reservoir).overflow_ratio == \
        reservoir.overflow_ratio

    healthy = PercentileSketch()
    healthy.extend(range(1, 41))
    assert healthy.overflow_ratio == 0.0
    assert summarize(healthy).overflow_ratio == 0.0

    cramped = PercentileSketch(alpha=0.05, max_bins=4)
    cramped.extend([10.0 ** k for k in range(12)])
    assert cramped.collapsed > 0
    assert cramped.overflow_ratio == pytest.approx(
        cramped.collapsed / cramped.count)
    assert summarize(cramped).overflow_ratio == \
        cramped.overflow_ratio


def test_summary_overflow_ratio_defaults_to_zero_for_lists():
    assert summarize([1.0, 2.0]).overflow_ratio == 0.0


# ----------------------------------------------------------------------
# CacheStats
# ----------------------------------------------------------------------
def test_cache_stats_hit_rate_none_without_lookups():
    stats = CacheStats(insertions=3, entries=3, size_bytes=96)
    assert stats.lookups == 0
    assert stats.hit_rate is None
    assert stats.as_dict()["hit_rate"] is None


def test_cache_stats_hit_rate_and_dict():
    stats = CacheStats(hits=3, misses=1, insertions=1, entries=1,
                       size_bytes=64)
    assert stats.lookups == 4
    assert stats.hit_rate == pytest.approx(0.75)
    payload = stats.as_dict()
    assert payload["hits"] == 3
    assert payload["hit_rate"] == pytest.approx(0.75)


# ----------------------------------------------------------------------
# StageProfiler
# ----------------------------------------------------------------------
def test_profiler_accumulates_calls_and_time():
    profiler = StageProfiler()
    with profiler.stage("kernel"):
        pass
    profiler.record("kernel", 5_000_000)
    record = profiler.snapshot()["kernel"]
    assert record.calls == 2
    assert record.total_ms >= 5.0
    assert record.mean_ms == pytest.approx(record.total_ms / 2)


def test_profiler_disabled_records_nothing():
    profiler = StageProfiler(enabled=False)
    with profiler.stage("kernel"):
        pass
    profiler.record("kernel", 123)
    assert profiler.snapshot() == {}


def test_profiler_counts_exceptions_and_resets():
    profiler = StageProfiler()
    with pytest.raises(RuntimeError):
        with profiler.stage("failing"):
            raise RuntimeError("boom")
    assert profiler.snapshot()["failing"].calls == 1
    profiler.reset()
    assert profiler.snapshot() == {}


def test_profiler_as_dict_and_empty_mean():
    profiler = StageProfiler()
    profiler.record("stage", 2_000_000)
    payload = profiler.as_dict()["stage"]
    assert payload["calls"] == 1
    assert payload["total_ms"] == pytest.approx(2.0)
    assert StageProfiler().as_dict() == {}
    assert CacheStats().hit_rate is None


# ----------------------------------------------------------------------
# ClientStats
# ----------------------------------------------------------------------
def test_client_stats_success_and_latency():
    stats = ClientStats(client_id=0)
    for frame in range(10):
        stats.record_sent(frame, frame / 30.0)
    for frame in range(0, 10, 2):
        stats.record_received(frame, frame / 30.0 + 0.040)
    assert stats.frames_sent == 10
    assert stats.frames_received == 5
    assert stats.success_rate() == pytest.approx(0.5)
    assert list(stats.e2e_latencies_s) == pytest.approx([0.040] * 5)


def test_client_stats_fps_over_duration():
    stats = ClientStats(client_id=0)
    for frame in range(30):
        stats.record_sent(frame, frame / 30.0)
        stats.record_received(frame, frame / 30.0 + 0.02)
    assert stats.fps(duration_s=1.0) == pytest.approx(30.0)


def test_client_stats_jitter_zero_for_regular_arrivals():
    stats = ClientStats(client_id=0)
    for frame in range(10):
        stats.record_sent(frame, frame * 0.1)
        stats.record_received(frame, frame * 0.1 + 0.01)
    assert stats.jitter_s() == pytest.approx(0.0, abs=1e-12)


def test_client_stats_jitter_positive_for_irregular_arrivals():
    stats = ClientStats(client_id=0)
    arrivals = [0.0, 0.1, 0.15, 0.4, 0.45]
    for frame, arrival in enumerate(arrivals):
        stats.record_sent(frame, arrival - 0.01)
        stats.record_received(frame, arrival)
    assert stats.jitter_s() > 0.05


def test_client_stats_duplicate_result_ignored():
    stats = ClientStats(client_id=0)
    stats.record_sent(0, 0.0)
    stats.record_received(0, 0.1)
    stats.record_received(0, 0.2)
    assert stats.frames_received == 1
    assert len(stats.e2e_latencies_s) == 1


def test_client_stats_errors():
    stats = ClientStats(client_id=0)
    stats.record_sent(0, 0.0)
    with pytest.raises(ValueError):
        stats.record_sent(0, 1.0)
    with pytest.raises(ValueError):
        stats.record_received(99, 1.0)


def test_client_stats_fps_series():
    stats = ClientStats(client_id=0)
    for frame in range(60):
        stats.record_sent(frame, frame / 30.0)
        stats.record_received(frame, frame / 30.0 + 0.01)
    series = stats.fps_series(bucket_s=1.0)
    assert len(series) >= 2
    assert series[0] == pytest.approx(30.0, rel=0.1)


def test_client_stats_fps_series_validation():
    with pytest.raises(ValueError):
        ClientStats(client_id=0).fps_series(bucket_s=0.0)


def _fates(received_at=0.05, lost_reason="retry-exhausted"):
    stats = ClientStats(client_id=3)
    for frame in range(4):
        stats.record_sent(frame, frame / 30.0)
    stats.record_received(0, received_at)
    stats.record_degraded(1, 0.09)
    stats.record_paced(2, 0.07)
    stats.record_lost(3, lost_reason)
    return stats


def _traced(instance="e1:6001", end_s=0.04):
    from repro.metrics.tracing import Tracer

    tracer = Tracer()
    tracer.record_span((3, 0), 0.0, name="sift", kind="service",
                       instance=instance, start_s=0.01, end_s=end_s)
    tracer.record_delivery((3, 0), 0.0, 0.05)
    return tracer


def test_outcome_digest_is_stable_and_moves_with_any_fate():
    from repro.metrics.qos import outcome_digest

    base = outcome_digest([_fates()])
    assert outcome_digest([_fates()]) == base
    assert len(base) == 32
    assert outcome_digest([_fates(received_at=0.06)]) != base
    assert outcome_digest([_fates(lost_reason="no-fallback")]) != base
    unanswered = _fates()
    del unanswered.lost[3]
    assert outcome_digest([unanswered]) != base
    # Spans count only when a tracer is given, and every field counts.
    traced = outcome_digest([_fates()], _traced())
    assert traced != base
    assert outcome_digest([_fates()], _traced()) == traced
    assert outcome_digest([_fates()], _traced(instance="e2:6001")) != traced
    assert outcome_digest([_fates()], _traced(end_s=0.03)) != traced


# ----------------------------------------------------------------------
# HardwareMonitor
# ----------------------------------------------------------------------
def make_monitored_machine():
    sim = Simulator()
    machine = Machine(sim, "e1", cpu_cores=4, memory_gb=64,
                      gpu_architecture=RTX_2080, gpu_count=2)
    monitor = HardwareMonitor(sim, [machine], interval_s=1.0)
    return sim, machine, monitor


def test_monitor_samples_on_interval():
    sim, machine, monitor = make_monitored_machine()
    monitor.start()
    sim.run(until=5.5)
    assert len(monitor.samples) == 5
    assert monitor.samples[0].timestamp_s == pytest.approx(1.0)


def test_monitor_cpu_utilization_window():
    sim, machine, monitor = make_monitored_machine()
    monitor.start()

    def work():
        yield from machine.execute_cpu(2.0)  # 1 core busy 0..2 s

    sim.spawn(work())
    sim.run(until=3.5)
    # First two windows: 1 of 4 cores busy = 25%; third: idle.
    assert monitor.samples[0].cpu["e1"] == pytest.approx(0.25)
    assert monitor.samples[1].cpu["e1"] == pytest.approx(0.25)
    assert monitor.samples[2].cpu["e1"] == pytest.approx(0.0)


def test_monitor_gpu_utilization_mean_over_devices():
    sim, machine, monitor = make_monitored_machine()
    monitor.start()

    def work():
        yield from machine.gpus[0].execute(1.0)

    sim.spawn(work())
    sim.run(until=1.5)
    # 1 of 2 GPUs fully busy in the window = 50%.
    assert monitor.samples[0].gpu["e1"] == pytest.approx(0.5)


def test_monitor_container_memory_tracking():
    sim, machine, monitor = make_monitored_machine()
    container = Container(machine, "sift", base_memory_bytes=GB)
    container.start()
    monitor.watch(container)
    monitor.start()

    def grow():
        yield sim.timeout(1.5)
        container.allocate_state(GB)

    sim.spawn(grow())
    sim.run(until=3.5)
    memory_gb = [sample.memory_bytes[container.id] / GB
                 for sample in monitor.samples]
    assert memory_gb == pytest.approx([1.0, 2.0, 2.0])


def test_monitor_service_memory_sums_replicas():
    sim, machine, monitor = make_monitored_machine()
    first = Container(machine, "sift", base_memory_bytes=GB)
    second = Container(machine, "sift", base_memory_bytes=GB)
    for container in (first, second):
        container.start()
        monitor.watch(container)
    monitor.start()
    sim.run(until=2.5)
    assert monitor.service_memory_gb()["sift"] == pytest.approx(2.0)


def test_monitor_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        HardwareMonitor(sim, [], interval_s=0.0)


def test_monitor_watch_idempotent():
    sim, machine, monitor = make_monitored_machine()
    container = Container(machine, "x", base_memory_bytes=GB)
    monitor.watch(container)
    monitor.watch(container)
    assert len(monitor.containers) == 1


# ----------------------------------------------------------------------
# energy model
# ----------------------------------------------------------------------
def test_power_model_validates_tables():
    from repro.metrics.energy import PowerModel

    with pytest.raises(ValueError):
        PowerModel(idle_w={"e1": -1.0})
    with pytest.raises(ValueError):
        PowerModel(device_idle_w=-0.5)


def test_power_model_active_watts_gpu_vs_cpu():
    from repro.metrics.energy import DEFAULT_POWER_MODEL
    from repro.scatter.config import GPU_INTENSITY

    model = DEFAULT_POWER_MODEL
    # GPU service draw scales with its intensity share.
    assert model.active_watts("e1", "sift") == pytest.approx(
        model.gpu_active_w["e1"] * GPU_INTENSITY["sift"])
    # The CPU-only primary stage draws from the CPU table instead.
    assert model.active_watts("e1", "primary") == pytest.approx(
        model.cpu_active_w["e1"])


def test_energy_summary_conserves_joules():
    """Total joules must equal device + idle + per-stage exactly (the
    summation order the model documents), on a real C1 run."""
    from repro.experiments.campaign import RUNNERS
    from repro.metrics.energy import energy_summary
    from repro.scatter.config import PIPELINE_ORDER, baseline_configs

    result = RUNNERS["scatterpp-flow"](
        baseline_configs()["C1"], num_clients=1, duration_s=2.0,
        seed=0)
    energy = energy_summary(result)
    total = (energy["device_j"] + energy["idle_j"]
             + sum(energy["per_stage_j"][s] for s in PIPELINE_ORDER))
    assert energy["total_j"] == total
    assert sorted(energy["per_stage_j"]) == sorted(PIPELINE_ORDER)
    assert energy["machines"] == ["e1"]
    assert energy["joules_per_frame"] > 0.0
    assert energy["cost_units"] > 0.0
    assert energy["frames_received"] > 0


def test_energy_summary_zero_frames_is_safe():
    from repro.metrics.energy import energy_summary
    from repro.scatter.config import baseline_configs

    class FakeClient:
        frames_sent = 0
        frames_received = 0

    class FakeResult:
        config_name = "C1"
        num_clients = 1
        duration_s = 1.0
        clients = [FakeClient()]

        class pipeline:
            placement = baseline_configs()["C1"]

            @staticmethod
            def instances(service):
                return []

        class testbed:
            machines = {}

    energy = energy_summary(FakeResult())
    assert energy["joules_per_frame"] is None
    assert energy["total_j"] > 0.0  # idle + device idle still accrue


def test_placement_estimate_reports_energy():
    from repro.orchestra.placement import PlacementOptimizer

    optimizer = PlacementOptimizer()
    for estimate in optimizer.search():
        assert estimate.watts > 0.0
        assert estimate.joules_per_frame > 0.0
    by_energy = optimizer.best("energy")
    assert by_energy.joules_per_frame == min(
        e.joules_per_frame for e in optimizer.search())
