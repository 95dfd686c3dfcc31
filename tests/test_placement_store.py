"""Tests for the placement optimizer and the result store."""

import json
import statistics

import pytest

from repro.experiments.runner import (ExperimentSpec, build_experiment,
                                      run_experiment)
from repro.experiments.store import ResultStore, summarize_result
from repro.orchestra.placement import PlacementOptimizer, pipeline_capacity
from repro.scatter.config import (PIPELINE_ORDER, PlacementConfig,
                                  baseline_configs)


# ----------------------------------------------------------------------
# Placement optimizer
# ----------------------------------------------------------------------
def test_search_covers_all_assignments():
    optimizer = PlacementOptimizer(machines=("e1", "e2"))
    estimates = optimizer.search()
    assert len(estimates) == 2 ** 5
    names = {e.placement.name for e in estimates}
    assert len(names) == 32


def test_best_throughput_beats_single_machine_estimates():
    optimizer = PlacementOptimizer(machines=("e1", "e2"))
    best = optimizer.best("throughput")
    singles = [optimizer.estimate({s: m for s in PIPELINE_ORDER})
               for m in ("e1", "e2")]
    for single in singles:
        assert best.throughput_fps >= single.throughput_fps
    # Splitting across machines gives more GPUs to spread over.
    assert len(set(best.placement.placements[s][0]
                   for s in PIPELINE_ORDER
                   if s != "primary")) == 2


def test_best_latency_avoids_hops():
    optimizer = PlacementOptimizer(machines=("e1", "e2"))
    best = optimizer.best("latency")
    gpu_machines = {best.placement.placements[s][0]
                    for s in PIPELINE_ORDER[1:]}
    assert len(gpu_machines) == 1  # one machine = no pipeline hops


def test_estimate_matches_simulation_ranking():
    """The analytic model's C12-vs-C1 ranking agrees with the
    simulator under load (scAtteR++, where throughput binds)."""
    optimizer = PlacementOptimizer(machines=("e1", "e2"))
    c1 = optimizer.estimate({s: "e1" for s in PIPELINE_ORDER})
    c12 = optimizer.estimate({
        "primary": "e1", "sift": "e1", "encoding": "e2",
        "lsh": "e2", "matching": "e2"})
    assert c12.throughput_fps > c1.throughput_fps

    sim_c1 = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        scatterpp=True))
    sim_c12 = run_experiment(ExperimentSpec(
        baseline_configs()["C12"], num_clients=4, duration_s=10.0,
        scatterpp=True))
    assert sim_c12.mean_fps() > sim_c1.mean_fps()


def test_gpu_colocation_lowers_modeled_capacity():
    """[E1,E1,E2,E1,E1] pins sift and matching to E1's first GPU; their
    kernels serialize, so the model rates it below C12 (the simulator
    serves 45.6 against 72.3 FPS at 8 clients)."""
    def capacity(machines):
        placement = PlacementConfig("probe", {
            s: [m] for s, m in zip(PIPELINE_ORDER, machines)})
        pipeline = build_experiment(ExperimentSpec(
            placement, num_clients=1, scatterpp=True))[3]
        return pipeline_capacity(pipeline)

    shared = capacity(("e1", "e1", "e2", "e1", "e1"))
    c12 = capacity(("e1", "e1", "e2", "e2", "e2"))
    assert shared.bottleneck_fps < 0.7 * c12.bottleneck_fps
    assert shared.bottleneck_service == "sift"
    assert shared.capacity_fps["matching"] == shared.bottleneck_fps


def test_optimized_placement_performs_well_in_simulation():
    optimizer = PlacementOptimizer(machines=("e1", "e2"))
    best = optimizer.best("throughput")
    optimized = run_experiment(ExperimentSpec(
        best.placement, num_clients=4, duration_s=10.0, scatterpp=True))
    reference = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        scatterpp=True))
    assert optimized.mean_fps() >= reference.mean_fps()


def test_optimizer_validation():
    with pytest.raises(ValueError):
        PlacementOptimizer(machines=())
    with pytest.raises(ValueError):
        PlacementOptimizer(machines=("mystery",))
    with pytest.raises(ValueError):
        PlacementOptimizer().best("beauty")


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sample_result():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=5.0))


def test_summarize_result_is_json_friendly(sample_result):
    summary = summarize_result(sample_result)
    encoded = json.dumps(summary)
    decoded = json.loads(encoded)
    assert decoded["config"] == "C1"
    assert decoded["fps"] > 0
    assert "sift" in decoded["service_latency_ms"]


def test_store_roundtrip(tmp_path, sample_result):
    store = ResultStore(tmp_path / "results")
    path = store.save("baseline", sample_result)
    assert json.loads(path.read_text())["clients"] == 1


def test_store_rejects_bad_names(tmp_path):
    store = ResultStore(tmp_path)
    with pytest.raises(ValueError):
        store.save("../escape", {})
    with pytest.raises(ValueError):
        store.save("", {})


def test_percentile_e2e(sample_result):
    p95 = sample_result.percentile_e2e_ms(95.0)
    p50 = sample_result.percentile_e2e_ms(50.0)
    assert p95 >= p50 > 0
    latencies = [latency for client in sample_result.clients
                 for latency in client.e2e_latencies_s]
    assert p50 == pytest.approx(1000.0 * statistics.median(latencies))
    import pytest as _pytest
    with _pytest.raises(ValueError):
        sample_result.percentile_e2e_ms(0.0)


def test_summary_includes_tail_latency(sample_result):
    summary = summarize_result(sample_result)
    assert summary["p95_e2e_ms"] >= summary["e2e_ms"] * 0.8


# ----------------------------------------------------------------------
# Atomic writes, concurrent writers, merging
# ----------------------------------------------------------------------
def test_summary_carries_trace_digest(sample_result):
    summary = summarize_result(sample_result)
    assert summary["trace_digest"] == sample_result.trace_digest
    assert isinstance(summary["trace_digest"], str)
    assert len(summary["trace_digest"]) == 32


def test_failed_save_preserves_previous_entry(tmp_path):
    store = ResultStore(tmp_path)
    path = store.save("cell", {"fps": 30.0})
    with pytest.raises(TypeError):  # not JSON-serializable
        store.save("cell", {"fps": object()})
    # The old entry is untouched and no temp litter remains.
    assert json.loads(path.read_text()) == {"fps": 30.0}
    assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]


def test_save_leaves_no_temp_files(tmp_path):
    store = ResultStore(tmp_path)
    for index in range(20):
        path = store.save("cell", {"value": index})
    assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]
    assert json.loads(path.read_text()) == {"value": 19}


def test_concurrent_writers_never_corrupt(tmp_path):
    """Hammer one entry from many threads; readers must always see a
    complete JSON document (the old write_text path could expose a
    truncated file mid-write)."""
    import threading

    store = ResultStore(tmp_path)
    payload = {"values": list(range(5000))}  # big enough to straddle
    path = store.save("hot", payload)        # one write() buffer
    errors = []
    stop = threading.Event()

    def writer():
        for __ in range(30):
            try:
                store.save("hot", payload)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

    def reader():
        while not stop.is_set():
            try:
                loaded = json.loads(path.read_text())
                assert loaded == payload
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

    writers = [threading.Thread(target=writer) for __ in range(4)]
    readers = [threading.Thread(target=reader) for __ in range(2)]
    for thread in readers + writers:
        thread.start()
    for thread in writers:
        thread.join()
    stop.set()
    for thread in readers:
        thread.join()
    assert errors == []
    assert json.loads(path.read_text()) == payload


def test_concurrent_process_writers(tmp_path):
    """Multiple worker processes writing distinct cells — the sharded
    campaign's store access pattern."""
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=4) as pool:
        list(pool.map(_store_stress_write,
                      [(str(tmp_path), f"cell-{i}", i)
                       for i in range(12)]))
    assert sorted(path.stem for path in tmp_path.glob("*.json")) \
        == sorted(f"cell-{i}" for i in range(12))
    for index in range(12):
        path = tmp_path / f"cell-{index}.json"
        assert json.loads(path.read_text()) == {"value": index}


def _store_stress_write(args):
    directory, name, value = args
    store = ResultStore(directory)
    for __ in range(10):
        store.save(name, {"value": value})
