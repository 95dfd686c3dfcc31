"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.metrics.summary import summarize
from repro.net.addresses import Address, ServiceRegistry
from repro.sim import Simulator
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry
from repro.vision.image import bilinear_resize, to_grayscale
from repro.vision.lsh import LshIndex
from repro.vision.matching import match_descriptors
from repro.vision.pca import Pca
from repro.vision.pose import estimate_homography_dlt

COMMON = settings(max_examples=30,
                  suppress_health_check=[HealthCheck.too_slow],
                  deadline=None)


# ----------------------------------------------------------------------
# Simulator ordering
# ----------------------------------------------------------------------
@COMMON
@given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                min_size=1, max_size=40))
def test_events_fire_in_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    sim.run()
    assert fired == sorted(fired)
    assert sim.now == max(delays)


@COMMON
@given(st.lists(st.floats(min_value=0.001, max_value=5.0),
                min_size=1, max_size=20))
def test_sequential_process_accumulates_delays(delays):
    sim = Simulator()
    total = []

    def proc():
        for delay in delays:
            yield sim.timeout(delay)
        total.append(sim.now)

    sim.spawn(proc())
    sim.run()
    assert total[0] == pytest.approx(sum(delays))


# ----------------------------------------------------------------------
# Store / Resource invariants
# ----------------------------------------------------------------------
@COMMON
@given(st.lists(st.integers(), min_size=1, max_size=50))
def test_store_preserves_fifo_order(items):
    sim = Simulator()
    store = Store(sim)
    for item in items:
        store.put_nowait(item)
    got = [store.get_nowait() for __ in items]
    assert got == items


@COMMON
@given(st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=30))
def test_resource_never_exceeds_capacity(capacity, jobs):
    sim = Simulator()
    resource = Resource(sim, capacity=capacity)
    holders = [0]
    peak = []

    def worker():
        yield resource.acquire()
        holders[0] += 1
        peak.append(holders[0])
        yield sim.timeout(1.0)
        holders[0] -= 1
        resource.release()

    for __ in range(jobs):
        sim.spawn(worker())
    sim.run()
    assert max(peak) <= capacity
    assert resource.queued == 0
    assert all(resource.try_acquire() for __ in range(capacity))


# ----------------------------------------------------------------------
# RNG determinism
# ----------------------------------------------------------------------
@COMMON
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.text(alphabet="abcdefg.", min_size=1, max_size=12))
def test_rng_reproducible_for_any_seed_and_name(seed, name):
    a = RngRegistry(seed).stream(name).random(4)
    b = RngRegistry(seed).stream(name).random(4)
    assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Registry round-robin fairness
# ----------------------------------------------------------------------
@COMMON
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=60))
def test_round_robin_is_fair(replicas, requests):
    registry = ServiceRegistry()
    addresses = [Address(f"m{i}", 1) for i in range(replicas)]
    for address in addresses:
        registry.register("svc", address)
    counts = {address: 0 for address in addresses}
    for __ in range(requests):
        counts[registry.resolve("svc")] += 1
    assert max(counts.values()) - min(counts.values()) <= 1


# ----------------------------------------------------------------------
# Summary statistics
# ----------------------------------------------------------------------
@COMMON
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6),
                min_size=1, max_size=200))
def test_summary_bounds(values):
    summary = summarize(values)
    # The mean of N identical floats can differ by an ulp from the
    # inputs, so bound checks carry a tiny relative epsilon.
    epsilon = 1e-9 * max(1.0, abs(summary.minimum),
                         abs(summary.maximum))
    assert summary.minimum <= summary.median <= summary.maximum
    assert summary.minimum - epsilon <= summary.mean \
        <= summary.maximum + epsilon
    assert summary.minimum - epsilon <= summary.p95 \
        <= summary.maximum + epsilon
    assert summary.count == len(values)


# ----------------------------------------------------------------------
# Vision invariants
# ----------------------------------------------------------------------
@COMMON
@given(st.integers(min_value=2, max_value=24),
       st.integers(min_value=2, max_value=24))
def test_grayscale_preserves_range(height, width):
    rng = np.random.default_rng(height * 100 + width)
    image = rng.random((height, width, 3))
    gray = to_grayscale(image)
    assert gray.shape == (height, width)
    assert gray.min() >= 0.0 and gray.max() <= 1.0


@COMMON
@given(st.integers(min_value=1, max_value=30),
       st.integers(min_value=1, max_value=30))
def test_resize_output_shape_and_range(height, width):
    rng = np.random.default_rng(height * 31 + width)
    image = rng.random((16, 16))
    resized = bilinear_resize(image, (height, width))
    assert resized.shape == (height, width)
    # Bilinear interpolation cannot exceed the input range.
    assert resized.min() >= image.min() - 1e-9
    assert resized.max() <= image.max() + 1e-9


@COMMON
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=10, max_value=60))
def test_pca_projection_dimensions_and_variance(components, samples):
    rng = np.random.default_rng(components * 100 + samples)
    data = rng.normal(0, 1, (samples, 8))
    pca = Pca(min(components, samples)).fit(data)
    projected = pca.transform(data)
    assert projected.shape == (samples, min(components, samples))
    # Projection is centred.
    assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-8)


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_lsh_self_query_always_top(seed):
    rng = np.random.default_rng(seed)
    index = LshIndex(dimension=16, seed=3)
    vectors = {i: rng.normal(0, 1, 16) for i in range(8)}
    for key, vector in vectors.items():
        index.insert(key, vector)
    probe = rng.integers(0, 8)
    matches = index.query(vectors[probe], k=1)
    assert matches[0].key == probe


@COMMON
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_matching_is_symmetric_for_identical_sets(seed):
    rng = np.random.default_rng(seed)
    descriptors = rng.normal(0, 1, (12, 8))
    matches = match_descriptors(descriptors, descriptors, ratio=0.95)
    assert len(matches) == 12
    assert all(m.query_index == m.reference_index for m in matches)


@COMMON
@given(st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=-50.0, max_value=50.0))
def test_homography_recovers_similarity_transforms(scale, angle, tx, ty):
    src = np.array([[0.0, 0.0], [20.0, 0.0], [20.0, 20.0], [0.0, 20.0],
                    [7.0, 3.0], [4.0, 15.0]])
    rotation = np.array([[np.cos(angle), -np.sin(angle)],
                         [np.sin(angle), np.cos(angle)]])
    dst = src @ (scale * rotation).T + np.array([tx, ty])
    matrix = estimate_homography_dlt(src, dst)
    assert matrix is not None
    mapped = np.hstack([src, np.ones((len(src), 1))]) @ matrix.T
    mapped = mapped[:, :2] / mapped[:, 2:3]
    assert np.allclose(mapped, dst, atol=1e-5)
