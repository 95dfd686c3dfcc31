"""Properties of the content-addressed feature cache.

Covers the correctness-by-construction story (hits return exactly the
inserted payload, frozen against mutation), the LRU bounds (entry
count and byte budget, eviction order, recency refresh) and counter
accounting.
"""

import numpy as np
import pytest

from repro.vision.cache import FeatureCache, array_digest, config_fingerprint


# ----------------------------------------------------------------------
# Content addressing
# ----------------------------------------------------------------------
def test_array_digest_is_content_addressed():
    base = np.arange(12, dtype=np.float64)
    assert array_digest(base) == array_digest(base.copy())
    changed = base.copy()
    changed[3] += 1e-12  # a single-ulp-scale change changes the key
    assert array_digest(changed) != array_digest(base)
    assert array_digest(base.reshape(3, 4)) != array_digest(base)
    assert array_digest(base.astype(np.float32)) != array_digest(base)


def test_array_digest_handles_non_contiguous_views():
    data = np.arange(24, dtype=np.float64).reshape(4, 6)
    view = data[:, ::2]
    assert array_digest(view) == array_digest(view.copy())


def test_config_fingerprint_mixes_arrays_and_scalars():
    basis = np.eye(3)
    fp = config_fingerprint("pca", 3, basis)
    assert fp == config_fingerprint("pca", 3, basis.copy())
    assert fp != config_fingerprint("pca", 4, basis)
    assert fp != config_fingerprint("pca", 3, basis * 2.0)
    # Separator prevents adjacent parts from concatenating ambiguously.
    assert config_fingerprint("ab", "c") != config_fingerprint("a", "bc")


# ----------------------------------------------------------------------
# Hit semantics
# ----------------------------------------------------------------------
def test_hit_returns_identical_content():
    cache = FeatureCache()
    payload = np.random.default_rng(0).standard_normal((5, 8))
    expected = payload.tobytes()
    stored = cache.put(("k",), payload)
    hit = cache.get(("k",))
    assert hit is stored
    assert hit.tobytes() == expected


def test_get_or_compute_matches_fresh_compute():
    cache = FeatureCache()
    rng = np.random.default_rng(1)
    fresh = rng.standard_normal(64)

    first = cache.get_or_compute(("x",), lambda: fresh.copy())
    second = cache.get_or_compute(
        ("x",), lambda: pytest.fail("hit must not recompute"))
    assert second is first
    assert second.tobytes() == fresh.tobytes()


def test_cached_payloads_are_frozen():
    cache = FeatureCache()
    keypoints = (np.arange(4.0), np.arange(3.0))
    frozen = cache.put(("kp",), keypoints)
    for array in frozen:
        with pytest.raises(ValueError):
            array[0] = 99.0
    hit = cache.get(("kp",))
    with pytest.raises(ValueError):
        hit[1][0] = 99.0


# ----------------------------------------------------------------------
# LRU bounds
# ----------------------------------------------------------------------
def test_eviction_is_least_recently_used_first():
    cache = FeatureCache(max_entries=3)
    for name in ("a", "b", "c"):
        cache.put((name,), np.zeros(1))
    cache.get(("a",))  # refresh: "b" is now the oldest
    cache.put(("d",), np.zeros(1))
    assert cache.get(("b",)) is None
    assert cache.get(("a",)) is not None  # ...which refreshes it again
    assert cache.keys() == (("c",), ("d",), ("a",))
    assert cache.stats().evictions == 1


def test_byte_budget_is_enforced():
    one_kb = np.zeros(128)  # 128 * 8 bytes
    cache = FeatureCache(max_entries=100, max_bytes=3 * one_kb.nbytes)
    for index in range(10):
        cache.put((f"k{index}",), one_kb.copy())
        assert cache.size_bytes <= cache.max_bytes
    assert len(cache) == 3
    assert cache.stats().evictions == 7


def test_oversized_payload_is_returned_but_not_retained():
    cache = FeatureCache(max_bytes=64)
    big = np.zeros(1024)
    returned = cache.put(("big",), big)
    assert returned is big
    assert not returned.flags.writeable  # still frozen for the caller
    assert len(cache) == 0
    assert cache.get(("big",)) is None


def test_reinserting_a_key_replaces_without_growth():
    cache = FeatureCache()
    cache.put(("k",), np.zeros(10))
    cache.put(("k",), np.zeros(20))
    assert len(cache) == 1
    assert cache.size_bytes == np.zeros(20).nbytes


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
def test_counter_accounting_and_delta():
    cache = FeatureCache()
    cache.get(("miss",))
    cache.put(("k",), np.zeros(4))
    cache.get(("k",))
    before = cache.stats()
    assert (before.hits, before.misses, before.insertions) == (1, 1, 1)
    assert before.hit_rate == pytest.approx(0.5)

    cache.get(("k",))
    cache.get(("k",))
    after = cache.stats()
    assert (after.hits, after.misses, after.insertions) == (3, 1, 1)
    assert after.hit_rate == pytest.approx(0.75)
    assert after.entries == 1


def test_clear_drops_entries_but_keeps_counters():
    cache = FeatureCache()
    cache.put(("k",), np.zeros(4))
    cache.get(("k",))
    cache.clear()
    assert len(cache) == 0
    assert cache.size_bytes == 0
    assert cache.stats().hits == 1
    assert cache.stats().insertions == 1


def test_validation():
    with pytest.raises(ValueError):
        FeatureCache(max_entries=0)
    with pytest.raises(ValueError):
        FeatureCache(max_bytes=0)
