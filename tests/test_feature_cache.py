"""Properties of the content-addressed feature cache.

Covers the correctness-by-construction story (hits return exactly the
inserted payload, frozen against mutation), the LRU bounds (entry
count and byte budget, eviction order, recency refresh), counter
accounting, environment gating, and — via fake campaign runners — the
per-process isolation that sharded campaigns rely on.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.experiments import campaign as campaign_mod
from repro.experiments.campaign import Campaign
from repro.experiments.parallel import (
    plan_tasks,
    run_tasks,
    shutdown_pool,
    warm_pool,
)
from repro.vision.cache import (
    DISABLE_ENV,
    FeatureCache,
    array_digest,
    config_fingerprint,
    default_feature_cache,
    reset_default_feature_cache,
)


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


def test_disabled_cache_counts_misses_and_stores_nothing():
    cache = FeatureCache(enabled=False)
    frozen = cache.put(("k",), np.zeros(4))
    assert not frozen.flags.writeable
    assert cache.get(("k",)) is None
    assert len(cache) == 0
    stats = cache.stats()
    assert stats.misses == 1 and stats.insertions == 0


def test_validation():
    with pytest.raises(ValueError):
        FeatureCache(max_entries=0)
    with pytest.raises(ValueError):
        FeatureCache(max_bytes=0)


# ----------------------------------------------------------------------
# Process-default cache + environment gating
# ----------------------------------------------------------------------
def test_default_cache_is_a_per_process_singleton():
    reset_default_feature_cache()
    try:
        assert default_feature_cache() is default_feature_cache()
    finally:
        reset_default_feature_cache()


def test_env_variable_disables_default_cache(monkeypatch):
    monkeypatch.setenv(DISABLE_ENV, "1")
    reset_default_feature_cache()
    try:
        assert not default_feature_cache().enabled
    finally:
        # monkeypatch restores the environment; dropping the singleton
        # makes the next consumer re-read it.
        reset_default_feature_cache()


# ----------------------------------------------------------------------
# Per-process isolation under a sharded campaign
# ----------------------------------------------------------------------
def _cache_probe_runner(placement, *, num_clients, duration_s, seed):
    """Fake cell: touch one shared key in the worker's default cache."""
    cache = default_feature_cache()
    before = cache.stats()
    cache.get_or_compute(("shared-probe",), lambda: np.arange(16.0))
    time.sleep(0.1)  # keep this worker busy so peers pick up tasks
    after = cache.stats()
    return {"trace_digest": f"probe-{seed}", "pid": os.getpid(),
            "cache": {key: getattr(after, key) - getattr(before, key)
                      for key in ("hits", "misses", "insertions")}}


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fake-runner injection into pool workers requires fork")
def test_worker_caches_are_isolated_per_process(monkeypatch):
    """Every worker process pays exactly one cold miss for a shared key.

    If caches leaked across the process boundary, a later worker would
    observe a hit on its first lookup; if a worker's cache leaked
    *into* later cells on the same worker, those cells would observe
    extra misses.  Both directions are pinned here.
    """
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        _cache_probe_runner)
    campaign = Campaign(
        name="iso", pipelines=("scatter",), placements=("C1",),
        client_counts=(1, 2), duration_s=0.1,
        seeds=(0, 1, 2, 3))
    # The probe needs (a) workers forked *after* the monkeypatch —
    # drop any earlier pool — and (b) a genuine multi-worker fan-out,
    # so warm an exact-size pool (overrides the cpu-count cap).
    shutdown_pool()
    warm_pool(4)
    try:
        outcomes = run_tasks(plan_tasks(campaign), workers=4)
    finally:
        shutdown_pool()
    assert all(outcome.ok for outcome in outcomes)

    by_pid = {}
    for outcome in outcomes:
        by_pid.setdefault(outcome.summary["pid"], []).append(
            outcome.summary["cache"])
    assert len(by_pid) >= 2  # the pool really fanned out
    for deltas in by_pid.values():
        assert sum(d["misses"] for d in deltas) == 1
        assert sum(d["insertions"] for d in deltas) == 1
        assert sum(d["hits"] for d in deltas) == len(deltas) - 1
