"""Properties of the content-addressed campaign cell cache.

The contract under test: a cache hit is bit-identical to a recompute
because the *key* covers everything that could change the result —
every task field, the resolved placement, pipeline-registered extras,
and the source tree itself — and because only clean outcomes are ever
admitted.  Damage tolerance rides along: truncated or malformed
entries are misses (recompute), never crashes, and concurrent writers
sharing a directory race benignly thanks to atomic replace.
"""

import hashlib
import json
import multiprocessing
import os
import pathlib
import signal
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.experiments import campaign as campaign_mod
from repro.experiments.cache import (
    ENTRY_FORMAT,
    CampaignCellCache,
    code_fingerprint,
    reset_code_fingerprint_cache,
    task_fingerprint,
)
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.parallel import (
    CellTask,
    plan_tasks,
    run_tasks,
    shutdown_pool,
    warm_pool,
)

requires_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="fake-runner injection into pool workers requires fork")


def make_task(**overrides):
    defaults = dict(pipeline="scatter", placement="C1", clients=1,
                    seed=0, duration_s=1.0)
    defaults.update(overrides)
    return CellTask(**defaults)


def fake_runner(placement, *, num_clients, duration_s, seed):
    return {"fps": 30.0 - num_clients, "success_rate": 1.0,
            "e2e_ms": 40.0 + seed, "jitter_ms": 1.0, "qoe_mos": 4.0,
            "trace_digest":
                f"digest-{placement.name}-{num_clients}c-s{seed}"}


def raising_runner(placement, *, num_clients, duration_s, seed):
    raise RuntimeError("cache poisoning probe")


def killer_runner(placement, *, num_clients, duration_s, seed):
    if placement.name == "C2":
        os.kill(os.getpid(), signal.SIGKILL)
    return fake_runner(placement, num_clients=num_clients,
                       duration_s=duration_s, seed=seed)


@pytest.fixture
def cache(tmp_path):
    return CampaignCellCache(tmp_path / "cells")


# ----------------------------------------------------------------------
# Fingerprint stability: same config = same key, any change = new key
# ----------------------------------------------------------------------
def test_task_fingerprint_is_stable():
    assert task_fingerprint(make_task()) == task_fingerprint(make_task())


@pytest.mark.parametrize("field,value", [
    ("pipeline", "scatterpp"),
    ("placement", "C2"),
    ("clients", 2),
    ("seed", 1),
    ("duration_s", 2.0),
])
def test_any_task_field_change_changes_the_fingerprint(field, value):
    base = task_fingerprint(make_task())
    assert task_fingerprint(make_task(**{field: value})) != base


def test_runner_extras_are_folded_into_the_fingerprint(monkeypatch):
    """Config a runner injects beyond the task (the cohort multiplier)
    must change the key when it changes, even though the task fields
    do not."""
    task = make_task(pipeline="cohort")
    base = task_fingerprint(task)
    monkeypatch.setattr(campaign_mod, "DEFAULT_COHORT_MULTIPLIER", 7)
    assert task_fingerprint(task) != base


def test_cache_key_combines_task_and_code(cache):
    assert cache.key(make_task()) == cache.key(make_task())
    assert cache.key(make_task()) != cache.key(make_task(seed=1))
    assert cache.key(make_task()) != task_fingerprint(make_task())


# ----------------------------------------------------------------------
# Memoized fingerprint parts: the hashed bytes never change
# ----------------------------------------------------------------------
def unmemoized_fingerprint(task):
    """Twin of :func:`task_fingerprint` with every part derived from
    scratch: the resolved placement and the runner extras (the preset's
    probe spec, plus the power model for the optimizer oracle)."""
    from repro.metrics.energy import DEFAULT_POWER_MODEL
    from repro.scatter.config import baseline_configs

    probe = campaign_mod.PRESETS[task.pipeline](
        baseline_configs()["C1"], num_clients=1, duration_s=1.0, seed=0)
    extras = (repr(probe),)
    if task.pipeline == "optimize":
        extras += (repr(DEFAULT_POWER_MODEL),)
    h = hashlib.blake2b(digest_size=16)
    for part in (task.pipeline, task.placement, task.clients,
                 task.seed, task.duration_s,
                 repr(campaign_mod.resolve_placement(task.placement)),
                 repr(extras)):
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def unmemoized_key(task):
    h = hashlib.blake2b(digest_size=16)
    h.update(unmemoized_fingerprint(task).encode())
    h.update(b"\x1f")
    h.update(code_fingerprint().encode())
    return h.hexdigest()


def perfbench_search_tasks(tmp_path, seed=0):
    """Every task perfbench's ``search`` workload plans at ``seed``.
    The search samples genomes without reading their grades, so a
    recording oracle yields the same batches without simulating."""
    from perfbench.workloads import Search
    from repro.orchestra.optimize import Objectives, PlacementSearch

    config = Search(seed, tmp_path, workers=0).config
    batches = []

    class RecordingOracle:
        def evaluate(self, specs):
            batches.append(tuple(specs))
            return {spec: Objectives(capacity=1, p95_ms=1.0,
                                     joules_per_frame=1.0, cost_units=1.0)
                    for spec in specs}, []

    PlacementSearch(config, oracle=RecordingOracle()).run()
    tasks = [task for specs in batches for task in plan_tasks(Campaign(
        name="optimize-oracle", pipelines=("optimize",), placements=specs,
        client_counts=config.ladder, duration_s=config.duration_s,
        seeds=(config.oracle_seed,)))]
    assert len(tasks) == config.budget * len(config.ladder)
    return tasks


def test_memoized_fingerprint_hashes_the_unmemoized_bytes(
        cache, tmp_path, monkeypatch):
    tasks = perfbench_search_tasks(tmp_path) + [
        make_task(placement="C12"),
        make_task(pipeline="scatterpp", placement="1,2,1,1,2"),
        make_task(pipeline="cohort")]
    assert all(task.placement.startswith("opt:") for task in tasks[:-3])
    for multiplier in (None, 7):
        if multiplier is not None:
            monkeypatch.setattr(campaign_mod, "DEFAULT_COHORT_MULTIPLIER",
                                multiplier)
        for task in tasks:
            assert task_fingerprint(task) == unmemoized_fingerprint(task)
            assert cache.key(task) == unmemoized_key(task)


@pytest.mark.parametrize("field,first,second", [
    ("duration_s", 1.0, 1),
    ("clients", 1, True),
])
def test_fingerprint_memo_keeps_equal_fields_with_other_reprs_apart(
        field, first, second):
    """The fingerprint hashes each field's repr, so two tasks that
    compare equal still get the keys their reprs give, whichever a
    process fingerprinted first."""
    tasks = [make_task(**{field: first}), make_task(**{field: second})]
    assert tasks[0] == tasks[1]
    for task in tasks + tasks[::-1]:
        assert task_fingerprint(task) == unmemoized_fingerprint(task)
    assert task_fingerprint(tasks[0]) != task_fingerprint(tasks[1])


def test_runner_extras_are_tuples_of_strings():
    """The extras memo keys on the tuple's value, which is sound only
    for ``str`` parts: ``(1,)`` and ``(True,)`` are equal but repr
    differently."""
    for pipeline, extras in campaign_mod.RUNNER_FINGERPRINTS.items():
        parts = extras()
        assert type(parts) is tuple, pipeline
        assert all(type(part) is str for part in parts), pipeline


@pytest.mark.parametrize("name", ["nope", "opt:primary=e1"])
def test_unknown_placements_raise_on_every_campaign(name):
    for __ in range(2):  # a failed resolve is never memoized
        with pytest.raises(ValueError):
            Campaign(name="typo", placements=(name,))


# ----------------------------------------------------------------------
# Code fingerprint: any source byte invalidates
# ----------------------------------------------------------------------
def _fake_tree(tmp_path):
    root = tmp_path / "tree"
    (root / "pkg").mkdir(parents=True)
    (root / "pkg" / "mod.py").write_text("VALUE = 1\n")
    (root / "top.py").write_text("import pkg.mod\n")
    return root


def test_code_fingerprint_covers_every_source_byte(tmp_path):
    root = _fake_tree(tmp_path)
    reset_code_fingerprint_cache()
    base = code_fingerprint(root)
    assert code_fingerprint(root) == base  # memoized and stable

    (root / "pkg" / "mod.py").write_text("VALUE = 2\n")
    reset_code_fingerprint_cache()
    assert code_fingerprint(root) != base

    (root / "pkg" / "mod.py").write_text("VALUE = 1\n")
    reset_code_fingerprint_cache()
    assert code_fingerprint(root) == base  # content, not mtime

    (root / "pkg" / "extra.py").write_text("")
    reset_code_fingerprint_cache()
    assert code_fingerprint(root) != base  # new files count too
    reset_code_fingerprint_cache()


def test_source_edit_invalidates_cached_cells(tmp_path):
    """A cell cached under one source tree misses under an edited one."""
    root = _fake_tree(tmp_path)
    reset_code_fingerprint_cache()
    cache = CampaignCellCache(tmp_path / "cells", code_root=root)
    task = make_task()
    cache.put(task, {"fps": 30.0})
    assert cache.get(task) == {"fps": 30.0}

    (root / "pkg" / "mod.py").write_text("VALUE = 2  # one byte moved\n")
    reset_code_fingerprint_cache()
    assert cache.get(task) is None  # same task, new code, new key
    assert len(cache) == 2 - 1  # old entry still on disk, orphaned
    reset_code_fingerprint_cache()


# ----------------------------------------------------------------------
# Round trip and stats
# ----------------------------------------------------------------------
def test_round_trip_returns_exactly_the_stored_summary(cache):
    summary = {"fps": 29.5, "trace_digest": "abc",
               "nested": {"values": [1.0, 2.0]}}
    assert cache.get(make_task()) is None  # cold
    cache.put(make_task(), summary)
    assert cache.get(make_task()) == summary
    report = cache.report()
    assert (report["hits"], report["misses"], report["stored"]) \
        == (1, 1, 1)
    assert report["entries"] == 1 and report["corrupt"] == 0


def test_put_rejects_non_dict_summaries(cache):
    with pytest.raises(TypeError):
        cache.put(make_task(), [1, 2, 3])


# ----------------------------------------------------------------------
# No poisoning: failed and quarantined cells are never admitted
# ----------------------------------------------------------------------
@requires_fork
def test_raising_cells_are_never_cached(monkeypatch, cache):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        raising_runner)
    tasks = plan_tasks(Campaign(
        name="poison", pipelines=("scatter",), placements=("C1",),
        client_counts=(1,), duration_s=1.0, seeds=(0, 1)))
    outcomes = run_tasks(tasks, workers=0, cache=cache)
    assert all(not outcome.ok for outcome in outcomes)
    assert len(cache) == 0
    assert cache.report()["stored"] == 0


@requires_fork
def test_quarantined_cells_are_never_cached(monkeypatch, cache):
    """A SIGKILL breaks the pool; quarantine retries the casualties.
    Neither the lethal task nor the tasks recovered in quarantine may
    be admitted — recovery under a broken pool is not a clean run."""
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter",
                        killer_runner)
    tasks = plan_tasks(Campaign(
        name="poison", pipelines=("scatter",),
        placements=("C2", "C1"), client_counts=(1, 2, 3),
        duration_s=1.0, seeds=(0,)))
    shutdown_pool()
    warm_pool(2)
    try:
        outcomes = run_tasks(tasks, workers=2, cache=cache)
    finally:
        shutdown_pool()
    lost = [o for o in outcomes if not o.ok]
    assert lost and all(o.failure.kind == "worker-lost" for o in lost)
    recovered = [o for o in outcomes if o.ok and o.quarantined]
    clean = [o for o in outcomes if o.ok and not o.quarantined]
    # Only the clean outcomes may appear on disk.
    assert len(cache) == len(clean)
    for outcome in recovered + lost:
        assert cache.get(outcome.task) is None


# ----------------------------------------------------------------------
# Concurrent writers: atomic replace, no torn entries
# ----------------------------------------------------------------------
def test_concurrent_writers_never_tear_an_entry(tmp_path):
    """Many writers racing on the same key (and distinct keys) must
    leave only complete, parseable entries behind."""
    directory = tmp_path / "cells"
    summary = {"fps": 30.0, "blob": "x" * 4096}

    def writer(seed):
        cache = CampaignCellCache(directory)
        cache.put(make_task(), summary)  # shared key: pure race
        cache.put(make_task(seed=seed), summary)  # distinct key
        return cache.get(make_task())

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(writer, range(1, 17)))
    assert all(result == summary for result in results)

    reader = CampaignCellCache(directory)
    assert len(reader) == 1 + 16
    for path in sorted(directory.glob("*.json")):
        entry = json.loads(path.read_text())
        assert entry["format"] == ENTRY_FORMAT
        assert entry["summary"] == summary
    assert not list(directory.glob("*.tmp"))  # no droppings


# ----------------------------------------------------------------------
# Corrupt entries: recompute, never crash
# ----------------------------------------------------------------------
@pytest.mark.parametrize("damage", [
    lambda raw: raw[:len(raw) // 2],             # truncated write
    lambda raw: "",                              # zero-length file
    lambda raw: "not json at all {",             # garbage
    lambda raw: json.dumps([1, 2, 3]),           # wrong shape
    lambda raw: json.dumps({"format": 999,       # future schema
                            "summary": {}}),
    lambda raw: json.dumps({"format": ENTRY_FORMAT,
                            "summary": "oops"}),  # non-dict summary
])
def test_corrupt_entries_are_misses_not_crashes(cache, damage):
    cache.put(make_task(), {"fps": 30.0})
    path = pathlib.Path(cache._path(cache.key(make_task())))
    path.write_text(damage(path.read_text()))

    assert cache.get(make_task()) is None
    assert cache.corrupt == 1
    assert not path.exists()  # unlinked so the rerun can heal it

    cache.put(make_task(), {"fps": 30.0})
    assert cache.get(make_task()) == {"fps": 30.0}


@requires_fork
def test_corrupt_entry_heals_through_a_campaign_rerun(
        monkeypatch, tmp_path):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter", fake_runner)
    campaign = Campaign(name="heal", pipelines=("scatter",),
                        placements=("C1",), client_counts=(1,),
                        duration_s=1.0, seeds=(0, 1))
    cache = CampaignCellCache(tmp_path / "cells")
    cold = run_campaign(campaign, cache=cache)
    assert cold.cache["stored"] == 2

    victim = next(iter((tmp_path / "cells").glob("*.json")))
    victim.write_text(victim.read_text()[:40])  # truncate one entry

    rerun_cache = CampaignCellCache(tmp_path / "cells")
    warm = run_campaign(campaign, cache=rerun_cache)
    assert warm.cache["hits"] == 1
    assert warm.cache["misses"] == 1  # the corrupt one recomputed
    assert warm.cache["corrupt"] == 1
    assert warm.cache["stored"] == 1  # and was re-admitted
    assert warm.digests == cold.digests
    assert len(rerun_cache) == 2


# ----------------------------------------------------------------------
# End to end: cold run stores, warm run replays bit-identically
# ----------------------------------------------------------------------
@requires_fork
def test_campaign_rerun_replays_from_cache(monkeypatch, tmp_path):
    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter", fake_runner)
    campaign = Campaign(name="warm", pipelines=("scatter",),
                        placements=("C1", "C2"), client_counts=(1, 2),
                        duration_s=1.0, seeds=(0, 1))
    tasks = len(campaign.cells) * len(campaign.seeds)

    cold = run_campaign(campaign,
                        cache=CampaignCellCache(tmp_path / "cells"))
    assert cold.cache["misses"] == tasks
    assert cold.cache["stored"] == tasks

    warm = run_campaign(campaign,
                        cache=CampaignCellCache(tmp_path / "cells"))
    assert warm.cache["hits"] == tasks
    assert warm.cache["misses"] == 0
    assert warm.cache["stored"] == 0
    assert warm.digests == cold.digests
    assert {cell: {name: metric.values
                   for name, metric in metrics.items()}
            for cell, metrics in warm.cells.items()} \
        == {cell: {name: metric.values
                   for name, metric in metrics.items()}
            for cell, metrics in cold.cells.items()}
