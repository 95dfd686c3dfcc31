"""Incremental parallel campaigns — contract, speedup, cache wins.

Runs the demo campaign (2 pipelines × 2 placements × 2 client counts
× 3 seeds = 24 (cell, seed) tasks) three ways and pins the contract
plus the performance bars in
the committed repo-root ``BENCH_parallel_campaign.json``:

* **serial** — ``workers=0``, in-process (the baseline);
* **warm-pool cold** — ``workers=N`` on the persistent warm pool, one
  future per task, cell cache *off* (every task computes);
* **cached rerun** — ``workers=N`` against a fully-primed cell cache
  (every task replays from disk).

Timed arms are interleaved and aggregated with ``min`` (the standard
noise-robust estimator) after an untimed warm-up campaign has forked
and exercised the pool workers.

Bars (asserted on every box — there is no silent pass):

* warm-pool cold ≥ 1.0× serial.  Process parallelism cannot beat
  serial on a single CPU, and the pool is capped at the core count
  (``effective_workers``), so there it must break even; on ≥4 spare
  cores it must win outright (≥1.3×).  When ``workers > cpu_count``
  the bench prints a loud oversubscription notice and still enforces
  the break-even bar.
* cached rerun ≥ 5× serial, with hits == tasks and zero recomputes.
* serial ≡ sharded ≡ cached trace digests and metrics, bit-for-bit.
* failed cells write zero cache entries (no-poisoning probe).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.experiments import campaign as campaign_mod
from repro.experiments.cache import CampaignCellCache
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.parallel import (
    effective_workers,
    shutdown_pool,
    warm_pool,
)

from benchmarks.conftest import save_bench_json

DEMO = Campaign(
    name="parallel-demo",
    pipelines=("scatter", "scatterpp"),
    placements=("C1", "C12"),
    client_counts=(1, 4),
    duration_s=20.0,
    seeds=(0, 1, 2),
)

#: Same grid, one cheap seed: forks the pool workers and faults in
#: their copy-on-write pages before anything is timed.
WARMUP = Campaign(
    name="parallel-demo-warmup",
    pipelines=("scatter", "scatterpp"),
    placements=("C1", "C12"),
    client_counts=(1, 4),
    duration_s=2.0,
    seeds=(7,),
)

WORKERS = 4
REPEATS = 3


def _metric_values(report):
    return {cell: {name: metric.values
                   for name, metric in sorted(metrics.items())}
            for cell, metrics in sorted(report.cells.items())}


def _timed(fn):
    start = time.perf_counter()
    report = fn()
    return time.perf_counter() - start, report


def _assert_contract(reference, report, label):
    assert not report.failures, (label, report.failures)
    assert _metric_values(report) == _metric_values(reference), label
    assert report.digests == reference.digests, label


def _raising_runner(placement, *, num_clients, duration_s, seed):
    raise RuntimeError("poisoning probe: this cell always fails")


def _no_poisoning_probe(cache_dir: str) -> int:
    """Failed cells must write zero cache entries; returns the count."""
    real = campaign_mod.RUNNERS["scatter"]
    campaign_mod.RUNNERS["scatter"] = _raising_runner
    try:
        probe = Campaign(name="poison-probe", pipelines=("scatter",),
                         placements=("C1",), client_counts=(1,),
                         duration_s=1.0, seeds=(0, 1))
        report = run_campaign(probe, cache=CampaignCellCache(cache_dir))
    finally:
        campaign_mod.RUNNERS["scatter"] = real
    assert report.failures, "poisoning probe cells should have failed"
    assert report.cache is not None
    return report.cache["entries"]


def test_parallel_campaign_contract_and_speedup(save_result,
                                                campaign_workers):
    workers = campaign_workers or WORKERS
    cpus = os.cpu_count() or 1
    oversubscribed = workers > cpus
    if oversubscribed:
        print(f"\nNOTE: workers={workers} > cpu_count={cpus} — "
              "process parallelism cannot beat serial here; the "
              "warm-pool bar is break-even (>= 1.0x), asserted, "
              "not skipped.")

    cache_dir = tempfile.mkdtemp(prefix="bench-cell-cache-")
    try:
        # Fork + exercise the pool before timing anything.  Warm the
        # *capped* size: warming an exact-size pool is the operator
        # override for the oversubscription cap, and the bench wants
        # the cap (an oversubscribed pool measurably loses on 1 CPU).
        pool_size = effective_workers(workers)
        warm_pool(pool_size)
        run_campaign(WARMUP, workers=workers)

        serial_times, parallel_times = [], []
        serial = parallel = None
        for _ in range(REPEATS):
            elapsed, serial = _timed(lambda: run_campaign(DEMO))
            serial_times.append(elapsed)
            elapsed, parallel = _timed(
                lambda: run_campaign(DEMO, workers=workers))
            parallel_times.append(elapsed)
            _assert_contract(serial, parallel, "warm-pool cold")

        # Prime the cell cache (untimed), then time cached reruns.
        primed = run_campaign(DEMO, workers=workers,
                              cache=CampaignCellCache(cache_dir))
        _assert_contract(serial, primed, "cache prime")
        tasks = len(DEMO.cells) * len(DEMO.seeds)
        assert primed.cache["misses"] == tasks
        assert primed.cache["stored"] == tasks

        cached_times = []
        for _ in range(2):
            elapsed, cached = _timed(
                lambda: run_campaign(DEMO, workers=workers,
                                     cache=CampaignCellCache(cache_dir)))
            cached_times.append(elapsed)
            _assert_contract(serial, cached, "cached rerun")
            assert cached.cache["hits"] == tasks
            assert cached.cache["misses"] == 0
            assert cached.cache["stored"] == 0

        poison_entries = _no_poisoning_probe(
            os.path.join(cache_dir, "poison"))

        serial_s = min(serial_times)
        parallel_s = min(parallel_times)
        cached_s = min(cached_times)
        warm_speedup = serial_s / parallel_s if parallel_s else 0.0
        cached_speedup = serial_s / cached_s if cached_s else 0.0
        assert sum(len(d) for d in serial.digests.values()) == tasks

        entry = {
            "campaign": DEMO.name,
            "tasks": tasks,
            "duration_s": DEMO.duration_s,
            "workers": workers,
            "pool_size": pool_size,
            "cpus": cpus,
            "oversubscribed": oversubscribed,
            "repeats": REPEATS,
            "serial_wall_s": round(serial_s, 3),
            "warm_pool_wall_s": round(parallel_s, 3),
            "cached_rerun_wall_s": round(cached_s, 3),
            "warm_pool_speedup": round(warm_speedup, 3),
            "cached_rerun_speedup": round(cached_speedup, 3),
            "cache_hits_on_rerun": tasks,
            "failed_cell_cache_entries": poison_entries,
            "digests_identical": True,
            "metrics_identical": True,
        }
        save_bench_json("parallel_campaign", entry)
        save_result("parallel_campaign",
                    json.dumps(entry, indent=2, sort_keys=True))

        # No-poisoning: the failed campaign cached nothing.
        assert poison_entries == 0, entry
        # The warm pool breaks even everywhere...
        assert warm_speedup >= 1.0, entry
        # ...win outright with real spare cores...
        if cpus >= 4 and workers >= 4:
            assert warm_speedup >= 1.3, entry
        # ...and a fully-cached rerun is where incrementality pays.
        assert cached_speedup >= 5.0, entry
    finally:
        shutdown_pool()
        shutil.rmtree(cache_dir, ignore_errors=True)
