"""Sampled placements beat the paper's characterized statics.

The paper characterizes hand-picked configurations (C1/C2/C12/C21,
cloud, hybrid, replica vectors); :mod:`repro.orchestra.optimize`
samples the space instead: every static plus seeded uniform draws,
ranked on a Pareto archive.  This benchmark grades every static
through the *same* campaign-cell oracle the search uses (same SLO
ladder, duration, and seed), runs the seeded search, and gates on the
headline claim:

* **full mode** — the searched front's best genome strictly beats the
  best static on SLO-compliant capacity, or ties it with strictly
  lower joules-per-frame;
* the search evaluates more genomes than the statics it starts from;
* the same-seed rerun reproduces a **bit-identical front digest**;
* the rerun replays **>= 50 % of oracle calls from the cell cache**
  (in practice 100 %: every cell was just simulated).

Beside the gates it records what a warm cache hit costs, with no time
gate: the median microseconds per ``task_fingerprint`` (the cache-key
layer) and per ``CampaignCellCache.get`` hit (the read layer) over the
search's tasks, the directory scans of one warm rerun, and the median
wall time of ``WARM_RERUNS`` same-seed reruns, each asserted all hits
and reproducing the cold front (end to end).

Results land in the committed repo-root ``BENCH_placement_search.json``.

``OPTIMIZE_SMOKE=1`` shrinks the ladder/duration/budget for CI and
keeps every gate but the headline one.  Its capacity gate (searched
>= best static) cannot fail: every static is in the archive the front
is ranked from, so it checks only that ranking keeps them.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter

from repro.experiments.cache import CampaignCellCache, task_fingerprint
from repro.experiments.parallel import CellTask
from repro.orchestra.optimize import (CampaignOracle, OptimizeConfig,
                                      SearchSpace, run_search,
                                      static_seed_genomes)

from benchmarks.conftest import save_bench_json

SMOKE = os.environ.get("OPTIMIZE_SMOKE") == "1"

LADDER = (1, 2, 3) if SMOKE else (1, 2, 3, 4, 5, 6)
DURATION_S = 3.0 if SMOKE else 4.0
POPULATION = 6 if SMOKE else 10
GENERATIONS = 1 if SMOKE else 5
#: Search seed, fixed before sampling replaced the genetic loop and
#: not re-picked since.  At this seed the sampler ties the statics'
#: capacity of four and wins on joules per frame; over seeds 0-9 it
#: reaches capacity 5 more often than the genetic loop did
#: (DESIGN §15).
SEED = 4
#: Same-seed warm reruns timed end to end, and timing repeats of the
#: key and read layers over the search's tasks.
WARM_RERUNS = 10
LAYER_REPEATS = 20


def median_us(call, tasks) -> float:
    """Median over ``LAYER_REPEATS`` passes of the microseconds per
    ``call(task)`` over ``tasks``."""
    per_task = []
    for __ in range(LAYER_REPEATS):
        started = time.perf_counter()
        for task in tasks:
            call(task)
        per_task.append((time.perf_counter() - started) / len(tasks))
    return statistics.median(per_task) * 1e6


class CacheIO:
    """Opens of the entries in one cache directory, and listings of
    it, counted while the context is active.

    The counts come from the interpreter's audit events (``open``,
    ``os.scandir``, ``os.listdir``), which fire whichever API opens a
    file or lists a directory.  An audit hook stays for the life of
    the process, so one hook serves every instance and does nothing
    while none is active.
    """

    _active: list = []
    _hooked = False

    def __init__(self, directory):
        self.directory = os.path.abspath(directory)
        #: Entry path -> times opened.
        self.opens: Counter = Counter()
        self.scans = 0

    def __enter__(self) -> "CacheIO":
        if not CacheIO._hooked:
            sys.addaudithook(CacheIO._audit)
            CacheIO._hooked = True
        CacheIO._active.append(self)
        return self

    def __exit__(self, *exc) -> None:
        CacheIO._active.remove(self)

    @staticmethod
    def _audit(event, args) -> None:
        if not CacheIO._active or event not in (
                "open", "os.scandir", "os.listdir"):
            return
        if not isinstance(args[0], (str, os.PathLike)):
            return  # a file descriptor, or scandir's default
        path = os.path.abspath(args[0])
        for watch in CacheIO._active:
            if event == "open":
                if os.path.dirname(path) == watch.directory:
                    watch.opens[path] += 1
            elif path == watch.directory:
                watch.scans += 1


def test_search_beats_static_placements(save_result, tmp_path,
                                        campaign_workers):
    cache_dir = tmp_path / "cells"

    # Grade every static the search seeds from, through the same
    # oracle (identical ladder, duration, seed, SLO) — apples to
    # apples with the searched genomes, and it pre-warms the cell
    # cache the search replays its seed generation from.
    statics = {genome.encode(): genome
               for genome in static_seed_genomes(SearchSpace())}
    oracle = CampaignOracle(ladder=LADDER, duration_s=DURATION_S,
                            seed=SEED, workers=campaign_workers,
                            cache=CampaignCellCache(cache_dir))
    static_objectives, __ = oracle.evaluate(sorted(statics))
    best_static_capacity = max(
        o.capacity for o in static_objectives.values())
    best_static_jpf = min(
        o.joules_per_frame for o in static_objectives.values()
        if o.capacity == best_static_capacity)

    config = OptimizeConfig(
        name="bench-placement-search", seed=SEED,
        population=POPULATION, generations=GENERATIONS,
        ladder=LADDER, duration_s=DURATION_S, oracle_seed=SEED,
        workers=campaign_workers)
    report = run_search(config, cache=CampaignCellCache(cache_dir))
    assert report.front
    assert report.evaluations > len(statics), report.evaluations
    searched_capacity = max(e["objectives"]["capacity"]
                            for e in report.front)
    searched_jpf = min(e["objectives"]["joules_per_frame"]
                       for e in report.front
                       if e["objectives"]["capacity"]
                       == searched_capacity)
    best = report.best()["objectives"]

    # --- the headline gate -------------------------------------------
    if SMOKE:
        assert searched_capacity >= best_static_capacity, report.front
    else:
        assert (searched_capacity > best_static_capacity
                or (searched_capacity == best_static_capacity
                    and searched_jpf < best_static_jpf)), (
            f"searched front (capacity {searched_capacity}, "
            f"{searched_jpf:.2f} J/frame) does not beat the static "
            f"frontier (capacity {best_static_capacity}, "
            f"{best_static_jpf:.2f} J/frame)")

    # --- determinism: same seed, bit-identical front -----------------
    rerun = run_search(config, cache=CampaignCellCache(cache_dir))
    assert rerun.front_digest() == report.front_digest()
    assert rerun.front == report.front

    # --- cache economics: the rerun replays from cells ---------------
    total = rerun.cache["hits"] + rerun.cache["misses"]
    hit_rate = rerun.cache["hits"] / total if total else 0.0
    assert hit_rate >= 0.5, rerun.cache

    # --- what a warm hit costs (reported, not gated) -----------------
    tasks = [CellTask(pipeline="optimize", placement=call["genome"],
                      clients=call["clients"], seed=call["seed"],
                      duration_s=DURATION_S)
             for call in rerun.oracle_calls]
    assert [task_fingerprint(task) for task in tasks] == [
        call["fingerprint"] for call in rerun.oracle_calls]
    reader = CampaignCellCache(cache_dir)
    assert all(reader.get(task) is not None for task in tasks)
    warm_ms = []
    for __ in range(WARM_RERUNS):
        started = time.perf_counter()
        warm = run_search(config, cache=CampaignCellCache(cache_dir))
        warm_ms.append((time.perf_counter() - started) * 1e3)
        assert warm.cache["hits"] == len(tasks), warm.cache
        assert warm.cache["misses"] == 0, warm.cache
        assert warm.front_digest() == report.front_digest()
    with CacheIO(cache_dir) as io:
        run_search(config, cache=CampaignCellCache(cache_dir))
    assert sorted(io.opens.values()) == [1] * len(tasks), io.opens

    entry = {
        "mode": "smoke" if SMOKE else "full",
        "ladder": list(LADDER),
        "duration_s": DURATION_S,
        "population": POPULATION,
        "generations": GENERATIONS,
        "seed": SEED,
        "statics": {spec: obj.as_dict()
                    for spec, obj in sorted(static_objectives.items())},
        "best_static": {"capacity": best_static_capacity,
                        "joules_per_frame": best_static_jpf},
        "searched": {"front": report.front,
                     "best": report.best(),
                     "best_capacity": searched_capacity,
                     "best_joules_per_frame": searched_jpf,
                     "evaluations": report.evaluations,
                     "front_digest": report.front_digest()},
        "rerun": {"front_digest": rerun.front_digest(),
                  "cache_hit_rate": hit_rate,
                  "fingerprint_us_median":
                      round(median_us(task_fingerprint, tasks), 2),
                  "cache_hit_us_median":
                      round(median_us(reader.get, tasks), 2),
                  "dir_scans_per_warm_rerun": io.scans,
                  "warm_reruns": WARM_RERUNS,
                  "warm_rerun_ms_median":
                      round(statistics.median(warm_ms), 2)},
    }
    save_bench_json("placement_search", entry)

    lines = ["placement search vs static frontier "
             f"(ladder {list(LADDER)}, {DURATION_S:g}s cells):"]
    for spec, obj in sorted(static_objectives.items(),
                            key=lambda kv: (-kv[1].capacity,
                                            kv[1].joules_per_frame)):
        lines.append(f"  static  cap={obj.capacity} "
                     f"jpf={obj.joules_per_frame:7.2f}  {spec}")
    lines.append(f"  searched cap={searched_capacity} "
                 f"jpf={searched_jpf:7.2f}  "
                 f"{report.best()['genome']}")
    lines.append(f"  evaluations={report.evaluations} "
                 f"rerun_hit_rate={hit_rate:.0%} "
                 f"front_digest={report.front_digest()}")
    lines.append(f"  warm hit: {entry['rerun']['fingerprint_us_median']} "
                 f"us per key, {entry['rerun']['cache_hit_us_median']} "
                 f"us per read, rerun of {len(tasks)} cells "
                 f"{entry['rerun']['warm_rerun_ms_median']} ms "
                 f"(median of {WARM_RERUNS}, {io.scans} directory "
                 "scan(s) each)")
    save_result("BENCH_placement_search", "\n".join(lines))
