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

Results land in the committed repo-root ``BENCH_placement_search.json``.

``OPTIMIZE_SMOKE=1`` shrinks the ladder/duration/budget for CI and
keeps every gate but the headline one.  Its capacity gate (searched
>= best static) cannot fail: every static is in the archive the front
is ranked from, so it checks only that ranking keeps them.
"""

from __future__ import annotations

import json
import os

from repro.experiments.cache import CampaignCellCache
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
                  "cache_hit_rate": hit_rate},
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
    save_result("BENCH_placement_search", "\n".join(lines))
