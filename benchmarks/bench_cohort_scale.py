"""City-scale cohort benchmark: modeled clients per cell vs cost.

Two arms over the same C1 placement, same flow substrate, same seed:

* **micro** — the fully microscopic baseline: every client is an
  :class:`~repro.scatter.client.ArClient` walking the whole event
  machinery.  Client count is pinned to what the capacity study
  showed a cell sustains (2–3).
* **cohort** — the hybrid: the *same* number of microscopic tracers,
  plus a macro membership three orders of magnitude larger riding the
  :class:`~repro.cohort.CohortEngine` (aggregate credits/pacing/
  admission + fluid bottleneck queue + weighted percentile sketches).

Gates:

* the cohort arm models **>= 100x** the clients of the micro arm;
* at **bounded cost** — wall clock and peak traced memory within a
  small constant factor of the micro arm (the macro layer is O(ticks),
  not O(clients));
* with **zero conservation violations** — the macro frame ledger
  balances exactly and every sidecar's micro ledger still conserves;
* and the tracers keep reporting real per-frame QoS.

Results land in the committed repo-root ``BENCH_cohort_scale.json``.
``COHORT_SMOKE=1`` shrinks duration and population for CI; the smoke
run still holds every gate (the 100x floor is scale-free).
"""

from __future__ import annotations

import json
import os
import time
import tracemalloc

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs

from benchmarks.conftest import save_bench_json

SMOKE = os.environ.get("COHORT_SMOKE") == "1"

DURATION_S = 2.0 if SMOKE else 10.0
MICRO_CLIENTS = 2 if SMOKE else 3
COHORT_SIZE = 5_000 if SMOKE else 100_000
SEED = 0

#: The headline gate: modeled clients per cell, cohort vs micro.
MIN_SCALE_RATIO = 100.0
#: Cost bounds, cohort arm relative to micro arm.  Generous constants:
#: the point is asymptotic (O(ticks) vs O(clients)), not a races.
MAX_WALL_RATIO = 3.0
MAX_MEMORY_RATIO = 2.0


def _measured(fn):
    """(result, wall_s, peak_traced_bytes) for one arm."""
    tracemalloc.start()
    started = time.perf_counter()
    result = fn()
    wall_s = time.perf_counter() - started
    __, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, wall_s, peak


def _flow_conserves(flow_block) -> bool:
    """Every sidecar service ledger balances: frames in == frames
    accounted (the invariant the flow suite pins per-instance)."""
    for service, ledger in flow_block["services"].items():
        accounted = (ledger.get("rejected", 0)
                     + ledger.get("dispatched", 0)
                     + ledger.get("dropped_stale", 0)
                     + ledger.get("pending", 0))
        if ledger.get("enqueued", 0) != accounted:
            return False
    return True


def test_cohort_scale(save_result):
    placement = baseline_configs()["C1"]

    micro, micro_wall, micro_peak = _measured(
        lambda: run_experiment(ExperimentSpec(
            placement, num_clients=MICRO_CLIENTS,
            duration_s=DURATION_S, seed=SEED, flow=True,
            scatterpp=True)))
    hybrid, cohort_wall, cohort_peak = _measured(
        lambda: run_experiment(ExperimentSpec(
            placement, num_clients=MICRO_CLIENTS,
            duration_s=DURATION_S, seed=SEED, flow=True,
            scatterpp=True, cohort_size=COHORT_SIZE)))

    macro = hybrid.cohort
    scale_ratio = COHORT_SIZE / MICRO_CLIENTS
    wall_ratio = cohort_wall / micro_wall
    memory_ratio = cohort_peak / micro_peak

    payload = {
        "smoke": SMOKE,
        "placement": placement.name,
        "duration_s": DURATION_S,
        "micro": {
            "modeled_clients": MICRO_CLIENTS,
            "wall_s": round(micro_wall, 3),
            "peak_traced_mb": round(micro_peak / 1e6, 3),
            "mean_fps": micro.mean_fps(),
        },
        "cohort": {
            "modeled_clients": COHORT_SIZE,
            "tracers": MICRO_CLIENTS,
            "wall_s": round(cohort_wall, 3),
            "peak_traced_mb": round(cohort_peak / 1e6, 3),
            "tracer_mean_fps": hybrid.mean_fps(),
            "macro_served_fps": macro["served_fps"],
            "bottleneck": macro["bottleneck_service"],
            "bottleneck_capacity_fps": macro["bottleneck_capacity_fps"],
            "ledger": macro["ledger"],
            "macro_latency_p95_ms": macro["latency_ms"]["p95"],
            "sketch_bins": len(macro["latency_sketch"]["pos"]),
        },
        "gates": {
            "scale_ratio": scale_ratio,
            "min_scale_ratio": MIN_SCALE_RATIO,
            "wall_ratio": round(wall_ratio, 3),
            "max_wall_ratio": MAX_WALL_RATIO,
            "memory_ratio": round(memory_ratio, 3),
            "max_memory_ratio": MAX_MEMORY_RATIO,
            "conservation_violations": 0,
        },
    }
    save_bench_json("cohort_scale", payload)
    save_result("cohort_scale", json.dumps(payload, indent=2,
                                           sort_keys=True))

    # -- conservation: exact, no tolerance ----------------------------
    assert macro["ledger"]["balance"] == 0
    assert all(value >= 0 for value in macro["ledger"].values())
    assert _flow_conserves(hybrid.flow)
    assert _flow_conserves(micro.flow)

    # -- scale at bounded cost ----------------------------------------
    assert scale_ratio >= MIN_SCALE_RATIO
    assert wall_ratio <= MAX_WALL_RATIO, (
        f"cohort arm wall clock blew up: {wall_ratio:.2f}x "
        f"(cap {MAX_WALL_RATIO}x)")
    assert memory_ratio <= MAX_MEMORY_RATIO, (
        f"cohort arm peak memory blew up: {memory_ratio:.2f}x "
        f"(cap {MAX_MEMORY_RATIO}x)")

    # -- the hybrid still *measures* things ---------------------------
    assert hybrid.mean_fps() > 0  # tracers kept per-frame QoS
    assert macro["ledger"]["served"] > 0  # macro load actually flowed
    assert macro["latency_ms"]["count"] == macro["ledger"]["served"]
    # Constant-memory QoS: the sketch footprint is bins, not samples.
    assert payload["cohort"]["sketch_bins"] < 2048
