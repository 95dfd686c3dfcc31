"""Resilience sweep — fault intensity vs QoS under self-healing.

Sweeps the number of injected instance crashes {0, 1, 2, 4} over a
fixed-length single-client scAtteR run with the full resilience stack
on (heartbeat failure detection + redeploy, client retry + circuit
breaker + local fast-feature fallback) and reports how availability,
success rate, MTTR and degradation move with intensity.

Shapes asserted: the fault-free control needs no redeploys; every
crash is detected by heartbeats and repaired within a few detector
windows; availability stays above the raw pipeline success rate
because degraded (locally tracked) frames fill part of each outage.

Results land in the committed repo-root ``BENCH_resilience.json``.
Set ``RESILIENCE_SMOKE=1`` to run a single short intensity (CI); the
file then carries ``"smoke": true``.
"""

import os

import numpy as np

from repro.chaos import FaultPlan
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs

from benchmarks.conftest import save_bench_json

DURATION_S = 40.0
SMOKE = os.environ.get("RESILIENCE_SMOKE") == "1"
CRASH_COUNTS = [0, 1] if SMOKE else [0, 1, 2, 4]
#: Services worth crashing (every pipeline stage).
CRASH_SERVICES = ("primary", "sift", "encoding", "lsh", "matching")


def _run_intensity(crashes: int, duration_s: float) -> dict:
    rng = np.random.default_rng(1000 + crashes)
    plan = (FaultPlan() if crashes == 0 else FaultPlan.random_crashes(
        services=CRASH_SERVICES, count=crashes,
        start_s=5.0, end_s=duration_s - 10.0, rng=rng))
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C2"], num_clients=1, plan=plan,
        duration_s=duration_s, seed=7))
    report = result.resilience
    return {
        "crashes": crashes,
        "availability": report.availability(),
        "success_rate": report.success_rate(),
        "degraded_rate": report.degraded_rate(),
        "mttr_s": report.mean_mttr_s(),
        "detect_s": report.mean_detection_latency_s(),
        "redeploys": report.redeploy_count,
        "breaker_trips": report.breaker_trips,
        "unrecovered": report.unrecovered_faults(),
    }


def _sweep(duration_s: float) -> list:
    return [_run_intensity(c, duration_s) for c in CRASH_COUNTS]


def test_resilience_sweep(benchmark, save_result):
    duration_s = 20.0 if SMOKE else DURATION_S
    rows = benchmark.pedantic(lambda: _sweep(duration_s),
                              rounds=1, iterations=1)
    save_bench_json("resilience", {"smoke": SMOKE, "rows": rows})

    table = format_table(
        ["crashes", "avail", "success", "degraded", "MTTR(s)",
         "detect(s)", "redeploys", "trips"],
        [[r["crashes"], r["availability"], r["success_rate"],
          r["degraded_rate"], r["mttr_s"], r["detect_s"],
          r["redeploys"], r["breaker_trips"]] for r in rows])
    save_result("resilience_sweep", table)

    by_crashes = {r["crashes"]: r for r in rows}
    control = by_crashes[0]
    # No faults -> nothing to redeploy, nothing unrecovered.
    assert control["redeploys"] == 0
    assert control["mttr_s"] == 0.0
    for row in rows:
        # Degradation keeps availability at or above raw success.
        assert row["availability"] >= row["success_rate"]
        assert row["unrecovered"] == 0
        if row["crashes"] > 0:
            # Heartbeats found every crash and the orchestrator healed
            # it within a few detector windows.
            assert row["redeploys"] >= row["crashes"]
            assert 0.0 < row["mttr_s"] <= 5.0
            assert 0.0 < row["detect_s"] <= row["mttr_s"]
    # The edge is saturated at one client already; self-healing keeps
    # availability from collapsing with intensity.
    worst = by_crashes[max(CRASH_COUNTS)]
    assert worst["availability"] >= 0.5 * control["availability"]
