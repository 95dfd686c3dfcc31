"""Ablation — the sidecar staleness threshold (50 / 100 / 200 ms).

The paper fixes the threshold at 100 ms (the XR latency budget) but
never sweeps it.  This bench quantifies the trade-off the choice
embodies: a tight threshold sheds more queued frames (lower FPS,
lower latency), a loose one serves stale frames (higher FPS, latency
past the XR budget).

Results land in the committed repo-root
``BENCH_ablation_threshold.json``.
"""

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs

from benchmarks.conftest import save_bench_json

THRESHOLDS_S = (0.050, 0.100, 0.200)
DURATION_S = 30.0


def run_sweep():
    config = baseline_configs()["C1"]
    rows = []
    for threshold in THRESHOLDS_S:
        for clients in (2, 4):
            result = run_experiment(ExperimentSpec(
                config, num_clients=clients, duration_s=DURATION_S,
                threshold_s=threshold, scatterpp=True))
            rows.append({
                "threshold_ms": threshold * 1000.0,
                "clients": clients,
                "fps": result.mean_fps(),
                "e2e_ms": result.mean_e2e_ms(),
                "success": result.success_rate(),
            })
    return rows


def test_ablation_threshold(benchmark, save_result):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    save_bench_json("ablation_threshold", {"rows": rows})
    save_result("ablation_threshold", format_table(
        ["threshold(ms)", "clients", "FPS", "E2E(ms)", "success"],
        [[row["threshold_ms"], row["clients"], row["fps"],
          row["e2e_ms"], row["success"]] for row in rows]))

    by_key = {(row["threshold_ms"], row["clients"]): row
              for row in rows}
    # Under overload, a looser threshold converts latency into FPS.
    assert by_key[(200.0, 4)]["fps"] >= by_key[(50.0, 4)]["fps"]
    assert by_key[(200.0, 4)]["e2e_ms"] > by_key[(50.0, 4)]["e2e_ms"]
    # A tight threshold keeps served frames inside the XR budget.
    assert by_key[(50.0, 4)]["e2e_ms"] <= 160.0
