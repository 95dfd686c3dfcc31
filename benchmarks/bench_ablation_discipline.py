"""Ablation — sidecar queue discipline under overload.

The paper's sidecar serves "outstanding frames in filtered FIFO
order".  FIFO is fair, but for a real-time stream an alternative is
*freshest-first* (LIFO): always serve the newest queued frame and let
older ones age out.  Under overload both shed the same volume — the
difference is *which* frames survive: FIFO serves frames that already
aged toward the threshold, LIFO serves young ones.

Expected: comparable FPS (the bottleneck rate is unchanged) but
markedly lower E2E latency for the frames LIFO does deliver — a better
fit for the XR latency budget and a genuine design alternative for
scAtteR++.
"""

import pytest

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs
from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

DURATION_S = 30.0
CLIENTS = 4


def run_grid():
    rows = []
    for discipline in ("fifo", "lifo-fresh"):
        kwargs = scatterpp_pipeline_kwargs(discipline=discipline)
        result = run_experiment(ExperimentSpec(
            baseline_configs()["C1"], num_clients=CLIENTS,
            duration_s=DURATION_S, pipeline_kwargs=kwargs))
        rows.append({"discipline": discipline,
                     "fps": result.mean_fps(),
                     "e2e_ms": result.mean_e2e_ms(),
                     "median_e2e_ms": result.median_e2e_ms(),
                     "success": result.success_rate(),
                     "jitter_ms": result.mean_jitter_ms()})
    return rows


def test_ablation_discipline(benchmark, save_result):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    save_result("ablation_discipline", format_table(
        ["discipline", "FPS", "E2E(ms)", "median E2E(ms)", "success",
         "jitter(ms)"],
        [[row["discipline"], row["fps"], row["e2e_ms"],
          row["median_e2e_ms"], row["success"], row["jitter_ms"]]
         for row in rows]))

    by_discipline = {row["discipline"]: row for row in rows}
    fifo = by_discipline["fifo"]
    lifo = by_discipline["lifo-fresh"]
    # Throughput is bottleneck-bound either way.
    assert lifo["fps"] == pytest.approx(fifo["fps"], rel=0.25)
    # Freshest-first slashes the delivered frames' latency.
    assert lifo["e2e_ms"] < fifo["e2e_ms"] * 0.6
