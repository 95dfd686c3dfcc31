"""Figure 7 — scAtteR++ framerate with scaled services, 1-10 clients.

Regenerates the per-client FPS of the three scaled deployments
[1,2,2,1,2], [1,2,1,1,2] and [1,3,2,1,3] as client load grows to ten.

Paper shapes asserted: framerate declines monotonically (modulo noise)
with load; the [1,3,2,1,3] deployment sustains mid-range load best;
at eight clients it still delivers a framerate comparable to what
scAtteR produced with four (the ≈2.8× capacity claim).
"""

from repro.experiments.figures import fig7_scaling_clients
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import scaling_config

DURATION_S = 20.0


def test_fig7_scaling_clients(benchmark, save_result):
    rows = benchmark.pedantic(
        lambda: fig7_scaling_clients(duration_s=DURATION_S),
        rounds=1, iterations=1)

    table = format_table(
        ["config", "clients", "FPS"],
        [[row["config"], row["clients"], row["fps"]] for row in rows])
    save_result("fig7_scaling_clients", table)

    by_config = {}
    for row in rows:
        by_config.setdefault(row["config"], {})[row["clients"]] = \
            row["fps"]

    for config, series in by_config.items():
        # Light load is served at full rate; heavy load degrades.
        assert series[1] >= 28.0, config
        assert series[10] < series[1], config
    # [1,3,2,1,3] dominates the other deployments mid-range (§5).
    for clients in (4, 5, 6):
        assert by_config["[1, 3, 2, 1, 3]"][clients] >= \
            by_config["[1, 2, 1, 1, 2]"][clients] - 0.5, clients

    # ≈2.8x capacity: eight clients on the scaled scAtteR++ deployment
    # see a framerate comparable to scAtteR with four clients.
    scatter4 = run_experiment(ExperimentSpec(
        scaling_config([1, 3, 2, 1, 3]), num_clients=4,
        duration_s=DURATION_S)).mean_fps()
    pp8 = by_config["[1, 3, 2, 1, 3]"][8]
    assert pp8 >= scatter4 * 0.8
