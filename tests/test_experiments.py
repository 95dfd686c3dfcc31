"""Tests for the experiment harness and figure reproductions.

Durations are kept short — these verify mechanics and directional
shapes; the benchmarks regenerate the figures at full length.
"""

import pytest

from repro.experiments import figures
from repro.experiments.reporting import (
    analytics_table,
    format_table,
    qos_table,
    service_metric_table,
    utilization_table,
)
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs


@pytest.fixture(scope="module")
def fig2_rows():
    return figures.fig2_baseline_edge(clients=(1, 4), duration_s=8.0)


def test_fig2_rows_cover_grid(fig2_rows):
    configs = {row["config"] for row in fig2_rows}
    assert configs == {"C1", "C2", "C12", "C21"}
    assert len(fig2_rows) == 8


def test_fig2_single_client_realtime(fig2_rows):
    for row in fig2_rows:
        if row["clients"] == 1:
            assert row["fps"] >= 24.0, row
            assert 30.0 <= row["e2e_ms"] <= 60.0, row


def test_fig2_degradation_with_clients(fig2_rows):
    by_config = {}
    for row in fig2_rows:
        by_config.setdefault(row["config"], {})[row["clients"]] = row
    for config, rows in by_config.items():
        assert rows[4]["fps"] < rows[1]["fps"] * 0.5, config
        assert rows[4]["memory_gb"]["sift"] > \
            rows[1]["memory_gb"]["sift"], config


def test_fig3_scaling_ordering():
    rows = figures.fig3_scalability(clients=(2,), duration_s=10.0)
    fps = {row["config"]: row["fps"] for row in rows}
    # §4: [1,2,2,1,2] is the best-performing configuration at 2-3
    # clients; [2,2,1,1,1] trails the baseline.
    assert fps["[1, 2, 2, 1, 2]"] >= fps["baseline-E2"]
    assert fps["[2, 2, 1, 1, 1]"] <= fps["baseline-E2"] * 1.05


def test_fig4_cloud_below_edge():
    rows = figures.fig4_cloud(clients=(1,), duration_s=10.0)
    row = rows[0]
    # §4: 18.2 FPS median vs 25 FPS at the edge; reduced success.
    assert 12.0 <= row["median_fps"] <= 24.0
    assert row["success_rate"] < 0.80
    assert row["e2e_ms"] > 55.0


def test_fig6_scatterpp_improves_multi_client():
    pp = figures.fig6_scatterpp_edge(clients=(4,), duration_s=8.0)
    scatter = figures.fig2_baseline_edge(clients=(4,), duration_s=8.0)
    pp_fps = {row["config"]: row["fps"] for row in pp}
    sc_fps = {row["config"]: row["fps"] for row in scatter}
    for config in pp_fps:
        assert pp_fps[config] > sc_fps[config] * 1.8, config


def test_fig7_shapes():
    rows = figures.fig7_scaling_clients(clients=(2, 6),
                                        duration_s=8.0)
    assert len(rows) == 6
    by_config = {}
    for row in rows:
        by_config.setdefault(row["config"], {})[row["clients"]] = row
    for config, per_clients in by_config.items():
        assert per_clients[6]["fps"] <= per_clients[2]["fps"], config
    # The [1,3,2,1,3] deployment sustains mid-range load best.
    assert by_config["[1, 3, 2, 1, 3]"][6]["fps"] >= \
        by_config["[1, 2, 1, 1, 2]"][6]["fps"]


def test_fig9_structure():
    report = figures.fig9_network_conditions(clients=(1,),
                                             duration_s=8.0)
    assert len(report["loss"]) == len(figures.FIG9_LOSS_GRID)
    assert len(report["latency"]) == len(figures.FIG9_RTT_GRID_S)
    # A.1.1: latency shifts E2E but not the framerate.
    lat = {row["rtt_ms"]: row for row in report["latency"]}
    assert lat[40.0]["e2e_ms"] > lat[1.0]["e2e_ms"] + 25.0
    assert lat[40.0]["fps"] == pytest.approx(lat[1.0]["fps"], rel=0.15)


def test_fig10_panels():
    panels = figures.fig10_jitter(clients=(1,), duration_s=8.0)
    assert set(panels) == {"baseline", "scaling", "cloud"}
    for rows in panels.values():
        for row in rows:
            assert row["jitter_ms"] >= 0.0


def test_fig11_hybrid_worse_than_cloud():
    rows = figures.fig11_hybrid(clients=(1,), duration_s=10.0)
    fps = {row["config"]: row["fps"] for row in rows}
    assert fps["hybrid"] < fps["cloud"]


def test_fig12_report_structure():
    report = figures.fig12_sidecar_e1(max_clients=2, stage_s=4.0)
    assert set(report["services"]) == {"primary", "sift", "encoding",
                                       "lsh", "matching"}
    stages = report["services"]["primary"]
    assert [stage["clients"] for stage in stages] == [1, 2]
    assert stages[1]["ingress_fps"] > stages[0]["ingress_fps"]


# ----------------------------------------------------------------------
# Reporting helpers
# ----------------------------------------------------------------------
def test_format_table_alignment():
    table = format_table(["a", "long-header"],
                         [[1, 2.5], ["xx", 3.0]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines[1:])
    assert "2.50" in table


def test_qos_and_metric_tables_render(fig2_rows):
    assert "C12" in qos_table(fig2_rows)
    latency = service_metric_table(fig2_rows, "service_latency_ms",
                                   "lat")
    assert "lat:sift" in latency
    assert "cpu%:e1" in utilization_table(fig2_rows)


def test_analytics_table_renders():
    report = figures.fig12_sidecar_e1(max_clients=2, stage_s=4.0)
    table = analytics_table(report)
    assert "ingress FPS" in table
    assert "sift" in table


# ----------------------------------------------------------------------
# Runner mechanics
# ----------------------------------------------------------------------
def test_runner_result_fields():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=5.0))
    assert result.num_clients == 2
    assert len(result.clients) == 2
    assert result.analytics is None
    assert len(result.per_client_fps()) == 2
    assert result.mean_e2e_ms() > 0


def test_capacity_probes_bracket_the_slo_frontier():
    """Short C1 probes under a small ceiling, flow off then on: probes
    come back in ascending client order, each verdict is the SLO's,
    the reported capacity passes and the next probed count fails (or
    is the ceiling), and flow-on probes carry balanced ledgers."""
    from repro.experiments.capacity import (CapacitySlo,
                                            run_capacity_comparison)

    ceiling = 4
    comparison = run_capacity_comparison(
        baseline_configs()["C1"], duration_s=2.0, max_clients=ceiling)
    slo = CapacitySlo()
    for arm, flow in (("off", False), ("on", True)):
        report = comparison[arm]
        assert report.flow_enabled is flow
        clients = [probe.clients for probe in report.probes]
        assert clients == sorted(set(clients))
        for probe in report.probes:
            assert probe.meets_slo == slo.met_by(probe.fps,
                                                 probe.p95_e2e_ms)
            assert (probe.flow is not None) is flow
            if flow:
                assert all(ledger["balance"] == 0 for ledger
                           in probe.flow["services"].values())
        verdicts = {probe.clients: probe.meets_slo
                    for probe in report.probes}
        assert report.max_clients >= 1 and verdicts[report.max_clients]
        above = [n for n in clients if n > report.max_clients]
        assert report.max_clients == ceiling or not verdicts[above[0]]
    assert comparison["gain"] == (comparison["on"].max_clients
                                  / comparison["off"].max_clients)


@pytest.mark.parametrize("fields", [
    dict(flow=True),                   # flow control needs sidecars
    dict(cohort_size=100),             # so does the cohort engine
    dict(scatterpp=True, pipeline_kwargs={}),
    dict(duration_s=2.0, stage_s=1.0, num_clients=3),  # joins too late
    dict(stage_s=0.0),
])
def test_spec_rejects_fields_it_would_ignore(fields):
    fields = dict(dict(num_clients=1), **fields)
    with pytest.raises(ValueError):
        ExperimentSpec(baseline_configs()["C1"], **fields)
