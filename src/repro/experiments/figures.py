"""Per-figure reproduction entry points.

Each ``figN_*`` function regenerates the data behind one figure of the
paper's evaluation and returns a list of plain dict rows (one per
plotted point/bar) so benchmarks and tests can assert on shapes and
print tables.  ``duration_s`` trades fidelity for speed; the paper's
five-minute runs correspond to ``duration_s=300``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    run_experiment,
)
from repro.net.netem import Netem, mobility_oscillation
from repro.scatter import config as scatter_config
from repro.scatter.config import (
    PlacementConfig,
    baseline_configs,
    cloud_config,
    hybrid_config,
    scaling_config,
    uniform_config,
)

DEFAULT_CLIENTS = (1, 2, 3, 4)


def _qos_row(result: ExperimentResult) -> Dict:
    """The common per-run row: QoS + hardware aggregates."""
    return {
        "config": result.config_name,
        "clients": result.num_clients,
        "fps": result.mean_fps(),
        "success_rate": result.success_rate(),
        "e2e_ms": result.mean_e2e_ms(),
        "jitter_ms": result.mean_jitter_ms(),
        "service_latency_ms": result.service_latency_ms(),
        "memory_gb": result.service_memory_gb(),
        "cpu_util": result.machine_cpu_util(),
        "gpu_util": result.machine_gpu_util(),
        "drops": result.drop_counts(),
    }


# ----------------------------------------------------------------------
# Figure 2 — baseline application performance on the edge
# ----------------------------------------------------------------------
def fig2_baseline_edge(*, clients: Sequence[int] = DEFAULT_CLIENTS,
                       duration_s: float = 60.0,
                       seed: int = 0) -> List[Dict]:
    """scAtteR QoS + utilization for C1/C2/C12/C21 × client counts."""
    rows = []
    for config in baseline_configs().values():
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s, seed=seed))
            rows.append(_qos_row(result))
    return rows


# ----------------------------------------------------------------------
# Figure 3 — impact of service scalability (scAtteR)
# ----------------------------------------------------------------------
FIG3_REPLICA_VECTORS = ([2, 2, 1, 1, 1], [1, 2, 1, 1, 2],
                        [1, 2, 2, 1, 2])


def fig3_scalability(*, clients: Sequence[int] = DEFAULT_CLIENTS,
                     duration_s: float = 60.0,
                     seed: int = 0,
                     include_baseline: bool = True) -> List[Dict]:
    """Replica-vector configurations vs the single-instance baseline."""
    configs: List[PlacementConfig] = []
    if include_baseline:
        configs.append(uniform_config("baseline-E2", "e2"))
    configs.extend(scaling_config(vector)
                   for vector in FIG3_REPLICA_VECTORS)
    rows = []
    for config in configs:
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s, seed=seed))
            rows.append(_qos_row(result))
    return rows


# ----------------------------------------------------------------------
# Figure 4 — cloud-only deployment
# ----------------------------------------------------------------------
def fig4_cloud(*, clients: Sequence[int] = DEFAULT_CLIENTS,
               duration_s: float = 60.0, seed: int = 0) -> List[Dict]:
    rows = []
    for n in clients:
        result = run_experiment(ExperimentSpec(
            cloud_config(), num_clients=n, duration_s=duration_s,
            seed=seed))
        row = _qos_row(result)
        # The paper reports the cloud median FPS (18.2).
        per_second = [fps for client in result.clients
                      for fps in client.fps_series()]
        row["median_fps"] = float(np.median(per_second)) if per_second else 0.0
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Figure 6 — scAtteR++ baseline on the edge
# ----------------------------------------------------------------------
def fig6_scatterpp_edge(*, clients: Sequence[int] = DEFAULT_CLIENTS,
                        duration_s: float = 60.0,
                        seed: int = 0) -> List[Dict]:
    rows = []
    for config in baseline_configs().values():
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s, seed=seed,
                scatterpp=True))
            rows.append(_qos_row(result))
    return rows


# ----------------------------------------------------------------------
# Figure 7 — scAtteR++ FPS with scaled services and 1–10 clients
# ----------------------------------------------------------------------
FIG7_REPLICA_VECTORS = ([1, 2, 2, 1, 2], [1, 2, 1, 1, 2],
                        [1, 3, 2, 1, 3])


def fig7_scaling_clients(*, clients: Sequence[int] = tuple(range(1, 11)),
                         duration_s: float = 20.0,
                         seed: int = 0) -> List[Dict]:
    rows = []
    for vector in FIG7_REPLICA_VECTORS:
        config = scaling_config(vector)
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s, seed=seed,
                scatterpp=True))
            rows.append({
                "config": config.name,
                "clients": n,
                "fps": result.mean_fps(),
                "per_client_fps": result.per_client_fps(),
            })
    return rows


# ----------------------------------------------------------------------
# Figure 8 — sidecar analytics under a staged client ramp (scaled)
# ----------------------------------------------------------------------
def fig8_sidecar_analytics(*, max_clients: int = 10,
                           stage_s: float = 10.0,
                           seed: int = 0) -> Dict:
    """Per-service ingress FPS and queue-drop ratio, clients 1→10.

    Uses the paper's scaled deployment ([1, 3, 2, 1, 3]); returns the
    analytics series plus per-stage summaries.
    """
    config = scaling_config([1, 3, 2, 1, 3])
    result = run_experiment(ExperimentSpec(
        config, max_clients, duration_s=stage_s * max_clients, seed=seed,
        scatterpp=True, stage_s=stage_s))
    return _analytics_report(result, stage_s)


# ----------------------------------------------------------------------
# Figure 12 — sidecar analytics, everything on E1 (appendix A.2)
# ----------------------------------------------------------------------
def fig12_sidecar_e1(*, max_clients: int = 4, stage_s: float = 10.0,
                     seed: int = 0) -> Dict:
    config = uniform_config("E1-only", "e1")
    result = run_experiment(ExperimentSpec(
        config, max_clients, duration_s=stage_s * max_clients, seed=seed,
        scatterpp=True, stage_s=stage_s))
    return _analytics_report(result, stage_s)


def _analytics_report(result: ExperimentResult,
                      stage_s: float) -> Dict:
    analytics = result.analytics
    report = {"config": result.config_name,
              "duration_s": result.duration_s,
              "stage_s": stage_s,
              "services": {}}
    for service in scatter_config.PIPELINE_ORDER:
        ingress = analytics.series(service, "ingress_fps")
        drops = analytics.series(service, "drop_ratio")
        per_stage = []
        stages = int(round(result.duration_s / stage_s))
        for stage in range(stages):
            start = stage * stage_s
            end = start + stage_s
            stage_ingress = [v for t, v in ingress if start < t <= end]
            stage_drops = [v for t, v in drops if start < t <= end]
            per_stage.append({
                "clients": stage + 1,
                "ingress_fps": (float(np.mean(stage_ingress))
                                if stage_ingress else 0.0),
                "drop_ratio": (float(np.mean(stage_drops))
                               if stage_drops else 0.0),
            })
        report["services"][service] = per_stage
    return report


# ----------------------------------------------------------------------
# Figure 9 — mobile connectivity (appendix A.1.1)
# ----------------------------------------------------------------------
FIG9_LOSS_GRID = (1e-7, 1e-4, 8e-4)       # "0.00001%", "0.01%", "0.08%"
FIG9_RTT_GRID_S = (0.001, 0.005, 0.010, 0.040)


def fig9_network_conditions(*, clients: Sequence[int] = DEFAULT_CLIENTS,
                            duration_s: float = 30.0,
                            seed: int = 0) -> Dict[str, List[Dict]]:
    """tc-netem loss (a) and latency (b) sweeps on the client links.

    Methodology per A.1.1: pipeline on E2, 10 ms delay oscillation with
    20% probability for mobility; loss runs use 1 ms delay, latency
    runs use the minimal loss setting.
    """
    config = uniform_config("E2", "e2")
    loss_rows = []
    for loss in FIG9_LOSS_GRID:
        netem = Netem(delay_s=0.0005, loss=loss,
                      **mobility_oscillation())
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s,
                seed=seed, client_netem=netem))
            loss_rows.append({"loss": loss, "clients": n,
                              "fps": result.mean_fps(),
                              "e2e_ms": result.mean_e2e_ms(),
                              "success_rate": result.success_rate()})
    latency_rows = []
    for rtt_s in FIG9_RTT_GRID_S:
        netem = Netem(delay_s=rtt_s / 2.0, loss=FIG9_LOSS_GRID[0],
                      **mobility_oscillation())
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s,
                seed=seed, client_netem=netem))
            latency_rows.append({"rtt_ms": rtt_s * 1000.0, "clients": n,
                                 "fps": result.mean_fps(),
                                 "e2e_ms": result.mean_e2e_ms(),
                                 "success_rate": result.success_rate()})
    return {"loss": loss_rows, "latency": latency_rows}


# ----------------------------------------------------------------------
# Figure 10 — jitter for baseline / scalability / cloud
# ----------------------------------------------------------------------
def fig10_jitter(*, clients: Sequence[int] = DEFAULT_CLIENTS,
                 duration_s: float = 30.0, seed: int = 0) -> Dict:
    """Jitter panels: (a) baseline edge, (b) scalability, (c) cloud."""
    panels: Dict[str, List[Dict]] = {"baseline": [], "scaling": [],
                                     "cloud": []}
    for config in baseline_configs().values():
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s, seed=seed))
            panels["baseline"].append({
                "config": config.name, "clients": n,
                "jitter_ms": result.mean_jitter_ms()})
    for vector in FIG3_REPLICA_VECTORS:
        config = scaling_config(vector)
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s, seed=seed))
            panels["scaling"].append({
                "config": config.name, "clients": n,
                "jitter_ms": result.mean_jitter_ms()})
    for n in clients:
        result = run_experiment(ExperimentSpec(
            cloud_config(), num_clients=n, duration_s=duration_s,
            seed=seed))
        panels["cloud"].append({"config": "cloud", "clients": n,
                                "jitter_ms": result.mean_jitter_ms()})
    return panels


# ----------------------------------------------------------------------
# Figure 11 — hybrid edge-cloud deployment (appendix A.1.2)
# ----------------------------------------------------------------------
def fig11_hybrid(*, clients: Sequence[int] = DEFAULT_CLIENTS,
                 duration_s: float = 30.0, seed: int = 0) -> List[Dict]:
    """[E1, C, C, C, C] vs the cloud-only reference."""
    rows = []
    for config in (hybrid_config(), cloud_config()):
        for n in clients:
            result = run_experiment(ExperimentSpec(
                config, num_clients=n, duration_s=duration_s, seed=seed))
            rows.append(_qos_row(result))
    return rows


# ----------------------------------------------------------------------
# Headline numbers (§1/§5): capacity and framerate multipliers
# ----------------------------------------------------------------------
def headline_capacity(*, duration_s: float = 30.0,
                      seed: int = 0) -> Dict:
    """The paper's headline claims, measured.

    * framerate multiplier: scAtteR++ vs scAtteR on the same edge
      config at four concurrent clients.
    * capacity multiplier: clients supportable at ≥ the framerate
      scAtteR delivers with 4 clients, using the scaled [1,3,2,1,3]
      scAtteR++ deployment.
    """
    config = baseline_configs()["C12"]
    scatter4 = run_experiment(ExperimentSpec(
        config, num_clients=4, duration_s=duration_s, seed=seed))
    pp4 = run_experiment(ExperimentSpec(
        config, num_clients=4, duration_s=duration_s, seed=seed,
        scatterpp=True))
    framerate_multiplier = (pp4.mean_fps() / scatter4.mean_fps()
                            if scatter4.mean_fps() else float("inf"))

    reference_fps = scatter4.mean_fps()
    scaled = scaling_config([1, 3, 2, 1, 3])
    capacity = 0
    capacity_fps = {}
    for n in range(1, 13):
        result = run_experiment(ExperimentSpec(
            scaled, num_clients=n, duration_s=duration_s, seed=seed,
            scatterpp=True))
        capacity_fps[n] = result.mean_fps()
        if result.mean_fps() >= reference_fps:
            capacity = n
    capacity_multiplier = capacity / 4.0 if capacity else 0.0
    return {
        "scatter_fps_4_clients": scatter4.mean_fps(),
        "scatterpp_fps_4_clients": pp4.mean_fps(),
        "framerate_multiplier": framerate_multiplier,
        "scatter_success_1_client": run_experiment(ExperimentSpec(
            config, num_clients=1, duration_s=duration_s,
            seed=seed)).success_rate(),
        "scatterpp_success_1_client": run_experiment(ExperimentSpec(
            config, num_clients=1, duration_s=duration_s,
            seed=seed, scatterpp=True)).success_rate(),
        "capacity_clients": capacity,
        "capacity_multiplier": capacity_multiplier,
        "capacity_fps_by_clients": capacity_fps,
    }
