#!/usr/bin/env python3
"""Quickstart: deploy scAtteR and scAtteR++ and compare their QoS.

Builds the paper's edge testbed (E1, E2, client NUCs), deploys the
five-service pipeline in the C12 placement ([E1, E1, E2, E2, E2]),
replays the 30 FPS client video against it with 1-4 concurrent
clients, and prints frame rate / latency / success — first for
scAtteR, then for the redesigned scAtteR++.

Run:  python examples/quickstart.py
"""

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.reporting import format_table
from repro.scatter.config import baseline_configs


def main() -> None:
    placement = baseline_configs()["C12"]
    print(f"Placement {placement.name}: "
          f"{ {s: m for s, m in placement.placements.items()} }\n")

    rows = []
    for pipeline, scatterpp in (("scAtteR", False), ("scAtteR++", True)):
        for clients in (1, 2, 4):
            result = run_experiment(ExperimentSpec(
                placement, num_clients=clients, duration_s=30.0, seed=0,
                scatterpp=scatterpp))
            rows.append([pipeline, clients,
                         result.mean_fps(),
                         result.success_rate(),
                         result.mean_e2e_ms(),
                         result.mean_jitter_ms()])

    print(format_table(
        ["pipeline", "clients", "FPS", "success", "E2E(ms)",
         "jitter(ms)"], rows))

    scatter4 = rows[2][2]
    pp4 = rows[5][2]
    print(f"\nscAtteR++ at 4 clients delivers "
          f"{pp4 / scatter4:.1f}x the framerate of scAtteR — the "
          f"stateless redesign plus queue sidecars at work (paper §5).")


if __name__ == "__main__":
    main()
