#!/usr/bin/env python3
"""Replica-scaling study: which services are worth replicating?

Reproduces the reasoning of the paper's §4 "Service Scalability" and
§5 interactively: deploys scAtteR and scAtteR++ under several replica
vectors (in pipeline order [primary, sift, encoding, lsh, matching]),
sweeps the client count, and prints where each configuration's
capacity runs out — including the state-tie-in effect that caps what
replication buys the *stateful* pipeline.

Run:  python examples/scaling_study.py
"""

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import scaling_config, uniform_config

REPLICA_VECTORS = (
    [1, 1, 1, 1, 1],
    [2, 2, 1, 1, 1],   # replicate the ingress (paper: hurts!)
    [1, 2, 1, 1, 2],   # replicate the bottleneck pair
    [1, 2, 2, 1, 2],   # the paper's best scAtteR configuration
    [1, 3, 2, 1, 3],   # scAtteR++'s scaled deployment (Fig. 7)
)

CLIENTS = (1, 2, 4, 6, 8)


def main() -> None:
    for pipeline, scatterpp in (("scAtteR", False), ("scAtteR++", True)):
        rows = []
        for vector in REPLICA_VECTORS:
            if vector == [1, 1, 1, 1, 1]:
                config = uniform_config("baseline-E2", "e2")
            else:
                config = scaling_config(vector)
            fps_by_clients = []
            for clients in CLIENTS:
                result = run_experiment(ExperimentSpec(
                    config, num_clients=clients, duration_s=20.0, seed=0,
                    scatterpp=scatterpp))
                fps_by_clients.append(result.mean_fps())
            rows.append([config.name] + fps_by_clients)
        print(f"\n=== {pipeline}: mean per-client FPS ===")
        print(format_table(
            ["replicas"] + [f"{n} client(s)" for n in CLIENTS], rows))

    print(
        "\nReading the tables:\n"
        " * scAtteR gains little from replication — fetches are tied\n"
        "   to the sift replica holding the frame's state, and\n"
        "   replicating the ingress only floods the single-instance\n"
        "   tail of the pipeline (insight III).\n"
        " * scAtteR++ converts the same replicas into real capacity:\n"
        "   the stateless sift lets round-robin balancing spread load\n"
        "   and the [1,3,2,1,3] deployment carries roughly twice the\n"
        "   clients at the same framerate (paper: 2.8x, Fig. 7).")


if __name__ == "__main__":
    main()
