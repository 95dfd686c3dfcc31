#!/usr/bin/env python3
"""Mobile access links: AR QoS over emulated LTE / 5G / WiFi-6.

Reproduces Appendix A.1.1's methodology: the pipeline runs on E2 and
``tc netem``-style impairments (delay, loss, 10 ms delay oscillation
with 20% probability for mobility) shape the client links.  Profiles
follow the measurement studies the paper cites: LTE 40 ms RTT / 0.08%
loss, 5G 10 ms / 0.001-0.01% loss, WiFi-6 5 ms.

Run:  python examples/mobile_connectivity.py
"""

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.net.netem import lte_profile, nr5g_profile, wifi6_profile
from repro.scatter.config import uniform_config

PROFILES = (
    ("ethernet", None),
    ("wifi6", wifi6_profile()),
    ("5g", nr5g_profile()),
    ("lte", lte_profile()),
)


def main() -> None:
    config = uniform_config("E2", "e2")
    rows = []
    for name, netem in PROFILES:
        for clients in (1, 2, 4):
            result = run_experiment(ExperimentSpec(
                config, num_clients=clients, duration_s=30.0, seed=0,
                client_netem=netem))
            rows.append([name, clients, result.mean_fps(),
                         result.success_rate(), result.mean_e2e_ms(),
                         result.mean_jitter_ms()])
    print(format_table(
        ["access", "clients", "FPS", "success", "E2E(ms)",
         "jitter(ms)"], rows))

    print(
        "\nWhat to look for (paper A.1.1):\n"
        " * Loss dents the frame success rate (one lost fragment of a\n"
        "   ~123-fragment frame loses the frame), but scAtteR has no\n"
        "   latency threshold, so stale frames still count — the\n"
        "   framerate stays consistent across RTTs while E2E latency\n"
        "   absorbs the access delay.\n"
        " * At higher client counts, a lossier link can look slightly\n"
        "   *better*: lost frames never reach the congested services.")


if __name__ == "__main__":
    main()
