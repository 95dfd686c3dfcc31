"""Extension — reliable inter-service transport for the hybrid split.

Appendix A.1.2 closes with: "Note that improved network protocols
[...] instead of UDP may help alleviate this, which we plan to explore
in future extensions."  This bench explores it: the hybrid
[E1, C, C, C, C] deployment re-run with ARQ (retransmitting) transport
on every inter-service hop, against plain-UDP hybrid and the
cloud-only reference.

Expected: reliability converts the E1→cloud transit's frame losses
into retransmission latency — FPS and success recover toward (or past)
cloud-only, at the cost of higher and more variable E2E latency.
"""

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import (
    PIPELINE_ORDER,
    cloud_config,
    hybrid_config,
)

DURATION_S = 30.0


def run_grid():
    reliable_kwargs = {
        "service_kwargs": {service: {"reliable_transport": True}
                           for service in PIPELINE_ORDER}
    }
    rows = []
    for name, config, pipeline_kwargs in (
            ("cloud-only (UDP)", cloud_config(), None),
            ("hybrid (UDP)", hybrid_config(), None),
            ("hybrid (ARQ)", hybrid_config(), reliable_kwargs)):
        for clients in (1, 2):
            result = run_experiment(ExperimentSpec(
                config, num_clients=clients, duration_s=DURATION_S,
                pipeline_kwargs=pipeline_kwargs))
            rows.append({"variant": name, "clients": clients,
                         "fps": result.mean_fps(),
                         "success": result.success_rate(),
                         "e2e_ms": result.mean_e2e_ms()})
    return rows


def test_extension_transport(benchmark, save_result):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    save_result("extension_transport", format_table(
        ["variant", "clients", "FPS", "success", "E2E(ms)"],
        [[row["variant"], row["clients"], row["fps"], row["success"],
          row["e2e_ms"]] for row in rows]))

    by_key = {(row["variant"], row["clients"]): row for row in rows}
    # Plain-UDP hybrid loses to cloud-only at light load (Fig. 11).
    assert by_key[("hybrid (UDP)", 1)]["fps"] < \
        by_key[("cloud-only (UDP)", 1)]["fps"]
    # ARQ recovers the hybrid split substantially...
    assert by_key[("hybrid (ARQ)", 1)]["fps"] > \
        by_key[("hybrid (UDP)", 1)]["fps"] * 1.3
    assert by_key[("hybrid (ARQ)", 1)]["success"] > \
        by_key[("hybrid (UDP)", 1)]["success"] + 0.10
    # ...paying for it in latency (retransmissions are not free).
    assert by_key[("hybrid (ARQ)", 1)]["e2e_ms"] >= \
        by_key[("hybrid (UDP)", 1)]["e2e_ms"]
