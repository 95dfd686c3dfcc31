"""Ablation — decomposing scAtteR++'s gain.

scAtteR++ changes two things at once: sift's statelessness and the
queue sidecars.  This bench runs the 2×2 grid at four concurrent
clients to attribute the improvement (DESIGN.md §6): statelessness
removes the fetch dependency loop; sidecars remove busy-drops and ride
out service-time spikes — but, notably, sidecars *without*
statelessness amplify the loop, because queueing delays the state
fetch past matching's tolerance.

Results land in the committed repo-root
``BENCH_ablation_components.json``.
"""

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs

from benchmarks.conftest import save_bench_json

DURATION_S = 30.0

VARIANTS = (
    ("scAtteR (neither)", False, False),
    ("stateless only", True, False),
    ("sidecars only", False, True),
    ("scAtteR++ (both)", True, True),
)


def run_grid():
    config = baseline_configs()["C1"]
    rows = []
    for name, stateless, sidecars in VARIANTS:
        result = run_experiment(ExperimentSpec(
            config, num_clients=4, duration_s=DURATION_S,
            stateless_sift=stateless, with_sidecars=sidecars, scatterpp=True))
        rows.append({"variant": name, "fps": result.mean_fps(),
                     "success": result.success_rate(),
                     "e2e_ms": result.mean_e2e_ms()})
    return rows


def test_ablation_components(benchmark, save_result):
    rows = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    save_bench_json("ablation_components", {"rows": rows})
    save_result("ablation_components", format_table(
        ["variant", "FPS", "success", "E2E(ms)"],
        [[row["variant"], row["fps"], row["success"], row["e2e_ms"]]
         for row in rows]))

    fps = {row["variant"]: row["fps"] for row in rows}
    # Statelessness alone already improves on scAtteR.
    assert fps["stateless only"] > fps["scAtteR (neither)"]
    # Sidecars alone make the *stateful* pipeline worse: queueing
    # delays matching's state fetches past its tolerance, so the
    # dependency loop is amplified rather than hidden (insight III —
    # backpressure mitigation cannot fix a dependency loop).
    assert fps["sidecars only"] < fps["scAtteR (neither)"]
    # The combination is the best configuration: statelessness removes
    # the loop, after which the sidecar's buffering pays off.
    assert fps["scAtteR++ (both)"] >= fps["stateless only"]
    assert fps["scAtteR++ (both)"] >= fps["sidecars only"]
