"""Extension — model optimization shifts, not solves, the saturation.

§5's closing argument: substituting SIFT with a faster feature
extractor "helps improve inference speed ... but without a
horizontally scalable design the application will incur the same
issues discussed in §4 but delayed to a higher number of clients".

This bench runs both pipelines with the standard SIFT service time
(12.5 ms) and with a FAST+BRIEF-calibrated service time (4 ms — the
real extractors live in ``repro.vision.fast_features`` and are an
order of magnitude cheaper per frame), and locates the saturation
knee: the client count where FPS first falls 20% below real-time.

Results land in the committed repo-root
``BENCH_extension_fast_model.json``: per model and pipeline, the knee
and the FPS at 1 to ``MAX_CLIENTS`` clients.
"""

from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import uniform_config
from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

from benchmarks.conftest import save_bench_json

DURATION_S = 20.0
REALTIME_FLOOR_FPS = 20.0
MAX_CLIENTS = 10

#: Binary features accelerate the whole tail of the pipeline: BRIEF
#: descriptors are cheap to extract, cheaper to PCA/encode, and match
#: under Hamming distance; matching's fetch timeout is an application
#: constant tuned to the (now ≈3x faster) service speed.
FAST_SERVICE_KWARGS = {
    "sift": {"base_time_s": 0.0040},
    "encoding": {"base_time_s": 0.0025},
    "lsh": {"base_time_s": 0.0015},
    "matching": {"base_time_s": 0.0030},
}
FAST_FETCH_TIMEOUT_S = 0.015


def saturation_knee(fps_by_clients):
    """First client count whose FPS drops below the real-time floor."""
    for clients in sorted(fps_by_clients):
        if fps_by_clients[clients] < REALTIME_FLOOR_FPS:
            return clients
    return MAX_CLIENTS + 1


def run_grid():
    config = uniform_config("E2", "e2")
    variants = {}
    for model in ("sift", "fast"):
        if model == "fast":
            scatter_kwargs = {
                service: dict(times)
                for service, times in FAST_SERVICE_KWARGS.items()
            }
            scatter_kwargs["matching"]["fetch_timeout_s"] = \
                FAST_FETCH_TIMEOUT_S
            pp_kwargs = FAST_SERVICE_KWARGS
        else:
            scatter_kwargs = None
            pp_kwargs = None
        scatter = {}
        scatterpp = {}
        for clients in range(1, MAX_CLIENTS + 1):
            scatter[clients] = run_experiment(ExperimentSpec(
                config, num_clients=clients, duration_s=DURATION_S,
                pipeline_kwargs={"service_kwargs": scatter_kwargs}
                if scatter_kwargs else None)).mean_fps()
            kwargs = scatterpp_pipeline_kwargs(
                service_kwargs=pp_kwargs)
            scatterpp[clients] = run_experiment(ExperimentSpec(
                config, num_clients=clients, duration_s=DURATION_S,
                pipeline_kwargs=kwargs)).mean_fps()
        variants[model] = {"scatter": scatter, "scatterpp": scatterpp}
    return variants


def test_extension_fast_model(benchmark, save_result):
    variants = benchmark.pedantic(run_grid, rounds=1, iterations=1)

    save_bench_json("extension_fast_model", {"rows": [
        {"model": model, "pipeline": pipeline,
         "knee": saturation_knee(series),
         "fps": [series[n] for n in range(1, MAX_CLIENTS + 1)]}
        for model, pipelines in variants.items()
        for pipeline, series in pipelines.items()]})
    rows = []
    for model, pipelines in variants.items():
        for pipeline, series in pipelines.items():
            rows.append([model, pipeline, saturation_knee(series)]
                        + [series[n] for n in (1, 2, 4, 6, 8, 10)])
    save_result("extension_fast_model", format_table(
        ["model", "pipeline", "knee"] + [f"fps@{n}"
                                         for n in (1, 2, 4, 6, 8, 10)],
        rows))

    knees = {(model, pipeline): saturation_knee(series)
             for model, pipelines in variants.items()
             for pipeline, series in pipelines.items()}
    # The faster model shifts the knee to more clients...
    assert knees[("fast", "scatter")] > knees[("sift", "scatter")]
    assert knees[("fast", "scatterpp")] >= knees[("sift", "scatterpp")]
    # ...but scAtteR still saturates: the fast model alone does not
    # carry it to the 10-client mark (the paper's point).
    assert knees[("fast", "scatter")] <= MAX_CLIENTS
    # The horizontal design dominates: scAtteR++ with the *slow* model
    # is at least as scalable as scAtteR with the fast one.
    assert knees[("sift", "scatterpp")] >= knees[("fast", "scatter")] - 1
