"""Smoke tests for feature combinations.

Individually-tested features must also compose: tracing + ARQ
transport + content model + sidecars + autoscaler in one deployment,
without bookkeeping violations.
"""

import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import PIPELINE_ORDER, baseline_configs
from repro.scatter.content import ContentCostModel
from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs
from repro.vision.video import SyntheticVideo


@pytest.fixture(scope="module")
def cost_model():
    return ContentCostModel.from_video(SyntheticVideo(seed=0),
                                       sample_stride=50)


def test_scatter_all_features_together(cost_model):
    kwargs = {"service_kwargs": {
        name: {"cost_model": cost_model, "reliable_transport": True}
        for name in PIPELINE_ORDER}}
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C12"], num_clients=2, duration_s=8.0,
        pipeline_kwargs=kwargs, tracing=True))
    assert result.mean_fps() > 10.0
    assert result.tracer is not None
    assert result.tracer.completed_traces()
    # ARQ transport: inter-service legs never lose frames, so every
    # incomplete trace died at a service, not on the wire past primary.
    for trace in result.tracer.completed_traces()[:5]:
        services = [s.name for s in trace.ordered_spans()
                    if s.kind == "service"]
        assert services[0] == "primary"


def test_scatterpp_all_features_together(cost_model):
    kwargs = scatterpp_pipeline_kwargs(
        discipline="lifo-fresh",
        service_kwargs={name: {"cost_model": cost_model}
                        for name in PIPELINE_ORDER})
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=3, duration_s=8.0,
        pipeline_kwargs=kwargs, tracing=True))
    assert result.mean_fps() > 10.0
    # Sidecar queue books still balance with the LIFO discipline and
    # the content model in play.
    for service in PIPELINE_ORDER:
        for instance in result.pipeline.instances(service):
            stats = instance.sidecar.stats
            accounted = (stats.dispatched + stats.dropped_stale
                         + instance.sidecar.depth)
            assert 0 <= stats.enqueued - accounted <= 1


def test_scatterpp_tracing_flag_via_convenience_runner():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C2"], num_clients=2, duration_s=6.0,
        threshold_s=0.050, tracing=True, scatterpp=True))
    assert result.analytics is not None
    assert result.tracer is not None
    breakdown = result.tracer.mean_breakdown_ms()
    assert "queue" in breakdown


def test_determinism_holds_with_features(cost_model):
    kwargs = {"service_kwargs": {
        name: {"cost_model": cost_model} for name in PIPELINE_ORDER}}

    def run():
        return run_experiment(ExperimentSpec(
            baseline_configs()["C1"], num_clients=2, duration_s=5.0,
            seed=11, pipeline_kwargs=kwargs))

    first, second = run(), run()
    assert first.mean_fps() == second.mean_fps()
    assert first.mean_e2e_ms() == second.mean_e2e_ms()
