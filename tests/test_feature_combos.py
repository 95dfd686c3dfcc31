"""Smoke tests for feature combinations.

Individually-tested features must also compose: tracing + ARQ
transport + sidecars + the LIFO discipline in one deployment, without
bookkeeping violations.
"""

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import PIPELINE_ORDER, baseline_configs
from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs


def test_scatter_all_features_together():
    kwargs = {"service_kwargs": {
        name: {"reliable_transport": True} for name in PIPELINE_ORDER}}
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


def test_scatterpp_all_features_together():
    kwargs = scatterpp_pipeline_kwargs(discipline="lifo-fresh")
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=3, duration_s=8.0,
        pipeline_kwargs=kwargs, tracing=True))
    assert result.mean_fps() > 10.0
    # Sidecar queue books still balance under the LIFO discipline.
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
