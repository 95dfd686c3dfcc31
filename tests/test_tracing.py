"""Tests for per-frame distributed tracing."""

import dataclasses

import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.metrics.tracing import Tracer
from repro.scatter.config import PIPELINE_ORDER, baseline_configs


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------
def test_span_recording_and_breakdown():
    tracer = Tracer()
    key = (0, 1)
    tracer.ensure(key, 0.0)
    tracer.record_span(key, 0.0, name="primary", kind="service",
                       instance="e1:1", start_s=0.001, end_s=0.005)
    tracer.record_span(key, 0.0, name="sift", kind="service",
                       instance="e1:2", start_s=0.006, end_s=0.018)
    tracer.record_delivery(key, 0.0, 0.040)

    trace = tracer.trace(key)
    assert trace.completed
    assert trace.e2e_s == pytest.approx(0.040)
    assert trace.total_s("service") == pytest.approx(0.016)
    assert trace.network_s == pytest.approx(0.024)
    breakdown = tracer.mean_breakdown_ms()
    assert breakdown["primary"] == pytest.approx(4.0)
    assert breakdown["sift"] == pytest.approx(12.0)
    assert breakdown["network"] == pytest.approx(24.0)


def test_incomplete_trace_loss_attribution():
    tracer = Tracer()
    tracer.ensure((0, 0), 0.0)  # lost before any span
    tracer.record_span((0, 1), 0.0, name="primary", kind="service",
                       instance="e1:1", start_s=0.0, end_s=0.004)
    tracer.record_span((0, 2), 0.0, name="primary", kind="service",
                       instance="e1:1", start_s=0.0, end_s=0.004)
    tracer.record_span((0, 2), 0.0, name="sift", kind="service",
                       instance="e1:2", start_s=0.005, end_s=0.017)
    losses = tracer.loss_by_stage()
    assert losses == {"(ingress)": 1, "primary": 1, "sift": 1}


def test_invalid_span_rejected():
    tracer = Tracer()
    with pytest.raises(ValueError):
        tracer.record_span((0, 0), 0.0, name="x", kind="service",
                           instance="i", start_s=1.0, end_s=0.5)


def test_ordered_spans():
    tracer = Tracer()
    tracer.record_span((0, 0), 0.0, name="b", kind="service",
                       instance="i", start_s=0.5, end_s=0.6)
    tracer.record_span((0, 0), 0.0, name="a", kind="service",
                       instance="i", start_s=0.1, end_s=0.2)
    names = [s.name for s in tracer.trace((0, 0)).ordered_spans()]
    assert names == ["a", "b"]


# ----------------------------------------------------------------------
# End-to-end integration
# ----------------------------------------------------------------------
def test_scatter_traces_cover_pipeline():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=5.0, tracing=True))
    tracer = result.tracer
    assert tracer is not None
    completed = tracer.completed_traces()
    assert completed
    trace = completed[0]
    stages = [span.name for span in trace.ordered_spans()
              if span.kind == "service"]
    # The frame visits every stage in pipeline order, and sift appears
    # twice: feature extraction plus matching's state fetch (the 2x
    # request load of §4, visible right in the trace).
    first_occurrence = list(dict.fromkeys(stages))
    assert first_occurrence == PIPELINE_ORDER
    assert stages.count("sift") == 2
    # The breakdown accounts most of the E2E latency to services.
    breakdown = tracer.mean_breakdown_ms()
    assert breakdown["sift"] > breakdown["lsh"]
    assert breakdown["network"] >= 0.0


def test_scatter_loss_attribution_under_load():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=5.0, tracing=True))
    losses = result.tracer.loss_by_stage()
    # The dependency loop loses most frames at sift (ingress drops)
    # and lsh (the stage before matching's busy-wait drops).
    assert sum(losses.values()) > 0
    assert losses.get("sift", 0) + losses.get("lsh", 0) > 0


def test_scatterpp_traces_include_queue_spans():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=5.0, tracing=True,
        scatterpp=True))
    tracer = result.tracer
    completed = tracer.completed_traces()
    assert completed
    kinds = {span.kind for trace in completed for span in trace.spans}
    assert "queue" in kinds
    breakdown = tracer.mean_breakdown_ms()
    assert breakdown["queue"] >= 0.0
    # Every completed frame passed all five services.
    for trace in completed[:10]:
        services = {span.name for span in trace.spans
                    if span.kind == "service"}
        assert services == set(PIPELINE_ORDER)


def test_replicas_deployed_mid_run_are_traced():
    """The sift replica the failure detector deploys after a crash
    records spans like the ones alive at start: every delivered frame
    carries a service span for all five stages, and tracing still
    leaves the trajectory alone."""
    from repro.chaos.faults import FaultPlan, InstanceCrash

    spec = ExperimentSpec(
        baseline_configs()["C2"], num_clients=1, duration_s=6.0, seed=0,
        scatterpp=True, tracing=True,
        plan=FaultPlan(faults=[InstanceCrash(at_s=0.5, service="sift")]))
    traced = run_experiment(spec)
    assert traced.pipeline.orchestrator.redeploy_count >= 1
    completed = traced.tracer.completed_traces()
    assert len(completed) >= 50
    for trace in completed:
        services = {span.name for span in trace.spans
                    if span.kind == "service"}
        assert services == set(PIPELINE_ORDER), trace.key
    plain = run_experiment(dataclasses.replace(spec, tracing=False))
    assert traced.trace_digest == plain.trace_digest


def test_tracing_off_by_default():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=2.0))
    assert result.tracer is None
