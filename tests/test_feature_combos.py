"""Smoke test for feature combinations: scAtteR++ at a non-default
staleness threshold with tracing on, through the convenience runner.
"""

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs


def test_scatterpp_tracing_flag_via_convenience_runner():
    result = run_experiment(ExperimentSpec(
        baseline_configs()["C2"], num_clients=2, duration_s=6.0,
        threshold_s=0.050, tracing=True, scatterpp=True))
    assert result.analytics is not None
    assert result.tracer is not None
    breakdown = result.tracer.mean_breakdown_ms()
    assert "queue" in breakdown
