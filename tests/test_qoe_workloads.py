"""Tests for the QoE estimator and the replay client's arrivals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.testbed import build_paper_testbed
from repro.experiments.runner import DRAIN_S, ExperimentSpec, run_experiment
from repro.metrics.qoe import estimate_qoe
from repro.orchestra.orchestrator import Orchestrator
from repro.scatter.client import ArClient
from repro.scatter.config import baseline_configs
from repro.scatter.pipeline import ScatterPipeline
from repro.sim import RngRegistry, Simulator


# ----------------------------------------------------------------------
# QoE estimator
# ----------------------------------------------------------------------
def test_qoe_perfect_conditions_near_five():
    estimate = estimate_qoe(fps=30.0, e2e_ms=40.0, success_rate=1.0,
                            jitter_ms=0.0)
    assert estimate.mos > 4.5
    assert estimate.latency_factor == 1.0


def test_qoe_terrible_conditions_near_one():
    estimate = estimate_qoe(fps=1.0, e2e_ms=500.0, success_rate=0.05,
                            jitter_ms=100.0)
    assert estimate.mos < 1.3


def test_qoe_latency_budget_is_free():
    inside = estimate_qoe(fps=30, e2e_ms=99.0, success_rate=1.0,
                          jitter_ms=0.0)
    at_edge = estimate_qoe(fps=30, e2e_ms=100.0, success_rate=1.0,
                           jitter_ms=0.0)
    beyond = estimate_qoe(fps=30, e2e_ms=200.0, success_rate=1.0,
                          jitter_ms=0.0)
    assert inside.mos == at_edge.mos
    assert beyond.mos < at_edge.mos


def test_qoe_validation():
    with pytest.raises(ValueError):
        estimate_qoe(fps=-1, e2e_ms=0, success_rate=1, jitter_ms=0)
    with pytest.raises(ValueError):
        estimate_qoe(fps=1, e2e_ms=0, success_rate=1.5, jitter_ms=0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0, max_value=60),
       st.floats(min_value=0, max_value=1000),
       st.floats(min_value=0, max_value=1),
       st.floats(min_value=0, max_value=200))
def test_qoe_bounds_property(fps, e2e, success, jitter):
    estimate = estimate_qoe(fps=fps, e2e_ms=e2e, success_rate=success,
                            jitter_ms=jitter)
    assert 1.0 <= estimate.mos <= 5.0
    for factor in (estimate.framerate_factor, estimate.latency_factor,
                   estimate.stability_factor, estimate.jitter_factor):
        assert 0.0 <= factor <= 1.0


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0, max_value=29),
       st.floats(min_value=0.5, max_value=20))
def test_qoe_monotone_in_fps(fps, delta):
    low = estimate_qoe(fps=fps, e2e_ms=50, success_rate=0.9,
                       jitter_ms=5)
    high = estimate_qoe(fps=fps + delta, e2e_ms=50, success_rate=0.9,
                        jitter_ms=5)
    assert high.mos >= low.mos


def test_qoe_ranks_scatterpp_above_scatter():
    scatter = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0))
    scatterpp = run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=10.0,
        scatterpp=True))
    assert scatterpp.qoe().mos > scatter.qoe().mos


# ----------------------------------------------------------------------
# Replay client arrivals
# ----------------------------------------------------------------------
def test_periodic_client_cv_near_zero():
    """The replay client sends on a fixed period: the coefficient of
    variation of its inter-send gaps is near zero."""
    duration_s = 20.0
    sim = Simulator()
    rng = RngRegistry(0)
    testbed = build_paper_testbed(sim, rng, num_clients=1)
    orchestrator = Orchestrator(testbed)
    ScatterPipeline(testbed, orchestrator,
                    baseline_configs()["C1"]).deploy()
    orchestrator.start()
    client = ArClient(client_id=0, node="nuc0", network=testbed.network,
                      registry=orchestrator.registry,
                      rng=rng.stream("client.0"))
    client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)
    gaps = np.diff(sorted(client.stats.sent.values()))
    assert len(gaps) > 2
    assert gaps.std() / gaps.mean() < 0.1
