"""Tests for the QoE estimator and the workload generators."""

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
from repro.scatter.workloads import (
    BurstyClient,
    PoissonArrivalClient,
    arrival_cv,
)
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
# Workload generators
# ----------------------------------------------------------------------
def run_workload(client_class, duration_s=20.0, **kwargs):
    sim = Simulator()
    rng = RngRegistry(0)
    testbed = build_paper_testbed(sim, rng, num_clients=1)
    orchestrator = Orchestrator(testbed)
    ScatterPipeline(testbed, orchestrator,
                    baseline_configs()["C1"]).deploy()
    orchestrator.start()
    client = client_class(client_id=0, node="nuc0",
                          network=testbed.network,
                          registry=orchestrator.registry,
                          rng=rng.stream("client.0"), **kwargs)
    client.start(duration_s)
    sim.run(until=duration_s + DRAIN_S)
    return client


def test_poisson_client_mean_rate():
    client = run_workload(PoissonArrivalClient, duration_s=30.0)
    rate = client.stats.frames_sent / 30.0
    assert rate == pytest.approx(30.0, rel=0.15)


def test_poisson_client_is_memoryless_cv_near_one():
    client = run_workload(PoissonArrivalClient, duration_s=30.0)
    assert arrival_cv(client.stats) == pytest.approx(1.0, abs=0.2)


def test_periodic_client_cv_near_zero():
    client = run_workload(ArClient, duration_s=20.0)
    assert arrival_cv(client.stats) < 0.1


def test_bursty_client_rate_and_cv():
    client = run_workload(BurstyClient, duration_s=30.0,
                          burst_fps=60.0, duty_cycle=0.5,
                          burst_length_s=1.0)
    rate = client.stats.frames_sent / 30.0
    assert rate == pytest.approx(30.0, rel=0.2)
    # On/off arrivals are burstier than Poisson.
    assert arrival_cv(client.stats) > 1.0


def test_bursty_validation():
    sim = Simulator()
    testbed = build_paper_testbed(sim, RngRegistry(0), num_clients=1)
    orchestrator = Orchestrator(testbed)
    common = dict(client_id=0, node="nuc0", network=testbed.network,
                  registry=orchestrator.registry)
    with pytest.raises(ValueError):
        BurstyClient(burst_fps=0.0, **common)
    with pytest.raises(ValueError):
        BurstyClient(duty_cycle=0.0, **common)
    with pytest.raises(ValueError):
        BurstyClient(burst_length_s=0.0, **common)


def test_poisson_arrivals_hurt_noqueue_pipeline():
    """Memoryless arrivals collide more often with busy services than
    the periodic replay — measurably worse success at the same rate."""
    periodic = run_workload(ArClient, duration_s=30.0)
    poisson = run_workload(PoissonArrivalClient, duration_s=30.0)
    assert poisson.stats.success_rate() < \
        periodic.stats.success_rate()
