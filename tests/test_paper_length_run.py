"""A paper-methodology-length run: stability over five virtual minutes.

The paper's runs last five minutes of wall clock (§3.2).  This test
replays that length in virtual time (a few seconds of wall time) and
checks the system reaches and holds a steady state: no drift in FPS
between the first and second half, books balanced at the end, and
memory bounded — i.e. nothing leaks or degrades over a long run.
"""

import numpy as np
import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs

DURATION_S = 300.0  # the paper's five minutes


@pytest.fixture(scope="module")
def long_scatter():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=DURATION_S))


@pytest.fixture(scope="module")
def long_scatterpp():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=DURATION_S,
        scatterpp=True))


def halves_fps(result):
    half = DURATION_S / 2.0
    first, second = [], []
    for client in result.clients:
        first.append(sum(1 for t in client.received.values()
                         if t <= half) / half)
        second.append(sum(1 for t in client.received.values()
                          if t > half) / half)
    return float(np.mean(first)), float(np.mean(second))


def test_scatter_steady_state(long_scatter):
    first, second = halves_fps(long_scatter)
    assert first > 5.0
    # No systematic drift over five minutes.
    assert second == pytest.approx(first, rel=0.15)


def test_scatterpp_steady_state(long_scatterpp):
    first, second = halves_fps(long_scatterpp)
    assert first > 25.0
    assert second == pytest.approx(first, rel=0.10)


def test_no_memory_creep(long_scatter):
    """sift's state memory stays bounded: entries keep expiring."""
    sift = long_scatter.pipeline.instances("sift")[0]
    # Bounded by (TTL x max arrival rate) worth of entries.
    assert len(sift.state) < 200
    capacity = sift.container.machine.memory.capacity_bytes
    assert sift.container.machine.memory.in_use_bytes < 0.2 * capacity


def test_monitor_sampled_full_run(long_scatter):
    samples = long_scatter.monitor.samples
    assert len(samples) >= DURATION_S - 2
    # Sampling cadence held throughout.
    gaps = np.diff([s.timestamp_s for s in samples])
    assert np.allclose(gaps, 1.0)


def test_long_run_books_balance(long_scatterpp):
    for service_instances in (
            long_scatterpp.pipeline.instances(s)
            for s in ("primary", "sift", "encoding", "lsh",
                      "matching")):
        for instance in service_instances:
            stats = instance.sidecar.stats
            accounted = (stats.dispatched + stats.dropped_stale
                         + instance.sidecar.depth)
            assert 0 <= stats.enqueued - accounted <= 1
