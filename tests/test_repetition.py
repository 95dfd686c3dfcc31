"""Tests for seed replication and confidence intervals."""

import pytest

from repro.experiments.repetition import (
    ReplicatedMetric,
    replicate,
    replicate_experiment,
    significantly_better,
)
from repro.experiments.runner import ExperimentSpec
from repro.scatter.config import baseline_configs


def test_replicated_metric_statistics():
    metric = ReplicatedMetric("fps", (10.0, 12.0, 14.0))
    assert metric.mean == pytest.approx(12.0)
    assert metric.std == pytest.approx(2.0)
    assert metric.ci95_halfwidth > 0
    low, high = metric.interval
    assert low < 12.0 < high


def test_single_value_has_zero_interval():
    metric = ReplicatedMetric("fps", (10.0,))
    assert metric.std == 0.0
    assert metric.ci95_halfwidth == 0.0
    assert metric.interval == (10.0, 10.0)


def test_identical_values_zero_spread():
    metric = ReplicatedMetric("fps", (5.0, 5.0, 5.0))
    assert metric.std == 0.0
    assert metric.ci95_halfwidth == 0.0


def test_significantly_better_logic():
    high = ReplicatedMetric("fps", (20.0, 21.0, 22.0))
    low = ReplicatedMetric("fps", (10.0, 11.0, 12.0))
    touching = ReplicatedMetric("fps", (18.0, 21.0, 24.0))
    assert significantly_better(high, low)
    assert not significantly_better(low, high)
    assert not significantly_better(touching, high)


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate(lambda seed: {}, seeds=())


def test_replicate_runs_all_seeds():
    seen = []

    def fake_run(seed):
        seen.append(seed)
        return {"fps": 10.0 + seed, "success_rate": 0.5,
                "e2e_ms": 40.0, "jitter_ms": 2.0, "qoe_mos": 3.0}

    metrics = replicate(fake_run, seeds=(1, 2, 3))
    assert seen == [1, 2, 3]
    assert metrics["fps"].values == (11.0, 12.0, 13.0)
    assert set(metrics) == {"fps", "success_rate", "e2e_ms",
                            "jitter_ms", "qoe_mos"}


def test_replicate_experiment_end_to_end():
    metrics = replicate_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=2, duration_s=6.0),
        seeds=(0, 1, 2))
    fps = metrics["fps"]
    assert len(fps.values) == 3
    assert fps.mean > 0
    # Different seeds produce different (but nearby) outcomes.
    assert fps.std > 0
    assert fps.ci95_halfwidth < fps.mean


def test_scatterpp_significantly_beats_scatter():
    """The headline claim survives seed variation."""
    seeds = (0, 1, 2)
    scatter = replicate_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=8.0),
        seeds=seeds)
    scatterpp = replicate_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=8.0,
        scatterpp=True), seeds=seeds)
    assert significantly_better(scatterpp["fps"], scatter["fps"])
