"""Tests for seed replication and confidence intervals.

A campaign's ``seeds`` are the replication path: ``run_campaign`` runs
every cell once per seed and aggregates the per-seed summaries into
:class:`ReplicatedMetric`\\ s.
"""

import pytest

from repro.experiments import campaign as campaign_mod
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.repetition import (
    ReplicatedMetric,
    aggregate_summaries,
)


def replicated_cell(pipeline, clients, duration_s, *, seeds=(0, 1, 2)):
    """The replicated metrics of one C1 cell across ``seeds``."""
    report = run_campaign(Campaign(
        name="replication", pipelines=(pipeline,), placements=("C1",),
        client_counts=(clients,), duration_s=duration_s, seeds=seeds))
    assert not report.failures
    return report.cells[(pipeline, "C1", clients)]


def test_replicated_metric_statistics():
    metric = ReplicatedMetric("fps", (10.0, 12.0, 14.0))
    assert metric.mean == pytest.approx(12.0)
    assert metric.std == pytest.approx(2.0)
    assert metric.ci95_halfwidth > 0


def test_single_value_has_zero_interval():
    metric = ReplicatedMetric("fps", (10.0,))
    assert metric.mean == 10.0
    assert metric.std == 0.0
    assert metric.ci95_halfwidth == 0.0


def test_identical_values_zero_spread():
    metric = ReplicatedMetric("fps", (5.0, 5.0, 5.0))
    assert metric.std == 0.0
    assert metric.ci95_halfwidth == 0.0


def test_replicate_validation():
    with pytest.raises(ValueError):
        aggregate_summaries([])
    with pytest.raises(ValueError):
        Campaign(name="replication", seeds=())


def test_replicate_runs_all_seeds(monkeypatch):
    seen = []

    def fake_runner(placement, *, num_clients, duration_s, seed):
        seen.append(seed)
        return {"fps": 10.0 + seed, "success_rate": 0.5,
                "e2e_ms": 40.0, "jitter_ms": 2.0, "qoe_mos": 3.0}

    monkeypatch.setitem(campaign_mod.RUNNERS, "scatter", fake_runner)
    metrics = replicated_cell("scatter", 1, 1.0, seeds=(1, 2, 3))
    assert seen == [1, 2, 3]
    assert metrics["fps"].values == (11.0, 12.0, 13.0)
    assert set(metrics) == {"fps", "success_rate", "e2e_ms",
                            "jitter_ms", "qoe_mos"}


def test_campaign_seeds_vary_fps_end_to_end():
    fps = replicated_cell("scatter", 2, 6.0)["fps"]
    assert len(fps.values) == 3
    assert fps.mean > 0
    # Different seeds produce different (but nearby) outcomes.
    assert fps.std > 0
    assert fps.ci95_halfwidth < fps.mean


def test_scatterpp_significantly_beats_scatter():
    """The headline claim survives seed variation: scAtteR++'s 95%
    interval sits wholly above scAtteR's."""
    scatter = replicated_cell("scatter", 4, 8.0)["fps"]
    scatterpp = replicated_cell("scatterpp", 4, 8.0)["fps"]
    assert (scatterpp.mean - scatterpp.ci95_halfwidth
            > scatter.mean + scatter.ci95_halfwidth)
