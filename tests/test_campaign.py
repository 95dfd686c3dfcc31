"""Tests for the campaign runner."""

import json

import pytest

from repro.experiments.campaign import (
    Campaign,
    CampaignReport,
    render_report,
    resolve_placement,
    run_campaign,
)


def tiny_campaign(**overrides):
    defaults = dict(name="test", pipelines=("scatter",),
                    placements=("C1",), client_counts=(1,),
                    duration_s=4.0, seeds=(0,))
    defaults.update(overrides)
    return Campaign(**defaults)


def test_campaign_validation():
    with pytest.raises(ValueError):
        tiny_campaign(pipelines=("teleport",))
    with pytest.raises(ValueError):
        tiny_campaign(placements=())
    with pytest.raises(ValueError):
        tiny_campaign(placements=("C99",))
    with pytest.raises(ValueError):
        tiny_campaign(duration_s=0.0)
    with pytest.raises(ValueError):
        tiny_campaign(seeds=())


@pytest.mark.parametrize("axis,values", [
    ("pipelines", ("scatter", "scatter")),
    ("placements", ("C1", "C1")),
    ("client_counts", (1, 1)),
    ("client_counts", (0, 1)),
    ("seeds", (0, 0)),
])
def test_campaign_refuses_bad_axis_values(axis, values):
    """A repeated value would plan a task twice, and the runner's
    duplicate refusal would fail a cell that ran fine; a client count
    below 1 has no client to run."""
    with pytest.raises(ValueError, match=axis):
        tiny_campaign(**{axis: values})


def test_resolve_placement_variants():
    assert resolve_placement("C12").name == "C12"
    assert resolve_placement("cloud").name == "cloud"
    assert resolve_placement("1,2,1,1,2").replica_vector() == \
        [1, 2, 1, 1, 2]
    with pytest.raises(ValueError):
        resolve_placement("atlantis")


def test_cells_enumeration():
    campaign = tiny_campaign(pipelines=("scatter", "scatterpp"),
                             placements=("C1", "C2"),
                             client_counts=(1, 4))
    assert len(campaign.cells) == 8
    assert ("scatterpp", "C2", 4) in campaign.cells


def test_run_campaign_collects_metrics():
    campaign = tiny_campaign(pipelines=("scatter", "scatterpp"),
                             client_counts=(1, 2))
    lines = []
    report = run_campaign(campaign, progress=lines.append)
    assert len(report.cells) == 4
    assert len(lines) == 4
    fps = report.cells[("scatter", "C1", 1)]["fps"]
    assert fps.mean > 20.0
    # scAtteR++ at 2 clients beats scAtteR at 2 clients.
    assert report.cells[("scatterpp", "C1", 2)]["fps"].mean > \
        report.cells[("scatter", "C1", 2)]["fps"].mean


def test_run_campaign_persists_to_store(tmp_path):
    campaign = tiny_campaign()
    run_campaign(campaign, store_dir=str(tmp_path / "store"))
    path = tmp_path / "store" / "test__scatter__C1__1c.json"
    assert path.exists()
    stored = json.loads(path.read_text())
    assert stored["pipeline"] == "scatter"
    assert stored["clients"] == 1
    assert stored["fps"]["mean"] > 0


def test_render_report_format():
    campaign = tiny_campaign(seeds=(0, 1))
    report = run_campaign(campaign)
    text = render_report(report)
    assert "# Campaign: test" in text
    assert "## scatter" in text
    assert "±" in text  # replicated cells show confidence widths
    with pytest.raises(ValueError):
        render_report(report, metrics=("nonsense",))


def test_render_report_skips_missing_cells():
    campaign = tiny_campaign(placements=("C1", "C2"))
    report = CampaignReport(campaign=campaign)
    # Only one of the two cells is present.
    full = run_campaign(tiny_campaign())
    report.cells.update(full.cells)
    text = render_report(report)
    assert "C1" in text
