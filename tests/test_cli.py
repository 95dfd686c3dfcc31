"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.cli import FIGURES, _placement, build_parser, main


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["run", "--config", "C1", "--clients",
                              "2", "--duration", "5"])
    assert args.command == "run"
    assert args.clients == 2


def test_figures_command_lists_all(capsys):
    assert main(["figures"]) == 0
    out = capsys.readouterr().out
    for name in FIGURES:
        assert name in out


def test_figures_registry_covers_evaluation():
    expected = {"fig2", "fig3", "fig4", "fig6", "fig7", "fig8",
                "fig9", "fig10", "fig11", "fig12", "headline"}
    assert set(FIGURES) == expected


def test_run_command_scatter(capsys):
    code = main(["run", "--config", "C1", "--clients", "1",
                 "--duration", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean FPS" in out
    assert "sift" in out


def test_run_command_scatterpp_with_trace(capsys):
    code = main(["run", "--config", "C2", "--pipeline", "scatterpp",
                 "--clients", "1", "--duration", "3", "--trace"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace component" in out
    assert "network" in out


def test_run_command_scatterpp_with_flow(capsys):
    code = main(["run", "--config", "C1", "--pipeline", "scatterpp",
                 "--clients", "2", "--duration", "3", "--flow"])
    assert code == 0
    out = capsys.readouterr().out
    assert "enqueued" in out and "rejected" in out
    assert "client frames paced:" in out and "batched:" in out


def test_run_command_flow_needs_scatterpp():
    with pytest.raises(SystemExit, match="--flow requires --pipeline "
                                         "scatterpp"):
        main(["run", "--duration", "1", "--flow"])


def test_run_command_replica_vector(capsys):
    code = main(["run", "--config", "1,2,1,1,2", "--clients", "1",
                 "--duration", "2"])
    assert code == 0
    assert "[1, 2, 1, 1, 2]" in capsys.readouterr().out


def test_figure_command(capsys):
    code = main(["figure", "fig4", "--duration", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cloud" in out
    assert "FPS" in out


def test_figure_command_unknown(capsys):
    assert main(["figure", "fig99"]) == 2


def test_testbed_command(capsys):
    assert main(["testbed"]) == 0
    out = capsys.readouterr().out
    assert "e1" in out and "e2" in out and "cloud" in out
    assert "15.00" in out  # client <-> cloud RTT


def test_config_flag_errors():
    with pytest.raises(SystemExit):
        _placement("nonsense")


def test_config_flag_variants():
    assert _placement("C21").name == "C21"
    assert _placement("cloud").name == "cloud"
    assert _placement("hybrid").name == "hybrid"
    assert _placement("[1, 3, 2, 1, 3]").replica_vector() == \
        [1, 3, 2, 1, 3]


@pytest.mark.parametrize("name", ["fig8", "fig12"])
def test_ramp_figures_receive_seed_and_stage(monkeypatch, name):
    calls = []
    description = FIGURES[name][2]
    monkeypatch.setitem(cli.FIGURES, name, (
        lambda **kwargs: calls.append(kwargs), lambda report: None,
        description))
    assert main(["figure", name, "--seed", "3", "--duration", "2"]) == 0
    assert calls == [{"seed": 3, "stage_s": 2.0}]


@pytest.mark.parametrize("flags", [["--tracers", "2"],
                                   ["--cohort-load", "poisson"]])
def test_cohort_flags_require_cohort_size(flags):
    with pytest.raises(SystemExit):
        main(["run", "--pipeline", "scatterpp", "--duration", "1"]
             + flags)


def test_mobility_command(capsys):
    assert main(["mobility", "--clients", "1", "--duration", "3"]) == 0
    out = capsys.readouterr().out
    assert "mean FPS" in out
    assert "handover metric" in out


def test_optimize_command(capsys):
    assert main(["optimize", "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "pred FPS" in out
    assert "best by throughput" in out


def test_optimize_latency_objective(capsys):
    assert main(["optimize", "--objective", "latency"]) == 0
    assert "best by latency" in capsys.readouterr().out
