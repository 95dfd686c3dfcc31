"""Unit tests for the placement search stack.

Covers the genome grammar end to end (every paper static round-trips
through its ``opt:`` spec and back through the campaign layer's
``resolve_placement``; legacy ``@as=`` scaler-gene specs are rejected),
the oracle's neutrality (a genome cell replays the scatterpp-flow
trace bit-identically), and a tiny end-to-end budgeted search
producing a valid, JSON-serializable :class:`OptimizationReport` —
including the CLI entry point.
"""

import json

import pytest

from repro.experiments.campaign import Campaign, resolve_placement
from repro.orchestra.optimize import (CampaignOracle, Genome,
                                      OptimizeConfig, OptimizeError,
                                      SearchSpace, run_search)
from repro.scatter.config import (PIPELINE_ORDER, baseline_configs,
                                  cloud_config, hybrid_config,
                                  scaling_config)


def all_statics():
    configs = dict(baseline_configs())
    configs["cloud"] = cloud_config()
    configs["hybrid"] = hybrid_config()
    for vector in ([2, 2, 1, 1, 1], [1, 2, 1, 1, 2], [1, 2, 2, 1, 2]):
        key = "x".join(str(c) for c in vector)
        configs[key] = scaling_config(vector)
    return configs


# ----------------------------------------------------------------------
# Genome grammar
# ----------------------------------------------------------------------
def test_round_trip_every_static_placement():
    for name, placement in all_statics().items():
        genome = Genome.from_placement(placement)
        spec = genome.encode()
        assert Genome.decode(spec) == genome, name
        assert genome.to_placement().placements == {
            s: list(placement.placements[s]) for s in PIPELINE_ORDER}


def test_spec_grammar_is_comma_free():
    for placement in all_statics().values():
        spec = Genome.from_placement(placement).encode()
        assert "," not in spec


@pytest.mark.parametrize("bad", [
    "C1",                                     # not a genome spec
    "opt:primary=e1",                         # missing services
    "opt:sift=e1;primary=e1;encoding=e1;lsh=e1;matching=e1",  # order
    "opt:primary=;sift=e1;encoding=e1;lsh=e1;matching=e1",    # empty
    "opt:primary=e1;sift=e1;encoding=e1;lsh=e1;matching=e1@bogus",
    "opt:primary=e1;sift=e1;encoding=e1;lsh=e1;matching=e1"
    "@as=dropX+depth16+max3+e1",
    "opt:primary=e1;sift=e1;encoding=e1;lsh=e1;matching=e1"
    "@as=drop0.05+depth16+max3+e1",          # retired scaler genes
])
def test_decode_rejects_malformed_specs(bad):
    with pytest.raises(OptimizeError):
        Genome.decode(bad)


def test_genome_validates_shape_and_machine_names():
    with pytest.raises(OptimizeError):
        Genome(machines=(("e1",),) * 4)        # wrong service count
    with pytest.raises(OptimizeError):
        Genome(machines=((), ("e1",), ("e1",), ("e1",), ("e1",)))
    with pytest.raises(OptimizeError):
        Genome(machines=(("e;1",),) + (("e1",),) * 4)


# ----------------------------------------------------------------------
# Campaign-layer integration
# ----------------------------------------------------------------------
def test_resolve_placement_decodes_genome_specs():
    spec = Genome.from_placement(baseline_configs()["C2"]).encode()
    placement = resolve_placement(spec)
    assert placement.name == spec
    assert placement.placements == {
        s: list(r) for s, r in zip(
            PIPELINE_ORDER,
            Genome.decode(spec).machines)}


def test_campaign_accepts_genome_specs_and_fails_fast_on_bad():
    spec = Genome.from_placement(baseline_configs()["C1"]).encode()
    campaign = Campaign(name="t", pipelines=("optimize",),
                        placements=(spec,), client_counts=(1,),
                        duration_s=1.0)
    assert campaign.placements == (spec,)
    with pytest.raises(ValueError):
        Campaign(name="t", pipelines=("optimize",),
                 placements=("opt:bogus",), client_counts=(1,),
                 duration_s=1.0)


# ----------------------------------------------------------------------
# Search-space schedulability
# ----------------------------------------------------------------------
def test_schedulability_checks():
    space = SearchSpace(machines=("e1", "e2"))
    ok = Genome(machines=(("e1",), ("e2", "e1"), ("e1",),
                          ("e2",), ("e1",)))
    assert space.is_schedulable(ok)
    too_many = Genome(machines=(("e1",) * 4,) + (("e1",),) * 4)
    assert not space.is_schedulable(too_many)
    unknown = Genome(machines=(("cloud",),) + (("e1",),) * 4)
    assert not space.is_schedulable(unknown)


def test_schedulability_enforces_memory():
    # 4.9 GB fits the single-replica pipeline; doubling sift (1.5 GB)
    # overflows a 5 GB machine.
    space = SearchSpace(machines=("e1",), memory_gb={"e1": 5.0})
    assert space.is_schedulable(
        Genome(machines=tuple(("e1",) for __ in PIPELINE_ORDER)))
    doubled = Genome(machines=(("e1",), ("e1", "e1"), ("e1",),
                               ("e1",), ("e1",)))
    assert not space.is_schedulable(doubled)


# ----------------------------------------------------------------------
# Oracle neutrality
# ----------------------------------------------------------------------
def test_neutral_genome_replays_flow_trace():
    """A genome's oracle run is byte-identical to the plain
    scatterpp-flow experiment on the same placement."""
    from repro.experiments.campaign import (RUNNERS,
                                            run_optimize_experiment)

    c1 = baseline_configs()["C1"]
    neutral = Genome.from_placement(c1).to_placement()
    flow = RUNNERS["scatterpp-flow"](
        c1, num_clients=1, duration_s=2.0, seed=0)
    opt = run_optimize_experiment(
        neutral, num_clients=1, duration_s=2.0, seed=0)
    from repro.experiments.store import summarize_result

    assert opt.trace_digest == flow.trace_digest
    assert (summarize_result(opt)["fps"]
            == summarize_result(flow)["fps"])
    assert opt.energy is not None


def test_static_runners_accept_genome_placements():
    """The plain non-optimize runners keep working when handed a
    resolved genome placement (it is just a PlacementConfig)."""
    from repro.experiments.runner import ExperimentSpec, run_experiment
    from repro.experiments.store import summarize_result

    placement = resolve_placement(
        Genome.from_placement(baseline_configs()["C1"]).encode())
    result = run_experiment(ExperimentSpec(
        placement, num_clients=1, duration_s=1.0, seed=0,
        scatterpp=True))
    assert summarize_result(result)["fps"] > 0.0


# ----------------------------------------------------------------------
# End-to-end tiny search + CLI
# ----------------------------------------------------------------------
def test_tiny_budget_search_produces_valid_report():
    config = OptimizeConfig(seed=3, population=3, generations=1,
                            budget=4, ladder=(1,), duration_s=1.5,
                            machines=("e1",))
    report = run_search(config)
    assert report.front, "front must be non-empty"
    # One static plus two draws, then a later round spends the rest:
    # a sampler that stalls after round 0 stops at 3.
    assert report.evaluations == 4
    for entry in report.front:
        Genome.decode(entry["genome"])  # raises unless a genome spec
        obj = entry["objectives"]
        assert set(obj) == {"capacity", "p95_ms",
                            "joules_per_frame", "cost_units"}
    for call in report.oracle_calls:
        assert set(call) == {"genome", "clients", "seed",
                             "fingerprint"}
        assert len(call["fingerprint"]) == 32
    round_tripped = json.loads(json.dumps(report.as_dict()))
    assert round_tripped["front"] == report.front
    assert report.best() == report.front[0]
    assert len(report.front_digest()) == 32


def test_optimize_config_validation():
    with pytest.raises(OptimizeError):
        OptimizeConfig(population=1)
    with pytest.raises(OptimizeError):
        OptimizeConfig(generations=-1)
    with pytest.raises(OptimizeError):
        OptimizeConfig(budget=0)


@pytest.mark.parametrize("bad", [
    dict(ladder=()), dict(ladder=(2, 1)), dict(ladder=(0, 1)),
    dict(duration_s=0.0),
])
def test_oracle_refuses_grids_no_cell_can_run(bad):
    with pytest.raises(OptimizeError):
        CampaignOracle(**bad)


def test_cli_search_smoke(capsys, tmp_path):
    from repro.cli import main

    out_json = tmp_path / "report.json"
    code = main(["optimize", "--budget", "3", "--population", "2",
                 "--clients", "1", "--duration", "1.5",
                 "--machines", "e1", "--json", str(out_json)])
    assert code == 0
    output = capsys.readouterr().out
    assert "front digest:" in output
    saved = json.loads(out_json.read_text())
    assert saved["front"]
    assert saved["evaluations"] <= 3
