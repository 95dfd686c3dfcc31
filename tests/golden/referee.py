"""The outcome referee: one row per golden cell, and the one command
that rewrites the goldens.

After an *intentional* change to what the simulator does, run from the
repository root::

    python tests/golden/referee.py

It computes every row twice, refuses to write if the two runs
disagree (nondeterminism, which no golden can paper over), then
rewrites ``referee.json`` beside it and the two files perfbench's
golden probe reads, ``determinism_digests.json`` and
``flow_digests.json`` (their ``digests`` are the ``trace`` fields of
the contract and flow campaign rows).  ``git diff tests/golden`` then
shows every moved row and field, and ``tests/test_determinism.py``
names each one until the rewrite is committed.

A row holds a cell's trace digest, event count, frames sent, outcome
digest (for the campaign cells also the outcome digest of a traced
rerun) and trace-free summary digest.  The first part of its key says
which cells made it:

* ``a/`` — the golden cells: every cell of the contract and flow
  campaigns, and one short cell per mode they never reach;
* ``b/`` — perfbench's six ``cells`` cells at seeds 0-2;
* ``c/search/seed<S>`` — ``run_search`` at perfbench's ``search``
  config, seeds 0-2, in-process and uncached: its front digest and the
  task fingerprint of every oracle call, in call order, so a cache-key
  change moves the row;
* ``d/seed<S>/`` — every oracle cell those searches ran.

A change meant only to remove events moves ``trace`` and ``events``
and nothing else.
"""

import dataclasses
import hashlib
import json
import pathlib
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
if __name__ == "__main__":  # run as a script: import this checkout
    sys.path[:0] = [str(GOLDEN_DIR.parents[1] / "src"),
                    str(GOLDEN_DIR.parents[1])]

from perfbench import workloads as pw  # noqa: E402
from repro.experiments import campaign  # noqa: E402
from repro.experiments.campaign import Campaign  # noqa: E402
from repro.experiments.runner import (ExperimentSpec,  # noqa: E402
                                      MobilitySpec, run_experiment)
from repro.experiments.store import summarize_result  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

GOLDEN_PATH = GOLDEN_DIR / "referee.json"

#: The contract campaign: both pipelines, two cells each, two seeds —
#: small enough for tier-1, broad enough to cover the sidecar path.
CONTRACT_CAMPAIGN = Campaign(
    name="determinism", pipelines=("scatter", "scatterpp"),
    placements=("C1",), client_counts=(1, 2), duration_s=2.0,
    seeds=(0, 1))

#: The flow-on contract cells: the full substrate (admission +
#: batching + credits + pacing) walks its *own* pinned trajectory.
FLOW_CAMPAIGN = Campaign(
    name="determinism-flow", pipelines=("scatterpp-flow",),
    placements=("C1",), client_counts=(1, 2), duration_s=2.0,
    seeds=(0, 1))

#: The golden files perfbench's golden probe reads, and the campaign
#: whose trace digests each holds.
PERFBENCH_GOLDENS = {"determinism_digests.json": CONTRACT_CAMPAIGN,
                     "flow_digests.json": FLOW_CAMPAIGN}

#: Run length of every runner golden cell.
RUNNER_CELL_S = 2.0


def campaign_keys(camp):
    """``pipeline/placement/<N>c/seed<S>`` for every task of ``camp``,
    in its run order."""
    return [f"{pipeline}/{placement}/{clients}c/seed{seed}"
            for pipeline, placement, clients in camp.cells
            for seed in camp.seeds]


def runner_cells():
    """The modes the campaign goldens never reach, one short cell each:
    golden key -> zero-argument callable returning the result."""
    from repro.chaos.faults import FaultPlan, InstanceCrash
    from repro.scatter.config import baseline_configs

    c1, c2 = baseline_configs()["C1"], baseline_configs()["C2"]

    def cell(placement, clients, **fields):
        return lambda: run_experiment(ExperimentSpec(
            placement, clients, duration_s=RUNNER_CELL_S, seed=0,
            **fields))

    def crash(at_s):
        return FaultPlan(faults=[InstanceCrash(at_s=at_s,
                                               service="sift")])

    roam = MobilitySpec(mean_dwell_s=0.6, min_dwell_s=0.3)
    roaming = dict(scatterpp=True, stateless_sift=False, mobility=roam)
    cohort = dict(scatterpp=True, flow=True, cohort_size=1000)
    return {
        "ramp/C1/2c/seed0": cell(c1, 2, scatterpp=True,
                                 stage_s=RUNNER_CELL_S / 2),
        "mobility-stateful/C1/2c/seed0": cell(c1, 2, **roaming),
        "mobility-naive/C1/2c/seed0": cell(
            c1, 2, **dict(roaming, mobility=dataclasses.replace(
                roam, naive=True))),
        "mobility-crash-flow/C1/2c/seed0": cell(
            c1, 2, plan=crash(1.0), flow=True, **roaming),
        "resilience-scatter/C2/1c/seed0": cell(c2, 1, plan=crash(0.5)),
        "resilience-scatterpp/C2/1c/seed0": cell(
            c2, 1, scatterpp=True, plan=crash(0.5)),
        "cohort-constant/C1/2c/seed0": cell(c1, 2, **cohort),
        "cohort-poisson/C1/2c/seed0": cell(c1, 2, cohort_load="poisson",
                                           **cohort),
    }


def summary_digest(summary):
    """Digest of a stored summary without its trace digest: the
    statistics alone, so a change that only adds or removes events
    keeps it while any moved statistic moves it."""
    text = json.dumps({key: value for key, value in summary.items()
                       if key != "trace_digest"},
                      sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def cell_row(result):
    """A cell's row, all but its event count."""
    summary = summarize_result(result)
    if result.resilience is not None:
        summary["resilience"] = dataclasses.asdict(result.resilience)
    return {"trace": result.trace_digest,
            "frames": sum(c.frames_sent for c in result.clients),
            "outcome": result.outcome_digest(),
            "summary": summary_digest(summary)}


def rows():
    """Every referee row, computed in this process."""
    events = []
    simulate = Simulator.run

    def counted_run(self, until=None):
        out = simulate(self, until)
        events.append(self.digest.events)
        return out

    Simulator.run = counted_run
    oracle = campaign.RUNNERS["optimize"]
    try:
        return _rows(lambda result: dict(cell_row(result),
                                         events=events[-1]), oracle)
    finally:
        Simulator.run = simulate
        campaign.RUNNERS["optimize"] = oracle


def _rows(row, oracle):
    from repro.orchestra.optimize import OptimizeConfig, run_search

    def preset_cell(pipeline, placement, clients, seed, duration_s,
                    traced):
        spec = campaign.PRESETS[pipeline](
            campaign.resolve_placement(placement), num_clients=clients,
            duration_s=duration_s, seed=seed)
        out = row(run_experiment(spec))
        if traced:
            out["outcome_traced"] = run_experiment(dataclasses.replace(
                spec, tracing=True)).outcome_digest()
        return out

    out = {}
    for key, cell in sorted(runner_cells().items()):
        out[f"a/{key}"] = row(cell())
    for camp in (CONTRACT_CAMPAIGN, FLOW_CAMPAIGN):
        for pipeline, placement, clients in camp.cells:
            for seed in camp.seeds:
                out[f"a/{pipeline}/{placement}/{clients}c/seed{seed}"] = \
                    preset_cell(pipeline, placement, clients, seed,
                                camp.duration_s, traced=True)
    for seed in (0, 1, 2):
        for pipeline, placement, clients in pw.CELL_LIST:
            out[f"b/{pipeline}/{placement}/{clients}c/seed{seed}"] = \
                preset_cell(pipeline, placement, clients, seed,
                            pw.CELL_DURATION_S, traced=False)
    for seed in (0, 1, 2):
        cells = {}

        def observed(placement, *, num_clients, duration_s, seed):
            result = oracle(placement, num_clients=num_clients,
                            duration_s=duration_s, seed=seed)
            cells[f"{placement.name}/{num_clients}c/seed{seed}"] = \
                row(result)
            return result

        campaign.RUNNERS["optimize"] = observed
        report = run_search(OptimizeConfig(
            name="perfbench", seed=seed, population=pw.SEARCH_POPULATION,
            generations=pw.SEARCH_GENERATIONS, budget=pw.SEARCH_BUDGET,
            ladder=tuple(pw.SEARCH_LADDER), duration_s=pw.SEARCH_CELL_S,
            oracle_seed=seed, workers=0), cache=None)
        out[f"c/search/seed{seed}"] = {
            "front": report.front_digest(), "cells": len(cells),
            "fingerprints": [call["fingerprint"]
                             for call in report.oracle_calls]}
        for key, cell in cells.items():
            out[f"d/seed{seed}/{key}"] = cell
    return out


def differences(golden, rows):
    """One line per row only one side holds and per moved field."""
    lines = [f"{key}: only in {'the golden' if key in golden else 'this run'}"
             for key in sorted(golden.keys() ^ rows.keys())]
    for key in sorted(golden.keys() & rows.keys()):
        was, now = golden[key], rows[key]
        lines += [f"{key} {field}: {_brief(was.get(field))} -> "
                  f"{_brief(now.get(field))}"
                  for field in sorted(was.keys() | now.keys())
                  if was.get(field) != now.get(field)]
    return lines


def _brief(value):
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def perfbench_goldens(rows):
    """Path -> content of each file perfbench's golden probe reads: the
    trace digests of one campaign's ``a/`` rows and its run length."""
    return {GOLDEN_DIR / name: {
        "duration_s": camp.duration_s,
        "digests": {key: rows[f"a/{key}"]["trace"]
                    for key in campaign_keys(camp)}}
        for name, camp in PERFBENCH_GOLDENS.items()}


def main():
    first = rows()
    moved = differences(first, rows())
    if moved:
        print("FATAL: two runs in one process disagree; the simulator is "
              "nondeterministic, fix that before regenerating:")
        print("\n".join(moved))
        return 1
    goldens = {GOLDEN_PATH: first, **perfbench_goldens(first)}
    for path, golden in goldens.items():
        path.write_text(json.dumps(golden, indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {len(first)} rows to {GOLDEN_PATH} and the "
          f"{len(goldens) - 1} perfbench goldens beside it")
    return 0


if __name__ == "__main__":
    sys.exit(main())
