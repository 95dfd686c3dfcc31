"""Outcome referee: run the same cells on any checkout, then compare.

Run from any directory::

    python tests/golden/referee.py TREE OUT.json [a] [b] [c]
    python tests/golden/referee.py --compare BEFORE.json AFTER.json

The first form imports ``repro``, the golden cell list and perfbench's
workload constants from the checkout at ``TREE`` and writes one row
per cell to ``OUT.json``: trace digest, event count, frames sent,
outcome digest (and, for the campaign goldens, the outcome digest of a
traced rerun) and trace-free summary digest.  The parts, all by
default:

* ``a`` — the golden cells ``regenerate_determinism.py`` regenerates:
  the runner cells and every cell of the contract and flow campaigns,
  from the same definitions in ``tests/test_determinism.py``;
* ``b`` — perfbench's six ``cells`` cells at seeds 0-2;
* ``c`` — ``run_search`` at perfbench's ``search`` config, seeds 0-2,
  in-process and uncached.  Each search row holds its front digest and
  the task fingerprint of every oracle call, in call order, so a
  cache-key change shows up as a moved row; rows ``d/...`` hold every
  oracle cell the searches ran.

The second form compares two outputs.  Every field but ``trace`` and
``events`` must agree byte for byte; those two are reported beside the
count, since a change meant to remove events moves them on purpose.
The exit status is 0 only if no other field differs.
"""

import dataclasses
import json
import sys


def run(tree, out_path, parts):
    sys.path[:0] = [f"{tree}/src", tree]

    from perfbench import workloads as pw
    from repro.experiments import campaign
    from repro.experiments.runner import run_experiment
    from repro.experiments.store import summarize_result
    from repro.sim.kernel import Simulator
    from tests.test_determinism import (CONTRACT_CAMPAIGN, FLOW_CAMPAIGN,
                                        runner_cells, summary_digest)

    events = []
    simulate = Simulator.run

    def counted_run(self, until=None):
        out = simulate(self, until)
        events.append(self.digest.events)
        return out

    Simulator.run = counted_run

    def record(result, traced=None):
        summary = summarize_result(result)
        if result.resilience is not None:
            summary["resilience"] = dataclasses.asdict(result.resilience)
        row = {"trace": result.trace_digest, "events": events[-1],
               "frames": sum(c.frames_sent for c in result.clients),
               "outcome": result.outcome_digest(),
               "summary": summary_digest(summary)}
        if traced is not None:
            row["outcome_traced"] = traced.outcome_digest()
        return row

    def preset_cell(pipeline, placement, clients, seed, duration_s,
                    traced):
        spec = campaign.PRESETS[pipeline](
            campaign.resolve_placement(placement), num_clients=clients,
            duration_s=duration_s, seed=seed)
        return record(run_experiment(spec), run_experiment(
            dataclasses.replace(spec, tracing=True)) if traced else None)

    out = {}
    if "a" in parts:
        for key, cell in sorted(runner_cells().items()):
            out[f"a/{key}"] = record(cell())
        for camp in (CONTRACT_CAMPAIGN, FLOW_CAMPAIGN):
            for pipeline, placement, clients in camp.cells:
                for seed in camp.seeds:
                    out[f"a/{pipeline}/{placement}/{clients}c/seed{seed}"] = \
                        preset_cell(pipeline, placement, clients, seed,
                                    camp.duration_s, traced=True)
    if "b" in parts:
        for seed in (0, 1, 2):
            for pipeline, placement, clients in pw.CELL_LIST:
                out[f"b/{pipeline}/{placement}/{clients}c/seed{seed}"] = \
                    preset_cell(pipeline, placement, clients, seed,
                                pw.CELL_DURATION_S, traced=False)
    if "c" in parts:
        from repro.orchestra.optimize import OptimizeConfig, run_search

        oracle = campaign.RUNNERS["optimize"]
        for seed in (0, 1, 2):
            cells = {}

            def observed(placement, *, num_clients, duration_s, seed):
                result = oracle(placement, num_clients=num_clients,
                                duration_s=duration_s, seed=seed)
                key = f"{placement.name}/{num_clients}c/seed{seed}"
                cells[key] = record(result)
                return result

            campaign.RUNNERS["optimize"] = observed
            try:
                report = run_search(OptimizeConfig(
                    name="perfbench", seed=seed,
                    population=pw.SEARCH_POPULATION,
                    generations=pw.SEARCH_GENERATIONS,
                    budget=pw.SEARCH_BUDGET, ladder=tuple(pw.SEARCH_LADDER),
                    duration_s=pw.SEARCH_CELL_S, oracle_seed=seed,
                    workers=0), cache=None)
            finally:
                campaign.RUNNERS["optimize"] = oracle
            out[f"c/search/seed{seed}"] = {
                "front": report.front_digest(), "cells": len(cells),
                "fingerprints": [call["fingerprint"]
                                 for call in report.oracle_calls]}
            for key, row in cells.items():
                out[f"d/seed{seed}/{key}"] = row
    with open(out_path, "w") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
    print(f"{len(out)} rows -> {out_path}")
    return 0


def compare(before_path, after_path):
    with open(before_path) as handle:
        before = json.load(handle)
    with open(after_path) as handle:
        after = json.load(handle)
    bad = moved = 0
    for key in sorted(before.keys() ^ after.keys()):
        bad += 1
        print("ONLY IN", "before" if key in before else "after", key)
    for key in sorted(before.keys() & after.keys()):
        b, a = before[key], after[key]
        for field in sorted(set(b) | set(a)):
            if b.get(field) == a.get(field):
                continue
            if field in ("trace", "events"):
                moved += 1
                continue
            bad += 1
            print("DIFF", key, field, b.get(field), a.get(field))
    print(f"{len(before.keys() & after.keys())} rows compared, {bad} "
          f"differences, {moved} moved trace digests or event counts")
    eb = sum(row["events"] for row in before.values() if "events" in row)
    ea = sum(row["events"] for row in after.values() if "events" in row)
    if eb:
        print(f"events over all rows: {eb} -> {ea} ({ea / eb:.3f}x)")
    return 1 if bad else 0


def main(argv):
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(argv[1], argv[2])
    if len(argv) >= 2 and set(argv[2:]) <= {"a", "b", "c"}:
        return run(argv[0], argv[1], set(argv[2:]) or {"a", "b", "c"})
    sys.exit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
