"""Regenerate the golden determinism digests.

Run from the repo root after an *intentional* simulation-behaviour
change::

    PYTHONPATH=src python tests/golden/regenerate_determinism.py

The script replays the contract campaign twice (refusing to write if
the two replays disagree — that would mean nondeterminism, which a
golden file cannot paper over), then replays it a third time through
the content-addressed cell cache (refusing to write if the cached
replay disagrees — a golden regenerated past a broken cache would pin
the wrong digests), and rewrites
``tests/golden/determinism_digests.json``: the trace digests under
``digests``, and beside them each cell's trace-free summary digest and
outcome digest.  It then replays the runner cells (one per mode the
campaigns never reach) in-process and on two worker processes,
refusing to write if they disagree, and rewrites
``tests/golden/runner_digests.json``.

A change meant to remove events without moving a frame regenerates
only trace digests: ``git diff tests/golden`` must then show no
``summary_digest``/``outcome_digest`` line moving.
"""

import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve()
                       .parents[2] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from repro.experiments.cache import CampaignCellCache  # noqa: E402
from repro.experiments.campaign import run_campaign  # noqa: E402

from tests.test_determinism import (  # noqa: E402
    CONTRACT_CAMPAIGN,
    FLOW_CAMPAIGN,
    FLOW_GOLDEN_PATH,
    GOLDEN_PATH,
    RUNNER_CELL_S,
    RUNNER_GOLDEN_PATH,
    _digest_map,
    campaign_cell_digests,
    replay_runner_cells,
)


def _cached_replay(campaign):
    """Digests of a cold cache-on run, then of a fully-cached rerun."""
    with tempfile.TemporaryDirectory(prefix="regen-cells-") as cells:
        cold = run_campaign(campaign, cache=CampaignCellCache(cells))
        warm = run_campaign(campaign, cache=CampaignCellCache(cells))
        tasks = len(campaign.cells) * len(campaign.seeds)
        assert warm.cache["hits"] == tasks, "rerun was not fully cached"
        return _digest_map(cold), _digest_map(warm)


def _regenerate(campaign, path) -> bool:
    first = _digest_map(run_campaign(campaign))
    second = _digest_map(run_campaign(campaign))
    if first != second:
        print(f"FATAL: two back-to-back runs of {campaign.name} "
              "disagree — the kernel is nondeterministic; fix that "
              "before regenerating.")
        return False
    cold, warm = _cached_replay(campaign)
    if cold != first or warm != first:
        print(f"FATAL: the cell-cache replay of {campaign.name} "
              "disagrees with the uncached run — fix the cache before "
              "regenerating (a golden written past a broken cache "
              "would pin the wrong digests).")
        return False
    path.write_text(json.dumps(
        {"campaign": campaign.name,
         "duration_s": campaign.duration_s,
         "digests": first, **campaign_cell_digests(campaign)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(first)} digests to {path}")
    return True


def _regenerate_runner_cells() -> bool:
    serial = replay_runner_cells()
    if replay_runner_cells(workers=2) != serial:
        print("FATAL: the runner cells disagree across a process "
              "boundary — fix that before regenerating.")
        return False
    RUNNER_GOLDEN_PATH.write_text(json.dumps(
        {"duration_s": RUNNER_CELL_S, "cells": serial},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(serial)} runner cells to {RUNNER_GOLDEN_PATH}")
    return True


def main() -> int:
    ok = _regenerate(CONTRACT_CAMPAIGN, GOLDEN_PATH)
    ok = _regenerate(FLOW_CAMPAIGN, FLOW_GOLDEN_PATH) and ok
    ok = _regenerate_runner_cells() and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
