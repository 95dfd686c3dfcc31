"""Event budget per simulated frame.

Events, not the work each one does, set the cost of a campaign cell:
every pipeline pays about the same per event.  The scAtteR++ sidecar
runs the hand-off to its co-located service inline (DESIGN.md §19),
which keeps scAtteR++ within twice scAtteR's events per sent frame.

Each cell pins its exact event count and frames sent — both repeat
exactly for a seed — so any change that adds or removes events shows
up here and has to restate the numbers.
"""

import dataclasses

import pytest

from repro.experiments.campaign import PRESETS, resolve_placement
from repro.experiments.runner import run_experiment

#: Run length of every budget cell.
BUDGET_CELL_S = 5.0

#: Most events a scAtteR++ preset may run per sent frame: twice
#: scAtteR's 16.8 on the 30 s seed-0 perfbench cell, rounded up.
MAX_SCATTERPP_EVENTS_PER_FRAME = 34.0

#: (pipeline, placement, clients) -> (events, frames sent) at seed 0:
#: the perfbench ``cells`` list, cut to 5 s.
BUDGET_CELLS = {
    ("scatter", "C12", 4): (8004, 602),
    ("scatterpp", "C2", 3): (14714, 452),
    ("scatterpp-flow", "C1", 3): (12705, 452),
    ("mobility", "C1", 3): (14345, 452),
    ("cohort", "C1", 2): (9981, 302),
    ("optimize", "C21", 2): (9845, 302),
}


def _events_and_frames(pipeline, placement, clients):
    spec = PRESETS[pipeline](resolve_placement(placement),
                             num_clients=clients,
                             duration_s=BUDGET_CELL_S, seed=0)
    result = run_experiment(dataclasses.replace(spec, profile=True))
    return (result.event_profile["events"],
            sum(stats.frames_sent for stats in result.clients))


@pytest.mark.parametrize("cell", sorted(BUDGET_CELLS),
                         ids=lambda cell: "/".join(map(str, cell)))
def test_cell_runs_its_pinned_events(cell):
    events, frames = _events_and_frames(*cell)
    assert (events, frames) == BUDGET_CELLS[cell], (
        f"{cell}: {events} events for {frames} frames sent; restate "
        "the pin if the change meant to move events")
    if cell[0] != "scatter":
        assert events / frames <= MAX_SCATTERPP_EVENTS_PER_FRAME, (
            f"{cell}: {events / frames:.1f} events per sent frame")
