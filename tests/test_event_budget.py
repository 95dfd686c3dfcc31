"""Event and call budget per simulated frame.

A campaign cell's cost is its events times the Python work each event
does.  The scAtteR++ sidecar runs the hand-off to its co-located
service inline (DESIGN.md §19), which keeps scAtteR++ within twice
scAtteR's events per sent frame.  A sidecar round runs in one
generator that resumes the stage's ``process`` and the device's
generator directly (DESIGN.md §22), so a budget cell makes 8.2–9.8
calls into ``repro`` per event (9.0 over all six cells), where it made
10.9–12.7 (11.9) when a round resumed seven generators.

Each cell pins its exact event count and frames sent — both repeat
exactly for a seed — so any change that adds or removes events shows
up here and has to restate the numbers.  Each cell also pins its
calls into ``repro`` code: they repeat exactly too, but only on the
interpreter and kernel they were counted on.
"""

import gc
import os
import sys

import pytest

import repro
from repro.experiments.campaign import PRESETS, resolve_placement
from repro.experiments.runner import run_experiment
from repro.sim import kernel

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

#: The same cells -> Python calls into ``repro`` code over one
#: ``run_experiment``: ``sys.setprofile`` "call" events, each generator
#: resume included, counted on CPython 3.11 with the optimized kernel.
BUDGET_CALLS = {
    ("scatter", "C12", 4): 76008,
    ("scatterpp", "C2", 3): 123183,
    ("scatterpp-flow", "C1", 3): 124986,
    ("mobility", "C1", 3): 118171,
    ("cohort", "C1", 2): 93440,
    ("optimize", "C21", 2): 92870,
}

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def _spec(pipeline, placement, clients):
    return PRESETS[pipeline](resolve_placement(placement),
                             num_clients=clients,
                             duration_s=BUDGET_CELL_S, seed=0)


def _events_and_frames(pipeline, placement, clients):
    """Events the cell ran (both kernels count them in the trace
    digest) and frames its clients sent."""
    result = run_experiment(_spec(pipeline, placement, clients))
    return (result.testbed.sim.digest.events,
            sum(stats.frames_sent for stats in result.clients))


def _repro_calls(spec):
    """Calls into ``repro`` code while ``spec`` runs.

    Calls into the standard library and NumPy are left out: their
    number moves with package versions.  The cyclic collector stays
    off, so no generator left over from earlier work is closed inside
    the count.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if (event == "call"
                and frame.f_code.co_filename.startswith(_REPRO_DIR)):
            calls += 1

    previous = sys.getprofile()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run_experiment(spec)
    finally:
        sys.setprofile(previous)
        gc.enable()
    return calls


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


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11; another interpreter "
           "makes a different number of calls for the same code")
@pytest.mark.skipif(
    kernel._backend != "optimized",
    reason="call counts are pinned for the optimized event kernel")
@pytest.mark.parametrize("cell", sorted(BUDGET_CALLS),
                         ids=lambda cell: "/".join(map(str, cell)))
def test_cell_makes_its_pinned_calls(cell):
    spec = _spec(*cell)
    run_experiment(spec)  # imports and first-use work stay uncounted
    calls = _repro_calls(spec)
    assert calls == BUDGET_CALLS[cell], (
        f"{cell}: {calls} calls into repro, "
        f"{calls / BUDGET_CELLS[cell][0]:.2f} per event; restate the "
        "pin if the change meant to move the work per event")
