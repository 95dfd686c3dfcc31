"""Event and call budget per simulated frame.

A campaign cell's cost is its events times the Python work each event
does.  The scAtteR++ sidecar runs the hand-off to its co-located
service inline (DESIGN.md §19), a sidecar round runs in one generator
that resumes the stage's ``process`` and the device's generator
directly (DESIGN.md §22), and a timeout or grant with one waiter and
nothing else due resumes that waiter inside its own event (DESIGN.md
§23).  So a scAtteR++ preset runs 22.1–25.3 events per sent frame on
the budget cells (24.6–33.1 before §23) and a budget cell makes
9.6–10.9 calls into ``repro`` per event (10.3 over all six cells):
fewer calls per cell, spread over fewer events.

Each cell pins its exact event count and frames sent — both repeat
exactly for a seed — so any change that adds or removes events shows
up here and has to restate the numbers.  Each cell also pins its
calls into ``repro`` code: they repeat exactly too, but only on the
interpreter and kernel they were counted on.  The kernel microbench
of ``benchmarks/bench_sim_hotpath.py`` is pinned the same way, on
both kernels, so a change to either kernel's work per event shows
here without timing anything.
"""

import gc
import os
import sys

import pytest

import repro
from repro.experiments.campaign import PRESETS, resolve_placement
from repro.experiments.runner import run_experiment
from repro.sim import _kernel_impl, kernel, reference

#: Run length of every budget cell.
BUDGET_CELL_S = 5.0

#: Most events a scAtteR++ preset may run per sent frame: the most a
#: budget cell runs (25.3, the cohort cell; the 30 s perfbench cells
#: run at most 24.4 at seeds 0-2), rounded up.
MAX_SCATTERPP_EVENTS_PER_FRAME = 26.0

#: (pipeline, placement, clients) -> (events, frames sent) at seed 0:
#: the perfbench ``cells`` list, cut to 5 s.
BUDGET_CELLS = {
    ("scatter", "C12", 4): (5939, 602),
    ("scatterpp", "C2", 3): (11111, 452),
    ("scatterpp-flow", "C1", 3): (10009, 452),
    ("mobility", "C1", 3): (10145, 452),
    ("cohort", "C1", 2): (7652, 302),
    ("optimize", "C21", 2): (7194, 302),
}

#: The same cells -> Python calls into ``repro`` code over one
#: ``run_experiment``: ``sys.setprofile`` "call" events, each generator
#: resume included, counted on CPython 3.11 with the optimized kernel.
BUDGET_CALLS = {
    ("scatter", "C12", 4): 65016,
    ("scatterpp", "C2", 3): 106248,
    ("scatterpp-flow", "C1", 3): 105521,
    ("mobility", "C1", 3): 102692,
    ("cohort", "C1", 2): 79692,
    ("optimize", "C21", 2): 78318,
}

#: Processes and steps per process of the kernel microbench mix
#: (``bench_sim_hotpath._ticker``), cut from its full 150 x 200.
MICROBENCH_PROCS = 20
MICROBENCH_STEPS = 60

#: Kernel -> (Python calls, events) over one run of the microbench
#: mix, every call counted (the mix's own generators included), on
#: CPython 3.11: 7.36 and 3.33 calls per event.  The mix's quantized
#: delays make most wakes tie, so few of them resume in place.
MICROBENCH_CALLS = {
    "reference": (23045, 3131),
    "optimized": (10425, 3131),
}

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep

on_cpython_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11; another interpreter "
           "makes a different number of calls for the same code")


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


def _calls(run, prefix=_REPRO_DIR):
    """Python calls into code under ``prefix`` while ``run()`` runs.

    By default calls into the standard library and NumPy are left
    out: their number moves with package versions.  The cyclic
    collector stays off, so no generator left over from earlier work
    is closed inside the count.
    """
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if (event == "call"
                and frame.f_code.co_filename.startswith(prefix)):
            calls += 1

    previous = sys.getprofile()
    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        run()
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


@on_cpython_311
@pytest.mark.skipif(
    kernel._backend != "optimized",
    reason="call counts are pinned for the optimized event kernel")
@pytest.mark.parametrize("cell", sorted(BUDGET_CALLS),
                         ids=lambda cell: "/".join(map(str, cell)))
def test_cell_makes_its_pinned_calls(cell):
    spec = _spec(*cell)
    run_experiment(spec)  # imports and first-use work stay uncounted
    calls = _calls(lambda: run_experiment(spec))
    assert calls == BUDGET_CALLS[cell], (
        f"{cell}: {calls} calls into repro, "
        f"{calls / BUDGET_CELLS[cell][0]:.2f} per event; restate the "
        "pin if the change meant to move the work per event")


@on_cpython_311
@pytest.mark.parametrize("name", sorted(MICROBENCH_CALLS))
def test_kernel_microbench_makes_its_pinned_calls(name, monkeypatch):
    """Both kernels are imported directly, so the pins hold whichever
    backend ``REPRO_SIM_KERNEL`` selects for the rest of the tree."""
    from benchmarks import bench_sim_hotpath as bench

    monkeypatch.setattr(bench, "STEPS", MICROBENCH_STEPS)
    module = {"reference": reference, "optimized": _kernel_impl}[name]
    sim = module.Simulator()
    for idx in range(MICROBENCH_PROCS):
        sim.spawn(bench._ticker(module, sim, idx), name=f"ticker-{idx}")
    calls = _calls(sim.run, prefix="")
    events = sim.digest.events
    assert (calls, events) == MICROBENCH_CALLS[name], (
        f"{name}: {calls} calls for {events} events, "
        f"{calls / events:.2f} per event; restate the pin if the change "
        "meant to move the kernel's work per event")
