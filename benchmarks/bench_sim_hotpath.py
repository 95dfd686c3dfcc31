"""Event-kernel hot-path benchmark: optimized kernel vs reference twin.

Two arms, both anchored to :mod:`repro.sim.reference` (the verbatim
pre-optimization kernel, kept as an executable baseline):

* **Kernel microbench** — a mixed process workload (plain timeouts,
  ``AnyOf``/``AllOf`` composites, process churn; the event mix a real
  campaign cell produces) replayed through both kernels in one
  process, best-of-N wall clock.  Gated: the optimized kernel must
  clear ``MIN_KERNEL_SPEEDUP`` in events/sec.
* **End-to-end campaign cell** — a full scAtteR++ experiment cell run
  in subprocesses, one per kernel.  The baseline child runs under
  ``REPRO_SIM_KERNEL=reference``, so every module — sockets, stores,
  sidecars — binds the reference classes at import; there is no
  cross-kernel object mixing.  Gated: the median of the per-pair wall
  clock ratios must clear ``MIN_E2E_SPEEDUP``.

Both arms double as equivalence witnesses: they assert the two
kernels execute the same number of events and produce byte-identical
trace fingerprints before any throughput number is trusted.  A
speedup claimed over a divergent trajectory would be meaningless.

Results land in the committed repo-root ``BENCH_sim_hotpath.json``.

``SIM_HOTPATH_SMOKE=1`` shrinks both arms for CI; the smoke run still
exercises both kernels and the fingerprint-equality assertions, but
only gates against gross regressions (the wall-clock ratios on a
seconds-long CI slice are too noisy to hold the full bars).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from repro.sim import kernel as optimized
from repro.sim import reference

from benchmarks.conftest import save_bench_json

SMOKE = os.environ.get("SIM_HOTPATH_SMOKE") == "1"

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")

# --- kernel microbench shape -----------------------------------------
PROCS = 40 if SMOKE else 150
STEPS = 60 if SMOKE else 200
REPEATS = 3 if SMOKE else 7
MIN_KERNEL_SPEEDUP = 1.05 if SMOKE else 1.5

# --- end-to-end campaign-cell shape ----------------------------------
# One subprocess per run, run in pairs (reference and optimized, the
# order alternating pair by pair so slow clock drift favours neither
# arm), and the gate reads the median of the per-pair ratios.  The
# kernel is about a third of a cell's wall, so the microbench win
# compresses here; the cell runs for minutes of virtual time so that
# each wall is seconds long — a 12 s cell walls about 0.18 s, where
# host noise alone moved the ratio from 0.98 to 1.15 between runs.
# The gate is a regression tripwire below the compressed win, not the
# headline: the enforced perf bar is MIN_KERNEL_SPEEDUP.
E2E_DURATION_S = 2.0 if SMOKE else 180.0
E2E_PAIRS = 2 if SMOKE else 5
MIN_E2E_SPEEDUP = 0.85 if SMOKE else 1.05


def _ticker(mod, sim, idx):
    """One service-like process: mostly plain delays, periodically a
    race (``AnyOf``) or a join (``AllOf``) — the same composite mix
    the scatter/scAtteR++ services schedule."""
    for step in range(STEPS):
        if step % 7 == 3:
            yield mod.AnyOf(sim, [
                sim.timeout(0.001 * ((idx + step) % 5 + 1)),
                sim.timeout(0.002)])
        elif step % 11 == 5:
            yield mod.AllOf(sim, [sim.timeout(0.001),
                                  sim.timeout(0.0015)])
        else:
            yield sim.timeout(0.001 * ((idx * 31 + step) % 9 + 1))


def _run_kernel_once(mod):
    """One timed microbench run on one kernel module."""
    sim = mod.Simulator()
    for idx in range(PROCS):
        sim.spawn(_ticker(mod, sim, idx), name=f"ticker-{idx}")
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return {"best_s": elapsed, "events": sim.digest.events,
            "fingerprint": sim.fingerprint()}


def _run_kernel_arms():
    """Interleaved best-of-``REPEATS`` for both kernels: every repeat
    runs both, alternating which goes first."""
    arms = {"reference": reference, "optimized": optimized}
    best = {}
    for repeat in range(REPEATS):
        order = list(arms) if repeat % 2 == 0 else list(arms)[::-1]
        for name in order:
            sample = _run_kernel_once(arms[name])
            held = best.get(name)
            if held is not None:
                assert sample["events"] == held["events"]
                assert sample["fingerprint"] == held["fingerprint"]
                sample["best_s"] = min(sample["best_s"], held["best_s"])
            best[name] = sample
    for sample in best.values():
        sample["events_per_s"] = sample["events"] / sample["best_s"]
    return best["reference"], best["optimized"]


#: The end-to-end child.  ``argv``: duration.  The kernel is chosen by
#: the ``REPRO_SIM_KERNEL`` the parent sets in its environment.
_E2E_CHILD = r"""
import json, sys, time
from repro.scatter.config import baseline_configs
import repro.experiments.runner as runner
duration = float(sys.argv[1])
placement = baseline_configs()["C1"]
started = time.perf_counter()
result = runner.run_experiment(runner.ExperimentSpec(
    placement, num_clients=2, duration_s=duration, seed=0,
    scatterpp=True))
elapsed = time.perf_counter() - started
print(json.dumps({"wall_s": elapsed, "digest": result.trace_digest}))
"""


def _run_e2e_once(kernel_name):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SIM_KERNEL"] = kernel_name
    proc = subprocess.run(
        [sys.executable, "-c", _E2E_CHILD, str(E2E_DURATION_S)],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_e2e_pairs():
    """``E2E_PAIRS`` (reference, optimized) runs, alternating which
    kernel goes first; every run must replay the same trajectory."""
    pairs = []
    for index in range(E2E_PAIRS):
        order = (["reference", "optimized"] if index % 2 == 0
                 else ["optimized", "reference"])
        pair = {name: _run_e2e_once(name) for name in order}
        pairs.append((pair["reference"], pair["optimized"]))
    digests = {sample["digest"] for pair in pairs for sample in pair}
    assert len(digests) == 1, (
        "cross-kernel trace digests diverged on a real campaign cell")
    return pairs


def test_kernel_and_campaign_cell_speedups(save_result):
    # Kernel microbench: interleave the arms so clock drift cannot
    # systematically favour one kernel.
    ref, opt = _run_kernel_arms()

    # Equivalence before speed: same events, same trajectory, bit for
    # bit.  (blake2b is a stream hash, so the optimized kernel's
    # chunked digest folds the identical byte stream.)
    assert opt["events"] == ref["events"]
    assert opt["fingerprint"] == ref["fingerprint"]

    kernel_speedup = opt["events_per_s"] / ref["events_per_s"]

    # End-to-end: one full scAtteR++ cell per kernel and subprocess,
    # run in interleaved pairs; the gate reads the median pair ratio.
    pairs = _run_e2e_pairs()
    ratios = [ref["wall_s"] / opt["wall_s"] for ref, opt in pairs]
    e2e_speedup = statistics.median(ratios)

    entry = {
        "smoke": SMOKE,
        "kernel": {
            "procs": PROCS, "steps": STEPS, "repeats": REPEATS,
            "events": opt["events"],
            "reference_best_s": round(ref["best_s"], 6),
            "optimized_best_s": round(opt["best_s"], 6),
            "reference_events_per_s": round(ref["events_per_s"]),
            "optimized_events_per_s": round(opt["events_per_s"]),
            "speedup": round(kernel_speedup, 3),
            "min_speedup": MIN_KERNEL_SPEEDUP,
            "fingerprints_equal": True,
        },
        "campaign_cell": {
            "pipeline": "scatterpp", "placement": "C1",
            "clients": 2, "duration_s": E2E_DURATION_S,
            "pairs": E2E_PAIRS,
            "reference_wall_s": [round(ref["wall_s"], 6)
                                 for ref, __ in pairs],
            "optimized_wall_s": [round(opt["wall_s"], 6)
                                 for __, opt in pairs],
            "ratios": [round(ratio, 3) for ratio in ratios],
            "speedup": round(e2e_speedup, 3),
            "min_speedup": MIN_E2E_SPEEDUP,
            "digests_equal": True,
        },
    }
    save_bench_json("sim_hotpath", entry)
    save_result("sim_hotpath",
                json.dumps(entry, indent=2, sort_keys=True))

    assert kernel_speedup >= MIN_KERNEL_SPEEDUP, entry
    assert e2e_speedup >= MIN_E2E_SPEEDUP, entry
