"""Event-kernel hot-path benchmark: optimized kernel vs reference twin.

Two arms, both anchored to :mod:`repro.sim.reference` (the
pre-optimization kernel, kept as an executable baseline):

* **Kernel microbench** — a mixed process workload (plain timeouts,
  ``AnyOf``/``AllOf`` composites, process churn; the event mix a real
  campaign cell produces) replayed through both kernels in one
  process, in interleaved pairs timed in CPU time
  (``time.process_time``).  Gated: the median of the per-pair ratios
  must clear ``MIN_KERNEL_SPEEDUP`` in events per CPU second.
* **End-to-end campaign cell** — a full scAtteR++ experiment cell run
  in subprocesses, one per kernel.  The baseline child runs under
  ``REPRO_SIM_KERNEL=reference``, so every module — sockets, stores,
  sidecars — binds the reference classes at import; there is no
  cross-kernel object mixing.  Gated: the median of the per-pair CPU
  time ratios must clear ``MIN_E2E_SPEEDUP``; the wall clock ratios
  are recorded beside them.

Both arms double as equivalence witnesses: they assert the two
kernels execute the same number of events and produce byte-identical
trace fingerprints before any throughput number is trusted.  A
speedup claimed over a divergent trajectory would be meaningless.

Results land in the committed repo-root ``BENCH_sim_hotpath.json``.
How often the kernel gate fails with the kernel unchanged is measured
by running the kernel arm alone ``STEADINESS_RUNS`` times, each run in
a fresh process::

    PYTHONPATH=src python -m benchmarks.bench_sim_hotpath

which records the runs' ratios and false-fail rate in the same file
as ``kernel_steadiness``.  Later bench runs keep that record only
while the arm's size and the bytes of ``repro/sim`` and of this file
are what it measured, so a changed kernel or workload drops it.

``SIM_HOTPATH_SMOKE=1`` shrinks both arms for CI; the smoke run still
exercises both kernels and the fingerprint-equality assertions, but
only gates against gross regressions (the wall-clock ratios on a
seconds-long CI slice are too noisy to hold the full bars).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from repro.sim import kernel as optimized
from repro.sim import reference

from benchmarks.conftest import BENCH_DIR, save_bench_json

SMOKE = os.environ.get("SIM_HOTPATH_SMOKE") == "1"

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")
SIM_DIR = pathlib.Path(optimized.__file__).resolve().parent
BENCH_PATH = BENCH_DIR / "BENCH_sim_hotpath.json"

# --- kernel microbench shape -----------------------------------------
# Pairs of runs, one per kernel, the order alternating pair by pair so
# slow drift favours neither kernel; each run starts from a collected
# heap (six 21-pair runs spread their pair ratios over 0.86-2.39
# without the collect, 1.12-1.93 with it), and the gate reads the
# median of the per-pair CPU ratios, as the end-to-end arm does.  The
# best-of-7 CPU time it replaces swung with the core's throughput
# (1.22-1.85 over full runs on a shared 2-vCPU host, the kernel
# unchanged); the median reads steadily, and on that host steadily
# under the bar (``kernel_steadiness`` in the BENCH file holds the
# standalone runs; this file's bytes are part of its shape, so the
# numbers live there, not here).
PROCS = 40 if SMOKE else 150
STEPS = 60 if SMOKE else 200
KERNEL_PAIRS = 5 if SMOKE else 21
MIN_KERNEL_SPEEDUP = 1.05 if SMOKE else 1.5
#: Standalone kernel-arm runs behind the recorded false-fail rate.
STEADINESS_RUNS = 20

# --- end-to-end campaign-cell shape ----------------------------------
# One subprocess per run, run in pairs (reference and optimized, the
# order alternating pair by pair so slow clock drift favours neither
# arm), and the gate reads the median of the per-pair ratios.  The
# kernel is about a third of a cell's wall, so the microbench win
# compresses here; the cell runs for minutes of virtual time so that
# each wall is seconds long — a 12 s cell walls about 0.18 s, where
# host noise alone moved the ratio from 0.98 to 1.15 between runs.
# Each child times its own CPU (``time.process_time``): on a shared
# host the wall clock also counts the time other tenants hold the
# core, and one run's wall pairs read from 0.833 to 1.716.
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
    gc.collect()
    started = time.process_time()
    sim.run()
    cpu = time.process_time() - started
    return {"cpu_s": cpu, "events": sim.digest.events,
            "fingerprint": sim.fingerprint()}


def run_kernel_pairs():
    """``KERNEL_PAIRS`` (reference, optimized) runs, alternating which
    kernel goes first; every run must replay the same trajectory."""
    arms = {"reference": reference, "optimized": optimized}
    pairs = []
    for index in range(KERNEL_PAIRS):
        order = list(arms) if index % 2 == 0 else list(arms)[::-1]
        pair = {name: _run_kernel_once(arms[name]) for name in order}
        pairs.append((pair["reference"], pair["optimized"]))
    runs = {(sample["events"], sample["fingerprint"])
            for pair in pairs for sample in pair}
    assert len(runs) == 1, "the kernels replayed different trajectories"
    return pairs


def kernel_speedup(pairs) -> float:
    """The gated statistic: the median per-pair CPU time ratio."""
    return statistics.median(ref["cpu_s"] / opt["cpu_s"]
                             for ref, opt in pairs)


#: The end-to-end child.  ``argv``: duration.  The kernel is chosen by
#: the ``REPRO_SIM_KERNEL`` the parent sets in its environment.
_E2E_CHILD = r"""
import json, sys, time
from repro.scatter.config import baseline_configs
import repro.experiments.runner as runner
duration = float(sys.argv[1])
placement = baseline_configs()["C1"]
started, cpu_started = time.perf_counter(), time.process_time()
result = runner.run_experiment(runner.ExperimentSpec(
    placement, num_clients=2, duration_s=duration, seed=0,
    scatterpp=True))
cpu = time.process_time() - cpu_started
elapsed = time.perf_counter() - started
print(json.dumps({"wall_s": elapsed, "cpu_s": cpu,
                  "digest": result.trace_digest}))
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


def _kernel_shape():
    """What a steadiness record measured: the arm's size plus a hash of
    the simulator package (both kernels) and of this file (the
    workload), so the record never outlives the code it timed."""
    code = hashlib.blake2b(digest_size=16)
    for path in [*sorted(SIM_DIR.glob("*.py")),
                 pathlib.Path(__file__).resolve()]:
        code.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return {"procs": PROCS, "steps": STEPS, "pairs": KERNEL_PAIRS,
            "smoke": SMOKE, "code": code.hexdigest()}


def _recorded_steadiness():
    """The committed ``kernel_steadiness`` block, if it measured this
    kernel arm (a smoke run, a reshaped arm or any edit to the kernels
    or this file drops it)."""
    try:
        held = json.loads(BENCH_PATH.read_text()).get("kernel_steadiness")
    except (OSError, ValueError):
        return None
    if held is not None and held.get("shape") == _kernel_shape():
        return held
    return None


def test_kernel_and_campaign_cell_speedups(save_result):
    # Kernel microbench: interleaved pairs, gated on the median pair
    # ratio.  Equivalence before speed: every run replays the same
    # events and fingerprint, bit for bit (blake2b is a stream hash,
    # so the optimized kernel's chunked digest folds the identical
    # byte stream).
    kernel_pairs = run_kernel_pairs()
    speedup = kernel_speedup(kernel_pairs)
    events = kernel_pairs[0][0]["events"]
    kernel_ratios = [ref["cpu_s"] / opt["cpu_s"]
                     for ref, opt in kernel_pairs]

    # End-to-end: one full scAtteR++ cell per kernel and subprocess,
    # run in interleaved pairs; the gate reads the median pair ratio
    # of child CPU time.
    pairs = _run_e2e_pairs()
    cpu_ratios = [ref["cpu_s"] / opt["cpu_s"] for ref, opt in pairs]
    wall_ratios = [ref["wall_s"] / opt["wall_s"] for ref, opt in pairs]
    e2e_speedup = statistics.median(cpu_ratios)

    entry = {
        "smoke": SMOKE,
        "kernel": {
            "procs": PROCS, "steps": STEPS, "pairs": KERNEL_PAIRS,
            "events": events,
            "cpu_ratios": [round(ratio, 3) for ratio in kernel_ratios],
            "speedup": round(speedup, 3),
            "min_speedup": MIN_KERNEL_SPEEDUP,
            "fingerprints_equal": True,
        },
        "campaign_cell": {
            "pipeline": "scatterpp", "placement": "C1",
            "clients": 2, "duration_s": E2E_DURATION_S,
            "pairs": E2E_PAIRS,
            "reference_cpu_s": [round(ref["cpu_s"], 6)
                                for ref, __ in pairs],
            "optimized_cpu_s": [round(opt["cpu_s"], 6)
                                for __, opt in pairs],
            "cpu_ratios": [round(ratio, 3) for ratio in cpu_ratios],
            "speedup": round(e2e_speedup, 3),
            "reference_wall_s": [round(ref["wall_s"], 6)
                                 for ref, __ in pairs],
            "optimized_wall_s": [round(opt["wall_s"], 6)
                                 for __, opt in pairs],
            "wall_ratios": [round(ratio, 3) for ratio in wall_ratios],
            "wall_speedup": round(statistics.median(wall_ratios), 3),
            "min_speedup": MIN_E2E_SPEEDUP,
            "digests_equal": True,
        },
    }
    steadiness = _recorded_steadiness()
    if steadiness is not None:
        entry["kernel_steadiness"] = steadiness
    save_bench_json("sim_hotpath", entry)
    save_result("sim_hotpath",
                json.dumps(entry, indent=2, sort_keys=True))

    assert speedup >= MIN_KERNEL_SPEEDUP, entry
    assert e2e_speedup >= MIN_E2E_SPEEDUP, entry


#: One standalone kernel-arm run: prints its median pair ratio.
_KERNEL_CHILD = r"""
from benchmarks.bench_sim_hotpath import kernel_speedup, run_kernel_pairs
print(kernel_speedup(run_kernel_pairs()))
"""


def record_steadiness() -> dict:
    """Run the kernel arm alone ``STEADINESS_RUNS`` times, each in a
    fresh process, and record how often it reads under the gate.  The
    kernel does not change between runs, so on a steady arm a failure
    is noise (the false-fail rate) only if most runs pass."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR, str(BENCH_DIR), env.get("PYTHONPATH", "")])
    speedups = []
    for __ in range(STEADINESS_RUNS):
        proc = subprocess.run(
            [sys.executable, "-c", _KERNEL_CHILD], capture_output=True,
            text=True, env=env, check=True)
        speedups.append(float(proc.stdout.split()[-1]))
    failures = sum(speedup < MIN_KERNEL_SPEEDUP for speedup in speedups)
    block = {"shape": _kernel_shape(), "runs": STEADINESS_RUNS,
             "speedups": [round(speedup, 3) for speedup in speedups],
             "median_speedup": round(statistics.median(speedups), 3),
             "min_speedup": MIN_KERNEL_SPEEDUP, "failures": failures,
             "fail_rate": round(failures / STEADINESS_RUNS, 3)}
    entry = json.loads(BENCH_PATH.read_text())
    entry["kernel_steadiness"] = block
    save_bench_json("sim_hotpath", entry)
    return block


if __name__ == "__main__":
    print(json.dumps(record_steadiness(), indent=2))
