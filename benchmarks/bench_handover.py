"""Stateful session handover vs naive kill-and-reconnect.

Two arms over identical crash-laden mobility schedules (same seeds,
same trajectories, same fault plans):

* **stateful** — the full handover protocol: warm the target replica,
  pre-copy the session state, epoch-guarded cutover with fetch
  forwarding, abort/retry on mid-handover faults;
* **naive** — break-before-make: instant rebind, session state torn
  down at the source, no transfer, no forwarding.

Reported: handover MTTR (window-open → cutover), client frame loss,
and session-state loss per arm; the headline gate is **stateful loses
strictly fewer frames than naive** under the same schedules.  A second
sweep replays randomized handover schedules (trajectory × chaos × arm)
through the three conservation auditors — client, state-store, and
sidecar ledgers — and the gate is zero violations.

Results land in the committed repo-root ``BENCH_handover.json``.

``HANDOVER_SMOKE=1`` shrinks seeds/duration/sweep size for CI; the
smoke run still exercises both arms, the crash-racing-transfer path,
and every auditor.
"""

from __future__ import annotations

import json
import os

from repro.chaos import FaultPlan, InstanceCrash
from repro.experiments.reporting import format_table
from repro.experiments.runner import (DRAIN_S, ExperimentSpec, MobilitySpec,
                                      run_experiment)
from repro.flow import (
    ConservationError,
    check_client_conservation,
    check_result_conservation,
    check_state_conservation,
)
from repro.scatter.config import baseline_configs

from benchmarks.conftest import save_bench_json

SMOKE = os.environ.get("HANDOVER_SMOKE") == "1"

PLACEMENT = "C1"
NUM_CLIENTS = 2
DURATION_S = 12.0 if SMOKE else 16.0
SEEDS = (0, 1) if SMOKE else (0, 1, 2, 3, 4)
MEAN_DWELL_S = 5.0 if SMOKE else 6.0
#: Randomized conservation schedules (the acceptance floor is >= 100
#: in the full run).
SWEEP_SCHEDULES = 12 if SMOKE else 100
SWEEP_DURATION_S = 6.0 if SMOKE else 8.0
VERDICT_BUDGET_S = 3.0


def _crash_plan(duration_s: float) -> FaultPlan:
    """Sift crashes spread across the run so at least one races a
    handover window (dwell of a few seconds ⇒ windows open every few
    seconds)."""
    return FaultPlan([
        InstanceCrash(at_s=0.4 * duration_s, service="sift"),
        InstanceCrash(at_s=0.7 * duration_s, service="sift"),
    ])


def _run_arm(seed: int, naive: bool) -> dict:
    result = run_experiment(ExperimentSpec(
        baseline_configs()[PLACEMENT], num_clients=NUM_CLIENTS,
        duration_s=DURATION_S, seed=seed, scatterpp=True,
        stateless_sift=False, plan=_crash_plan(DURATION_S),
        mobility=MobilitySpec(naive=naive, mean_dwell_s=MEAN_DWELL_S,
                              min_dwell_s=2.0)))
    report = result.mobility["report"]
    check_result_conservation(result)
    check_state_conservation(result)
    for stats in result.clients:
        check_client_conservation(stats, now=DURATION_S + DRAIN_S,
                                  budget_s=VERDICT_BUDGET_S)
    return {
        "seed": seed,
        "planned": report["planned"],
        "completed": report["completed"],
        "failed_over": report["failed_over"],
        "abandoned": report["abandoned"],
        "mttr_mean_s": report["mttr_s"]["mean"],
        "mttr_p95_s": report["mttr_s"]["p95"],
        "frames_lost": report["frames_lost"],
        "state_entries_lost": report["state_entries_lost"],
        "state_entries_moved": report["state_entries_moved"],
        "success_rate": result.success_rate(),
    }


def _aggregate(rows: list) -> dict:
    count = max(1, len(rows))
    return {
        "rows": rows,
        "planned": sum(r["planned"] for r in rows),
        "completed": sum(r["completed"] for r in rows),
        "failed_over": sum(r["failed_over"] for r in rows),
        "frames_lost": sum(r["frames_lost"] for r in rows),
        "state_entries_lost": sum(r["state_entries_lost"]
                                  for r in rows),
        "state_entries_moved": sum(r["state_entries_moved"]
                                   for r in rows),
        "mttr_mean_s": sum(r["mttr_mean_s"] for r in rows) / count,
        "success_rate": sum(r["success_rate"] for r in rows) / count,
    }


def _conservation_sweep() -> dict:
    """Randomized handover schedules through every auditor."""
    import numpy as np

    violations = []
    handovers = 0
    for index in range(SWEEP_SCHEDULES):
        rng = np.random.default_rng(9000 + index)
        seed = int(rng.integers(0, 50))
        clients = int(rng.integers(1, 3))
        naive = bool(rng.integers(0, 2))
        dwell = float(rng.uniform(1.5, 4.0))
        crashes = int(rng.integers(0, 3))
        plan = FaultPlan([
            InstanceCrash(
                at_s=float(rng.uniform(0.2, 0.9)) * SWEEP_DURATION_S,
                service=str(rng.choice(["sift", "matching"])))
            for __ in range(crashes)]) if crashes else None
        result = run_experiment(ExperimentSpec(
            baseline_configs()[PLACEMENT], num_clients=clients,
            duration_s=SWEEP_DURATION_S, seed=seed, scatterpp=True,
            stateless_sift=False, plan=plan,
            mobility=MobilitySpec(naive=naive, mean_dwell_s=dwell,
                                  min_dwell_s=1.0)))
        handovers += result.mobility["report"]["started"]
        try:
            check_result_conservation(result)
            check_state_conservation(result)
            for stats in result.clients:
                check_client_conservation(
                    stats, now=SWEEP_DURATION_S + DRAIN_S,
                    budget_s=VERDICT_BUDGET_S)
        except ConservationError as error:
            violations.append({"schedule": index, "seed": seed,
                               "naive": naive,
                               "error": str(error)})
    return {"schedules": SWEEP_SCHEDULES, "handovers": handovers,
            "violations": violations}


def test_stateful_handover_beats_naive_reconnect(benchmark,
                                                 save_result):
    def run():
        stateful = _aggregate([_run_arm(seed, naive=False)
                               for seed in SEEDS])
        naive = _aggregate([_run_arm(seed, naive=True)
                            for seed in SEEDS])
        sweep = _conservation_sweep()
        return stateful, naive, sweep

    stateful, naive, sweep = benchmark.pedantic(run, rounds=1,
                                                iterations=1)

    table = format_table(
        ["arm", "planned", "completed", "failed over", "MTTR(s)",
         "frames lost", "entries lost", "entries moved", "success"],
        [["stateful", stateful["planned"], stateful["completed"],
          stateful["failed_over"], round(stateful["mttr_mean_s"], 4),
          stateful["frames_lost"], stateful["state_entries_lost"],
          stateful["state_entries_moved"],
          round(stateful["success_rate"], 3)],
         ["naive", naive["planned"], naive["completed"],
          naive["failed_over"], round(naive["mttr_mean_s"], 4),
          naive["frames_lost"], naive["state_entries_lost"],
          naive["state_entries_moved"],
          round(naive["success_rate"], 3)]])
    save_result("handover", table)

    loss_ratio = (stateful["frames_lost"] / naive["frames_lost"]
                  if naive["frames_lost"] else None)
    entry = {
        "placement": PLACEMENT,
        "smoke": SMOKE,
        "duration_s": DURATION_S,
        "clients": NUM_CLIENTS,
        "seeds": list(SEEDS),
        "stateful": stateful,
        "naive": naive,
        "frame_loss_ratio": loss_ratio,
        "conservation_sweep": sweep,
    }
    save_bench_json("handover", entry)

    # Both arms really moved sessions under chaos.
    assert stateful["planned"] == naive["planned"] > 0
    assert stateful["completed"] > 0
    assert stateful["state_entries_moved"] > 0
    assert naive["state_entries_moved"] == 0
    # The naive baseline tears session state down every move; the
    # stateful protocol loses entries only to source crashes.
    assert naive["state_entries_lost"] > \
        stateful["state_entries_lost"]
    # MTTR is bounded: state transfer costs real time, but the window
    # stays well under a second per handover.
    assert 0.0 < stateful["mttr_mean_s"] < 1.0
    # THE GATE: stateful handover loses strictly fewer frames than
    # kill-and-reconnect under the identical crash-laden schedules.
    assert stateful["frames_lost"] < naive["frames_lost"], entry
    # And nothing, in either arm or the randomized sweep, broke a
    # conservation ledger.
    assert sweep["violations"] == [], sweep
    assert sweep["handovers"] > 0
