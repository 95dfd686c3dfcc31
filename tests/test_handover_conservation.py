"""Property-based conservation invariants across session handovers.

Hypothesis drives randomized (trajectory × fault schedule × flow
on/off) mobility runs and audits three ledgers after every one:

* **client conservation** — every admitted frame is served, degraded
  to the local fallback, paced, or lost-with-a-reason; any frame still
  unresolved at the horizon must be younger than the resilience
  layer's verdict budget (nothing silently vanishes);
* **state conservation** — every session entry that ever entered a
  store (stored by sift or imported in a handover) left through
  exactly one of fetch, expiry, handover discard, same-key
  replacement, or replica stop — audited over live *and* retired
  replicas;
* **sidecar conservation** — the flow ledgers balance exactly, across
  the replicas handovers deploy and retire mid-run.

Runs use ``derandomize=True`` (fixed CI budget, no shrink storms);
the schedule space still covers both handover modes, chaos racing the
transfer window, and flow control on/off.  The mobility-off
bit-identity pin lives in ``tests/test_determinism.py`` (golden
digests) — here we additionally pin that the *mobility runner itself*
is worker-count independent across the campaign's process boundary.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import FaultPlan, InstanceCrash
from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.runner import (DRAIN_S, ExperimentSpec, MobilitySpec,
                                      run_experiment)
from repro.flow import (
    check_client_conservation,
    check_result_conservation,
    check_state_conservation,
)
from repro.scatter.config import baseline_configs

PLACEMENT = baseline_configs()["C1"]
DURATION_S = 8.0

#: Outer bound on the resilience layer's verdict latency for one frame
#: (retry budget + breaker window + fallback) — anything unresolved and
#: older has silently vanished.
VERDICT_BUDGET_S = 3.0

SETTINGS = settings(max_examples=10, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: Crashes aimed into (and around) the handover windows opened by the
#: 2-4 s dwell times below; sift crashes race the transfer itself.
FAULTS = st.one_of(
    st.none(),
    st.lists(st.tuples(st.sampled_from(["sift", "matching"]),
                       st.floats(min_value=0.25, max_value=0.85)),
             min_size=1, max_size=2))


def _run_schedule(seed, num_clients, mean_dwell_s, naive, fault, flow):
    plan = None
    if fault is not None:
        plan = FaultPlan([InstanceCrash(at_s=frac * DURATION_S,
                                        service=service)
                          for service, frac in fault])
    return run_experiment(ExperimentSpec(
        PLACEMENT, num_clients=num_clients, duration_s=DURATION_S,
        seed=seed, scatterpp=True, stateless_sift=False, plan=plan,
        flow=flow, mobility=MobilitySpec(
            naive=naive, mean_dwell_s=mean_dwell_s, min_dwell_s=2.0)))


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=5),
       num_clients=st.integers(min_value=1, max_value=2),
       mean_dwell_s=st.sampled_from([2.5, 4.0]),
       naive=st.booleans(),
       fault=FAULTS,
       flow=st.booleans())
def test_no_frame_vanishes_across_random_handover_schedules(
        seed, num_clients, mean_dwell_s, naive, fault, flow):
    result = _run_schedule(seed, num_clients, mean_dwell_s, naive,
                           fault, flow)
    now = DURATION_S + DRAIN_S

    # Every sidecar ledger balances, including replicas the handover
    # protocol deployed and the chaos path retired.
    check_result_conservation(result)
    # Every session entry is accounted for, store by store.
    check_state_conservation(result)
    # Every admitted frame reached a verdict (or is younger than the
    # verdict budget).
    for stats in result.clients:
        check_client_conservation(stats, now=now,
                                  budget_s=VERDICT_BUDGET_S)

    # The protocol itself reached a terminal state for every handover
    # the horizon allowed to finish, and the outcome counts partition.
    report = result.mobility["report"]
    assert (report["completed"] + report["failed_over"]
            + report["abandoned"] + report["superseded"]
            + report["pending"]) == report["started"]
    # Stateful handovers lose entries only through a source crash;
    # naive ones lose exactly what they tore down.
    if not naive and fault is None:
        assert report["state_entries_lost"] == 0


@SETTINGS
@given(seed=st.integers(min_value=0, max_value=7))
def test_loss_reasons_cover_every_lost_frame(seed):
    """`frames_lost` is never a bare number: each lost frame carries
    one reason, and the per-reason counts sum back to the total."""
    result = _run_schedule(seed, 2, 2.5, False,
                           [("sift", 0.5)], False)
    report = result.mobility["report"]
    assert sum(report["frames_lost_by_reason"].values()) == \
        report["frames_lost"]
    for stats in result.clients:
        assert sum(stats.lost_by_reason().values()) == stats.frames_lost


# ----------------------------------------------------------------------
# Worker-count independence (the determinism contract, mobility edition)
# ----------------------------------------------------------------------
MOBILITY_CAMPAIGN = Campaign(
    name="mobility-det", pipelines=("mobility",),
    placements=("C1",), client_counts=(2,), duration_s=3.0,
    seeds=(0, 1))


def test_mobility_campaign_workers_bit_identical():
    """Mobility cells shard across processes bit-for-bit: same trace
    digests, same metrics, same per-handover records in the summary."""
    serial = run_campaign(MOBILITY_CAMPAIGN)
    sharded = run_campaign(MOBILITY_CAMPAIGN, workers=4)
    assert not serial.failures and not sharded.failures
    assert serial.digests == sharded.digests
    metrics = lambda report: {  # noqa: E731
        cell: {name: metric.values
               for name, metric in sorted(cell_metrics.items())}
        for cell, cell_metrics in sorted(report.cells.items())}
    assert metrics(serial) == metrics(sharded)


def test_mobility_summary_crosses_process_boundary():
    """Worker summaries carry the full mobility report."""
    from repro.experiments.parallel import plan_tasks, run_tasks

    tasks = plan_tasks(MOBILITY_CAMPAIGN, seeds=(0,))
    reports = []
    for workers in (0, 4):
        outcomes = run_tasks(tasks, workers=workers)
        for outcome in outcomes:
            assert outcome.ok, outcome.failure
            mobility = outcome.summary["mobility"]
            assert mobility is not None and not mobility["naive"]
            report = mobility["report"]
            assert report["planned"] >= report["started"]
            assert len(mobility["handovers"]) == report["started"]
            reports.append(mobility)
    # The summaries agree exactly across the process boundary.
    assert reports[0] == reports[1]
