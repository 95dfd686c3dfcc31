"""Property-based frame-conservation invariants for the flow substrate.

Hypothesis drives randomized (flow on/off × load × fault) schedules
through full scAtteR++ deployments and audits four invariants after
every run:

* **conservation** — every sidecar's ledger balances exactly:
  ``enqueued == dispatched + dropped_stale + detach_drained +
  pending + in_flight`` (and arrivals partition into
  enqueued/rejected/overflow/refused);
* **per-client FIFO** — at any one sidecar, a client's frames are
  taken off the queue in the order they entered it;
* **staleness** — no frame is handed to a service after spending more
  than the threshold queued;
* **credits** — advertised credits are never negative.

Runs use ``derandomize=True`` so CI spends a fixed, repeatable budget
(no flaky shrink storms); the schedule space still covers the flow
substrate on (admission, batching, credits, pacing) and off, and
mid-run instance crashes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.campaign import Campaign, run_campaign
from repro.experiments.parallel import plan_tasks, run_tasks
from repro.experiments.runner import (
    DRAIN_S,
    ExperimentSpec,
    _attach_tracer,
    build_experiment,
)
from repro.flow import check_sidecar_conservation
from repro.scatter.config import PIPELINE_ORDER, baseline_configs

PLACEMENT = baseline_configs()["C1"]
DURATION_S = 3.0
THRESHOLD_S = 0.100

SETTINGS = settings(max_examples=10, derandomize=True, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

FAULTS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(PIPELINE_ORDER),
              st.floats(min_value=0.2, max_value=0.8)))


def _run_schedule(flow, num_clients, seed, fault):
    """One full deployment under a randomized schedule."""
    sim, testbed, orchestrator, pipeline, clients = build_experiment(
        ExperimentSpec(PLACEMENT, num_clients, seed=seed, scatterpp=True,
                       flow=flow))
    tracer = _attach_tracer(orchestrator, clients)
    if fault is not None:
        service_name, when = fault
        instance = pipeline.instances(service_name)[0]
        sim.schedule(when * DURATION_S, instance.crash)
    for client in clients:
        client.start(DURATION_S)
    sim.run(until=DURATION_S + DRAIN_S)
    return pipeline, clients, tracer


def _sidecars(pipeline):
    return [instance.sidecar
            for service in PIPELINE_ORDER
            for instance in pipeline.instances(service)]


def _check_fifo_per_client(tracer):
    """Queue spans: per (instance, client), dequeue order follows
    enqueue order."""
    per_queue = {}
    for key in list(tracer._traces):
        trace = tracer.trace(key)
        client_id = key[0]
        for span in trace.spans:
            if span.kind != "queue":
                continue
            per_queue.setdefault((span.instance, span.name, client_id),
                                 []).append(span)
    assert per_queue, "no queue spans recorded: vacuous schedule"
    for spans in per_queue.values():
        spans.sort(key=lambda span: (span.start_s, span.end_s))
        for earlier, later in zip(spans, spans[1:]):
            if later.start_s > earlier.start_s:
                assert later.end_s >= earlier.end_s, (
                    "FIFO violated: a later-enqueued frame was taken "
                    f"first ({earlier} vs {later})")


@SETTINGS
@given(flow=st.booleans(),
       num_clients=st.integers(min_value=1, max_value=3),
       seed=st.integers(min_value=0, max_value=3),
       fault=FAULTS)
def test_flow_invariants_hold_under_random_schedules(
        flow, num_clients, seed, fault):
    pipeline, clients, tracer = _run_schedule(
        flow, num_clients, seed, fault)

    ledgers = []
    for service in PIPELINE_ORDER:
        for instance in pipeline.instances(service):
            # Conservation: the ledger balances *exactly*, even with a
            # crash mid-run (detach drain) or a round in flight at the
            # simulation horizon.
            ledgers.append(check_sidecar_conservation(instance))
            sidecar = instance.sidecar
            # Credits are clamped headroom: never negative.
            assert sidecar.credits() >= 0
            # Only served frames sample the queue-wait sketch.
            assert sidecar.stats.queue_wait_samples_s.total == \
                sidecar.stats.dispatched
            # Staleness: whatever reached the sketch waited at most
            # the threshold (the sketch's maximum is exact, not a
            # bucket estimate).
            maximum = sidecar.stats.queue_wait_samples_s.maximum
            assert maximum is None or maximum <= THRESHOLD_S + 1e-9

    # At least one sidecar did real work — the schedule wasn't vacuous.
    assert sum(ledger.enqueued for ledger in ledgers) > 0

    # Staleness, via the tracer this time: every dispatched frame's
    # queue span fits the threshold (stale frames never get a span).
    for key in list(tracer._traces):
        for span in tracer.trace(key).spans:
            if span.kind == "queue":
                assert span.duration_s <= THRESHOLD_S + 1e-9

    _check_fifo_per_client(tracer)


@SETTINGS
@given(flow=st.booleans(),
       seed=st.integers(min_value=0, max_value=3))
def test_conservation_with_and_without_batching(flow, seed):
    """The ledger balances identically whether dispatch batches (flow
    on) or hands frames over one at a time (flow off)."""
    pipeline, clients, __ = _run_schedule(flow, 2, seed, None)
    for sidecar in _sidecars(pipeline):
        if not flow:
            assert sidecar.stats.batched_rounds == 0
    for service in PIPELINE_ORDER:
        for instance in pipeline.instances(service):
            check_sidecar_conservation(instance)


# ----------------------------------------------------------------------
# Worker-count independence (the determinism contract, flow edition)
# ----------------------------------------------------------------------
FLOW_CAMPAIGN = Campaign(
    name="flow-det", pipelines=("scatterpp-flow",),
    placements=("C1",), client_counts=(2,), duration_s=2.0,
    seeds=(0, 1))


def test_flow_campaign_workers_bit_identical():
    """scatterpp-flow cells shard across processes bit-for-bit."""
    serial = run_campaign(FLOW_CAMPAIGN)
    sharded = run_campaign(FLOW_CAMPAIGN, workers=4)
    assert not serial.failures and not sharded.failures
    assert serial.digests == sharded.digests
    metrics = lambda report: {  # noqa: E731
        cell: {name: metric.values
               for name, metric in sorted(cell_metrics.items())}
        for cell, cell_metrics in sorted(report.cells.items())}
    assert metrics(serial) == metrics(sharded)


def test_flow_ledgers_cross_process_boundary():
    """Worker summaries carry balanced conservation ledgers."""
    tasks = plan_tasks(FLOW_CAMPAIGN, seeds=(0,))
    for workers in (0, 4):
        outcomes = run_tasks(tasks, workers=workers)
        for outcome in outcomes:
            assert outcome.ok, outcome.failure
            flow = outcome.summary["flow"]
            assert flow is not None
            assert set(flow["services"]) == set(PIPELINE_ORDER)
            for ledger in flow["services"].values():
                assert ledger["balance"] == 0


def test_conservation_error_is_loud():
    """A cooked ledger fails the audit with a diagnostic, not silence."""
    from repro.flow import ConservationError
    from repro.flow.invariants import check_sidecar_conservation

    pipeline, __, __t = _run_schedule(True, 1, 0, None)
    instance = pipeline.instances("sift")[0]
    instance.sidecar.stats.dispatched += 1  # cook the books
    with pytest.raises(ConservationError):
        check_sidecar_conservation(instance)
