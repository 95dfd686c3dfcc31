"""Unit tests for the flow-control substrate (repro.flow)."""

import pytest

from repro.dsp.record import FrameRecord
from repro.experiments.runner import (ExperimentSpec, build_experiment,
                                      run_experiment)
from repro.flow import (
    CreditAdvertisement,
    CreditLedger,
    TokenBucket,
    check_sidecar_conservation,
)
from repro.flow.config import ADMISSION_BURST, BATCH_MAX
from repro.net.addresses import Address
from repro.scatter import config
from repro.scatter.config import baseline_configs
from repro.scatterpp.sidecar import SidecarStats


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------
def test_token_bucket_burst_then_rate():
    bucket = TokenBucket(10.0, 3)
    takes = [bucket.take(0.0) for __ in range(4)]
    assert takes == [True, True, True, False]
    # 0.1 s refills exactly one token at 10/s.
    assert not bucket.take(0.05)
    assert bucket.take(0.1)
    assert bucket.granted == 4 and bucket.denied == 2


def test_token_bucket_never_exceeds_burst():
    bucket = TokenBucket(100.0, 2)
    assert [bucket.take(1000.0) for __ in range(3)] == [True, True, False]


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucket(0.0, 1)
    with pytest.raises(ValueError):
        TokenBucket(1.0, 0)


def test_token_bucket_time_going_backwards_is_harmless():
    bucket = TokenBucket(10.0, 1)
    assert bucket.take(1.0)
    assert not bucket.take(0.5)
    assert not bucket.take(1.0)  # going back refilled nothing


# ----------------------------------------------------------------------
# CreditLedger
# ----------------------------------------------------------------------
def _ad(credits, seq, sent_s=0.0, instance="i0", service="sift"):
    return CreditAdvertisement(service=service, instance=instance,
                               credits=credits, seq=seq, sent_s=sent_s)


def test_ledger_cold_start_allows_sends():
    ledger = CreditLedger("sift")
    assert ledger.take(0.0)  # no signal => optimistic send


def test_ledger_tracks_and_spends_credits():
    ledger = CreditLedger("sift")
    ledger.update(_ad(2, seq=1), now=0.0)
    assert ledger.take(0.0) and ledger.take(0.0)
    assert not ledger.take(0.0)  # drained: shed
    assert not ledger.take(0.0)  # never negative
    assert ledger.shortfalls == 2


def test_ledger_ignores_foreign_service_and_stale_seq():
    ledger = CreditLedger("sift")
    ledger.update(_ad(5, seq=2), now=0.0)
    ledger.update(_ad(9, seq=1), now=0.0)  # reordered: ignored
    ledger.update(_ad(9, seq=3, service="encoding"), now=0.0)
    assert [ledger.take(0.0) for __ in range(6)] == [True] * 5 + [False]


def test_ledger_rejects_negative_advertisements():
    ledger = CreditLedger("sift")
    with pytest.raises(ValueError):
        ledger.update(_ad(-1, seq=1), now=0.0)


def test_ledger_ttl_expiry_restores_cold_start():
    ledger = CreditLedger("sift", ttl_s=0.5)
    ledger.update(_ad(0, seq=1, sent_s=0.0), now=0.0)
    assert not ledger.take(0.1)  # fresh zero-credit signal: shed
    assert ledger.take(1.0)  # signal expired: back to optimistic


def test_ledger_spends_from_richest_instance():
    ledger = CreditLedger("sift")
    ledger.update(_ad(1, seq=1, instance="a"), now=0.0)
    ledger.update(_ad(3, seq=1, instance="b"), now=0.0)
    assert ledger.take(0.0)  # b went 3 -> 2, a kept 1
    ledger.retire_instance("b")
    assert ledger.take(0.0)
    assert not ledger.take(0.0)


# ----------------------------------------------------------------------
# Admission control
# ----------------------------------------------------------------------
def test_token_bucket_admission_is_per_client_fair():
    """A hot client that enqueues more than ``ADMISSION_BURST`` frames
    at once at one sidecar drains only its own bucket: the excess is
    rejected, a second client is still admitted, and the ledger
    balances once the queue has drained."""
    sim, __, __o, pipeline, __c = build_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=1, duration_s=1.0,
        scatterpp=True, flow=True))
    primary = pipeline.instances("primary")[0]

    def frame(client_id, frame_number):
        # Unbound reply addresses: the results are dropped on arrival.
        return FrameRecord(
            client_id=client_id, frame_number=frame_number,
            reply_to=Address("nuc0", 9100 + client_id), step="primary",
            created_s=0.0, size_bytes=config.WIRE_SIZES["client->primary"])

    hot = [primary.sidecar.enqueue(frame(5, number))
           for number in range(ADMISSION_BURST + 3)]
    assert hot == [True] * ADMISSION_BURST + [False] * 3
    assert primary.sidecar.enqueue(frame(6, 0))
    assert primary.sidecar.stats.rejected == 3
    sim.run(until=1.0)
    ledger = check_sidecar_conservation(primary)
    assert ledger.enqueued == ADMISSION_BURST + 1


# ----------------------------------------------------------------------
# SidecarStats ratios
# ----------------------------------------------------------------------
def test_reject_ratio_is_separate_from_drop_ratio():
    stats = SidecarStats()
    stats.enqueued = 50
    stats.rejected = 50
    stats.dispatched = 50
    assert stats.reject_ratio() == pytest.approx(0.5)
    # Admission sheds half the arrivals, yet not one queue exit was a
    # stale drop — the old drop_ratio alone would report zero loss.
    assert stats.drop_ratio() == 0.0


def test_ratios_are_zero_without_traffic():
    stats = SidecarStats()
    assert stats.reject_ratio() == 0.0
    assert stats.drop_ratio() == 0.0
    assert stats.overflow_ratio() == 0.0


# ----------------------------------------------------------------------
# End-to-end behaviour of the wired substrate
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flow_run():
    return run_experiment(ExperimentSpec(
        baseline_configs()["C1"], num_clients=4, duration_s=8.0,
        flow=True, scatterpp=True))


def _sidecars(result):
    return [instance.sidecar
            for service in ("primary", "sift", "encoding", "lsh",
                            "matching")
            for instance in result.pipeline.instances(service)]


def test_queue_wait_reservoir_samples_only_served_frames(flow_run):
    for sidecar in _sidecars(flow_run):
        assert sidecar.stats.queue_wait_samples_s.total == \
            sidecar.stats.dispatched


def test_queue_wait_contract_holds_without_flow():
    result = run_experiment(ExperimentSpec(
         baseline_configs()["C1"], num_clients=4, duration_s=8.0,
        scatterpp=True))
    stale = 0
    for sidecar in _sidecars(result):
        assert sidecar.stats.queue_wait_samples_s.total == \
            sidecar.stats.dispatched
        stale += sidecar.stats.dropped_stale
    assert stale > 0  # the contract was exercised, not vacuous


def test_batched_dispatch_engages_under_load(flow_run):
    stats = [s.stats for s in _sidecars(flow_run)]
    assert sum(s.batched_rounds for s in stats) > 0
    assert sum(s.batched_frames for s in stats) > \
        sum(s.batched_rounds for s in stats)
    assert sum(s.batched_frames for s in stats) <= \
        BATCH_MAX * sum(s.batched_rounds for s in stats)


def test_credit_advertisements_reach_clients(flow_run):
    paced = sum(c.frames_paced for c in flow_run.clients)
    sent = sum(c.frames_sent for c in flow_run.clients)
    assert 0 < paced < sent


def test_flow_summary_attached_and_serializable(flow_run):
    import json

    summary = flow_run.flow
    assert summary is not None
    assert set(summary) == {"services", "paced_frames", "batched_rounds",
                            "batched_frames", "shed_backpressure"}
    assert set(summary["services"]) == {"primary", "sift", "encoding",
                                        "lsh", "matching"}
    for ledger in summary["services"].values():
        assert ledger["balance"] == 0
    json.dumps(summary)  # crosses process boundaries as JSON


def test_flow_requires_sidecars():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(
            baseline_configs()["C1"], num_clients=1, duration_s=1.0,
            with_sidecars=False, flow=True, scatterpp=True))
