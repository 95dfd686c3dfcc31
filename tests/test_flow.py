"""Unit tests for the flow-control substrate (repro.flow)."""

import pytest

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.flow import (
    ADMISSION_POLICIES,
    CreditAdvertisement,
    CreditLedger,
    FlowConfig,
    QueueGradientAdmission,
    TokenBucket,
    TokenBucketAdmission,
    build_admission,
    default_flow_config,
    neutral_flow_config,
)
from repro.scatter.config import baseline_configs
from repro.scatterpp.sidecar import SidecarStats


# ----------------------------------------------------------------------
# FlowConfig
# ----------------------------------------------------------------------
def test_flow_config_defaults_validate():
    flow = default_flow_config()
    assert flow.admission in ADMISSION_POLICIES
    assert flow.batch_max >= 1
    assert flow.credits and flow.client_pacing


def test_flow_config_rejects_bad_values():
    for overrides in ({"admission": "nope"}, {"batch_max": 0},
                      {"admission_rate_fps": 0.0},
                      {"admission_burst": 0},
                      {"gradient_lookahead_s": -1.0},
                      {"advertise_interval_s": 0.0},
                      {"credit_ttl_s": 0.0},
                      {"upstream_window_s": 0.0},
                      {"client_rate_fps": -5.0},
                      {"client_burst": 0}):
        with pytest.raises(ValueError):
            FlowConfig(**overrides)


def test_with_overrides_revalidates():
    flow = default_flow_config()
    assert flow.with_overrides(batch_max=8).batch_max == 8
    assert flow.batch_max != 8  # frozen original untouched
    with pytest.raises(ValueError):
        flow.with_overrides(batch_max=0)


def test_neutral_config_disables_every_mechanism():
    neutral = neutral_flow_config()
    assert neutral.admission == "always"
    assert neutral.batch_max == 1
    assert not neutral.credits and not neutral.client_pacing
    assert build_admission(neutral) is None


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
# Admission policies
# ----------------------------------------------------------------------
def test_build_admission_maps_always_to_none():
    assert build_admission(neutral_flow_config()) is None
    assert isinstance(
        build_admission(FlowConfig(admission="token-bucket")),
        TokenBucketAdmission)
    assert isinstance(
        build_admission(FlowConfig(admission="queue-gradient")),
        QueueGradientAdmission)


def test_token_bucket_admission_is_per_client_fair():
    policy = TokenBucketAdmission(rate_fps=10.0, burst=2)
    # A hot client drains only its own bucket...
    hot = [policy.admit(client_id=0, now=0.0, depth=0, target_depth=8)
           for __ in range(5)]
    assert hot == [True, True, False, False, False]
    # ...the well-behaved client is untouched.
    assert policy.admit(client_id=1, now=0.0, depth=0, target_depth=8)


def test_queue_gradient_admits_inside_window():
    policy = QueueGradientAdmission(lookahead_s=0.05, rate_fps=1.0,
                                    burst=1)
    for step in range(5):
        assert policy.admit(client_id=0, now=step * 0.01, depth=0,
                            target_depth=8)


def test_queue_gradient_sheds_on_projected_overflow():
    policy = QueueGradientAdmission(lookahead_s=1.0, rate_fps=0.001,
                                    burst=1)
    # Depth ramping hard: projection breaks the window, so admission
    # falls back to the (nearly empty) per-client buckets.
    decisions = [policy.admit(client_id=0, now=0.001 * step,
                              depth=4 * step, target_depth=8)
                 for step in range(1, 8)]
    assert not all(decisions)


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
        flow=default_flow_config(), scatterpp=True))


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


def test_credit_advertisements_reach_clients(flow_run):
    paced = sum(c.frames_paced for c in flow_run.clients)
    sent = sum(c.frames_sent for c in flow_run.clients)
    assert 0 < paced < sent


def test_flow_summary_attached_and_serializable(flow_run):
    import json

    summary = flow_run.flow
    assert summary is not None
    assert summary["config"]["batch_max"] == \
        default_flow_config().batch_max
    assert set(summary["services"]) == {"primary", "sift", "encoding",
                                        "lsh", "matching"}
    for ledger in summary["services"].values():
        assert ledger["balance"] == 0
    json.dumps(summary)  # crosses process boundaries as JSON


def test_flow_requires_sidecars():
    with pytest.raises(ValueError):
        run_experiment(ExperimentSpec(
            baseline_configs()["C1"], num_clients=1, duration_s=1.0,
            with_sidecars=False, flow=default_flow_config(), scatterpp=True))
