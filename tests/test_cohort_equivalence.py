"""The cohort ≡ micro equivalence contract, pinned.

Three layers of proof that the cohort machinery cannot silently
perturb microscopic results:

* **all-tracer equivalence** — a cohort of size N with N tracers has
  zero macro members; the engine must spawn no events and draw no RNG,
  so the run is *bit-identical* (trace digest, per-client QoS, flow
  ledgers) to the plain scAtteR++ run with the same arguments;
* **golden digests with cohorts off** — the committed determinism
  golden file must still hold, serial and sharded (workers 0 and 4):
  merely importing/registering the cohort subsystem must not move any
  existing trajectory;
* **hybrid determinism** — with macro members the run walks its own
  trajectory, but the same seed reproduces it exactly, cohort ledger
  included, and conservation holds.
"""

import json

import pytest

from repro.experiments.campaign import run_campaign
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.experiments.store import summarize_result
from repro.scatter.config import baseline_configs
from tests.test_determinism import (CONTRACT_CAMPAIGN, GOLDEN_PATH,
                                    _digest_map)

PLACEMENT = baseline_configs()["C1"]
DURATION_S = 2.0


def micro_run(*, flow, seed=0, clients=2):
    return run_experiment(ExperimentSpec(
        PLACEMENT, num_clients=clients, duration_s=DURATION_S,
        seed=seed, flow=flow, scatterpp=True))


def all_tracer_run(*, flow, seed=0, clients=2):
    return run_experiment(ExperimentSpec(
        PLACEMENT, clients, duration_s=DURATION_S, seed=seed,
        scatterpp=True, flow=flow, cohort_size=clients))


# ----------------------------------------------------------------------
# All-tracer cohort == plain microscopic run, bit for bit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flow_on", [False, True],
                         ids=["flow-off", "flow-on"])
def test_all_tracer_cohort_is_bit_identical_to_micro(flow_on):
    micro = micro_run(flow=flow_on)
    cohort = all_tracer_run(flow=flow_on)
    # Same event trajectory: the macro layer was provably inert.
    assert cohort.trace_digest == micro.trace_digest
    # Same QoS, compared exactly — no tolerance.
    assert cohort.per_client_fps() == micro.per_client_fps()
    assert [c.e2e_latencies_s for c in cohort.clients] == \
        [c.e2e_latencies_s for c in micro.clients]
    assert cohort.success_rate() == micro.success_rate()
    if flow_on:
        assert cohort.flow["services"] == micro.flow["services"]


def test_all_tracer_summary_matches_micro_summary():
    """The store-level view agrees too — everything except the cohort
    block (absent from micro runs) is identical."""
    micro = summarize_result(micro_run(flow=True))
    cohort = summarize_result(all_tracer_run(flow=True))
    macro_block = cohort.pop("cohort")
    micro_block = micro.pop("cohort")
    assert micro_block is None
    assert cohort == micro
    # The macro layer reports itself inert: nothing offered, nothing
    # served, ledger balanced at zero.
    assert macro_block["spec"]["macro_members"] == 0
    assert macro_block["ledger"]["offered"] == 0
    assert macro_block["ledger"]["balance"] == 0
    assert macro_block["latency_ms"]["count"] == 0


def test_all_tracer_cohort_matches_across_seeds():
    for seed in (1, 7):
        micro = micro_run(flow=False, seed=seed)
        cohort = all_tracer_run(flow=False, seed=seed)
        assert cohort.trace_digest == micro.trace_digest


# ----------------------------------------------------------------------
# Cohort-off golden digests, serial and sharded
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 4],
                         ids=["serial", "4-workers"])
def test_cohort_off_campaign_matches_golden_digests(workers):
    report = run_campaign(CONTRACT_CAMPAIGN, workers=workers)
    assert not report.failures
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _digest_map(report) == golden["digests"], (
        "Cohort-off campaign digests drifted from the committed "
        "golden file: the cohort subsystem has perturbed existing "
        "trajectories.")


# ----------------------------------------------------------------------
# Hybrid runs: deterministic per seed, conservation holds
# ----------------------------------------------------------------------
def hybrid_run(seed=0, load="constant"):
    return run_experiment(ExperimentSpec(
        PLACEMENT, 2, duration_s=DURATION_S, seed=seed, scatterpp=True,
        flow=True, cohort_size=500, cohort_load=load))


def test_hybrid_run_is_deterministic_per_seed():
    first = hybrid_run(seed=0)
    second = hybrid_run(seed=0)
    assert first.trace_digest == second.trace_digest
    assert first.cohort == second.cohort
    assert first.per_client_fps() == second.per_client_fps()


def test_hybrid_poisson_load_is_deterministic_per_seed():
    first = hybrid_run(seed=3, load="poisson")
    second = hybrid_run(seed=3, load="poisson")
    assert first.cohort == second.cohort
    assert first.trace_digest == second.trace_digest
    # A different seed draws a different arrival sample path.
    other = hybrid_run(seed=4, load="poisson")
    assert other.cohort["ledger"] != first.cohort["ledger"]


def test_hybrid_ledger_balances_and_meters_to_capacity():
    result = hybrid_run(seed=0)
    ledger = result.cohort["ledger"]
    assert ledger["balance"] == 0
    assert ledger["offered"] > 0
    assert ledger["served"] > 0
    # The macro layer cannot out-serve the modeled bottleneck.
    assert result.cohort["served_fps"] <= \
        result.cohort["bottleneck_capacity_fps"] + 1.0


def test_tracer_qos_unaffected_by_macro_bookkeeping_scale():
    """Tracers contend with macro load through real credits, so their
    QoS differs from a no-cohort run — but the *size* of the macro
    bookkeeping must not matter beyond the load it represents: equal
    macro populations at different spec sizes behave identically when
    the load process offers the same frames."""
    small = run_experiment(ExperimentSpec(
        PLACEMENT, 2, duration_s=DURATION_S, seed=0, scatterpp=True,
        flow=True, cohort_size=302))
    again = run_experiment(ExperimentSpec(
        PLACEMENT, 2, duration_s=DURATION_S, seed=0, scatterpp=True,
        flow=True, cohort_size=302))
    assert small.trace_digest == again.trace_digest
    assert small.cohort == again.cohort
