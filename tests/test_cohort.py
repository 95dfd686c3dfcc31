"""Unit tests for the cohort subsystem (loads, spec, ledger, engine).

The cross-cutting contracts (all-tracer bit-equivalence, golden
digests, hybrid determinism) live in ``test_cohort_equivalence.py``;
this file covers the pieces in isolation.
"""

import numpy as np
import pytest

from repro.cohort import (CohortEngine, CohortLedger, CohortSpec,
                          LOAD_PROCESSES, build_load_process,
                          check_cohort_conservation)
from repro.flow.config import BATCH_MAX
from repro.flow.credits import (CreditAdvertisement, CreditLedger,
                                TokenBucket)
from repro.flow.invariants import ConservationError
from repro.orchestra.placement import PlacementOptimizer, pipeline_capacity


# ----------------------------------------------------------------------
# Load processes
# ----------------------------------------------------------------------
def offered(process, **kwargs):
    defaults = dict(now=0.0, tick_s=0.1, members=100, fps=30.0,
                    rng=None)
    defaults.update(kwargs)
    return process.offered_frames(**defaults)


def test_constant_load_offers_full_rate():
    process = build_load_process("constant")
    assert offered(process) == pytest.approx(300.0)
    assert offered(process, now=55.0) == pytest.approx(300.0)


def test_ramp_load_activates_linearly():
    process = build_load_process("ramp", ramp_s=10.0)
    assert offered(process, now=0.0) == pytest.approx(0.0)
    assert offered(process, now=5.0) == pytest.approx(150.0)
    assert offered(process, now=10.0) == pytest.approx(300.0)
    assert offered(process, now=60.0) == pytest.approx(300.0)


def test_diurnal_load_oscillates_between_floor_and_full():
    process = build_load_process("diurnal", period_s=60.0, floor=0.25)
    values = [offered(process, now=t) for t in np.linspace(0, 60, 61)]
    assert min(values) >= 0.25 * 300.0 - 1e-6
    assert max(values) <= 300.0 + 1e-6
    assert max(values) > min(values)  # actually oscillates


def test_poisson_load_draws_from_stream_deterministically():
    process = build_load_process("poisson")
    assert process.uses_rng
    first = offered(process, rng=np.random.default_rng(5))
    second = offered(process, rng=np.random.default_rng(5))
    assert first == second
    assert first == pytest.approx(300.0, rel=0.5)
    with pytest.raises(ValueError):
        offered(process, rng=None)
    assert offered(process, members=0,
                   rng=np.random.default_rng(5)) == 0.0


def test_load_registry_and_validation():
    assert set(LOAD_PROCESSES) == {"constant", "ramp", "diurnal",
                                   "poisson"}
    with pytest.raises(ValueError):
        build_load_process("flash-mob")
    with pytest.raises(ValueError):
        build_load_process("ramp", ramp_s=0.0)
    with pytest.raises(ValueError):
        build_load_process("diurnal", floor=1.5)


# ----------------------------------------------------------------------
# CohortSpec
# ----------------------------------------------------------------------
def test_spec_macro_members_and_dict():
    spec = CohortSpec(size=1000, tracers=4)
    assert spec.macro_members == 996
    payload = spec.as_dict()
    assert payload["size"] == 1000
    assert payload["macro_members"] == 996
    assert payload["load"] == "constant"


@pytest.mark.parametrize("kwargs", [
    dict(size=0, tracers=1),
    dict(size=10, tracers=0),
    dict(size=10, tracers=11),
    dict(size=10, tracers=2, member_fps=0.0),
    dict(size=10, tracers=2, tick_s=-0.1),
    dict(size=10, tracers=2, load="nope"),
])
def test_spec_validation(kwargs):
    with pytest.raises(ValueError):
        CohortSpec(**kwargs)


# ----------------------------------------------------------------------
# Aggregate flow primitives (take_many)
# ----------------------------------------------------------------------
def test_token_bucket_take_many_matches_sequential_takes():
    aggregate = TokenBucket(100.0, 10)
    sequential = TokenBucket(100.0, 10)
    taken = sum(1 for _ in range(25) if sequential.take(1.0))
    assert aggregate.take_many(1.0, 25) == taken
    assert aggregate.granted == sequential.granted
    assert aggregate.denied == sequential.denied
    assert aggregate.take_many(1.0, 0) == 0
    with pytest.raises(ValueError):
        aggregate.take_many(1.0, -1)


def test_token_bucket_take_many_refills_over_time():
    bucket = TokenBucket(50.0, 100)
    assert bucket.take_many(0.0, 200) == 100  # initial burst
    assert bucket.take_many(1.0, 200) == 50  # one second of refill
    # Refill is clamped at burst: idle time does not bank past it.
    assert bucket.take_many(10.0, 200) == 100


def test_credit_ledger_take_many_cold_start_grants_all():
    ledger = CreditLedger("primary")
    assert ledger.take_many(0.0, 1000) == 1000
    assert ledger.shortfalls == 0


def test_credit_ledger_take_many_drains_richest_first():
    ledger = CreditLedger("primary", ttl_s=10.0)
    ledger.update(CreditAdvertisement("primary", "a", 5, 1, 0.0), 0.0)
    ledger.update(CreditAdvertisement("primary", "b", 20, 1, 0.0), 0.0)
    assert ledger.take_many(0.0, 18) == 18
    # richest (b: 20) drained first, a untouched.
    ledger.retire_instance("b")
    assert ledger.take_many(0.0, 50) == 5
    assert ledger.shortfalls == 45


def test_credit_ledger_take_many_zero_and_negative():
    ledger = CreditLedger("primary")
    assert ledger.take_many(0.0, 0) == 0
    with pytest.raises(ValueError):
        ledger.take_many(0.0, -5)


# ----------------------------------------------------------------------
# Ledger conservation
# ----------------------------------------------------------------------
def test_ledger_balance_zero_when_consistent():
    ledger = CohortLedger(offered=100, shed_credits=10, paced=5,
                          rejected=5, served=70, dropped_stale=8,
                          pending=2)
    assert ledger.balance == 0
    assert check_cohort_conservation(ledger) is ledger
    assert ledger.as_dict()["balance"] == 0


def test_ledger_conservation_raises_on_imbalance():
    with pytest.raises(ConservationError):
        check_cohort_conservation(CohortLedger(offered=10, served=5))


def test_ledger_conservation_raises_on_negative_counter():
    ledger = CohortLedger(offered=0, served=5, pending=-5)
    with pytest.raises(ConservationError):
        check_cohort_conservation(ledger)


# ----------------------------------------------------------------------
# Capacity model and engine (against a real deployment)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def deployed():
    from repro.experiments.runner import ExperimentSpec, build_experiment
    from repro.scatter.config import baseline_configs

    sim, testbed, orchestrator, pipeline, clients = build_experiment(
        ExperimentSpec(baseline_configs()["C1"], 1, scatterpp=True,
                       flow=True))
    return sim, pipeline


def test_capacity_model_covers_every_service(deployed):
    __, pipeline = deployed
    model = pipeline_capacity(pipeline, flow=True)
    assert set(model.capacity_fps) == {"primary", "sift", "encoding",
                                       "lsh", "matching"}
    assert all(rate > 0 for rate in model.capacity_fps.values())
    assert model.bottleneck_fps == min(model.capacity_fps.values())
    # SIFT is the paper's slowest stage; on C1 it shares E1's first
    # GPU with lsh, and the first of the tied pair is the bottleneck.
    assert model.bottleneck_service == "sift"
    assert model.capacity_fps["lsh"] == model.bottleneck_fps
    assert model.base_latency_s > 0


def test_batching_raises_modeled_capacity(deployed):
    __, pipeline = deployed
    batched = pipeline_capacity(pipeline, flow=True)
    unbatched = pipeline_capacity(pipeline, flow=False)
    assert BATCH_MAX > 1
    assert batched.bottleneck_fps > unbatched.bottleneck_fps


def test_engine_and_optimizer_agree_on_the_bottleneck():
    """Both callers read one model: on C12, E2's first GPU carries
    encoding and matching, so encoding binds — not sift, the slowest
    stage on its own."""
    from repro.experiments.runner import ExperimentSpec, build_experiment
    from repro.scatter.config import PIPELINE_ORDER, baseline_configs

    placement = baseline_configs()["C12"]
    sim, __, __, pipeline, __ = build_experiment(
        ExperimentSpec(placement, 1, scatterpp=True))
    engine = CohortEngine(sim, CohortSpec(size=100, tracers=1), pipeline)
    estimate = PlacementOptimizer().estimate(
        {s: placement.placements[s][0] for s in PIPELINE_ORDER})
    assert engine.capacity.bottleneck_service == estimate.bottleneck \
        == "encoding"
    assert engine.capacity.bottleneck_fps == estimate.throughput_fps


def test_engine_validation(deployed):
    sim, pipeline = deployed
    spec = CohortSpec(size=100, tracers=1)
    with pytest.raises(ValueError):
        CohortEngine(sim, spec, pipeline, threshold_s=0.0)
    with pytest.raises(ValueError):  # poisson needs an RNG stream
        CohortEngine(sim, CohortSpec(size=100, tracers=1,
                                     load="poisson"), pipeline)
    engine = CohortEngine(sim, spec, pipeline, flow=True)
    with pytest.raises(ValueError):
        engine.start(0.0)
    engine.start(1.0)
    with pytest.raises(RuntimeError):
        engine.start(1.0)


def test_all_tracer_engine_spawns_nothing(deployed):
    sim, pipeline = deployed
    engine = CohortEngine(sim, CohortSpec(size=3, tracers=3),
                          pipeline, flow=True)
    before = sim.now
    engine.start(5.0)
    sim.run(until=before + 5.0)
    assert engine.ledger.offered == 0
    assert engine.ledger.as_dict()["balance"] == 0
    assert engine.latency.count == 0


@pytest.mark.parametrize("kernel", ["optimized", "reference"])
def test_tick_train_fires_on_the_float_recurrence(deployed, kernel):
    """An hour of 0.1 s ticks, pre-scheduled as plain relative delays
    from ``now == 0.0``: every tick fires at exactly the ``w += tick``
    recurrence, bit for bit, on both kernel backends."""
    from repro.sim import _kernel_impl, reference

    module = _kernel_impl if kernel == "optimized" else reference
    __, pipeline = deployed
    sim = module.Simulator()
    fired = []

    class Recording(CohortEngine):
        def _tick(self, tick_s):
            fired.append(self.sim.now)

    engine = Recording(sim, CohortSpec(size=100, tracers=1, tick_s=0.1),
                       pipeline, flow=True)
    assert sim.now == 0.0
    engine.start(3600.0)
    sim.run()
    expected = []
    when = 0.0
    while when + 0.1 <= 3600.0 + 1e-12:
        when = when + 0.1
        expected.append(when)
    assert len(expected) == 36_000
    assert [t.hex() for t in fired] == [t.hex() for t in expected]
