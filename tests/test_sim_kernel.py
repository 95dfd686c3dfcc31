"""Unit tests for the discrete-event kernel."""

import functools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Simulator,
    SimulationError,
    Timeout,
)
from repro.sim import kernel as kernel_mod
from repro.sim import reference as reference_mod
from repro.sim.kernel import TraceDigest, _event_kind


def test_empty_run_returns_zero():
    sim = Simulator()
    assert sim.run() == 0.0


def test_run_until_advances_clock_without_events():
    sim = Simulator()
    assert sim.run(until=5.0) == 5.0
    assert sim.now == 5.0


def test_schedule_orders_by_time():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(3.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in ("x", "y", "z"):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == ["x", "y", "z"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, True)
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run()
    assert fired == [True]


def test_process_timeout_sequencing():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(("start", sim.now))
        yield sim.timeout(1.5)
        trace.append(("mid", sim.now))
        yield sim.timeout(0.5)
        trace.append(("end", sim.now))

    sim.spawn(proc())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.5), ("end", 2.0)]


def test_process_return_value_via_join():
    sim = Simulator()
    results = []

    def worker():
        yield sim.timeout(1.0)
        return 42

    def waiter():
        value = yield sim.spawn(worker())
        results.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert results == [(1.0, 42)]


def test_signal_delivers_value():
    sim = Simulator()
    signal = sim.signal()
    got = []

    def waiter():
        value = yield signal
        got.append(value)

    def firer():
        yield sim.timeout(2.0)
        signal.fire("payload")

    sim.spawn(waiter())
    sim.spawn(firer())
    sim.run()
    assert got == ["payload"]


def test_signal_fire_twice_raises():
    sim = Simulator()
    signal = sim.signal()
    signal.fire(1)
    with pytest.raises(SimulationError):
        signal.fire(2)


def test_wait_on_already_fired_signal_resumes_immediately():
    sim = Simulator()
    signal = sim.signal()
    signal.fire("early")
    got = []

    def waiter():
        value = yield signal
        got.append((sim.now, value))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, "early")]


def test_any_of_returns_winner():
    sim = Simulator()
    got = []

    def waiter():
        fast = sim.timeout(1.0, "fast")
        slow = sim.timeout(5.0, "slow")
        winner, value = yield sim.any_of([fast, slow])
        got.append((sim.now, value, winner is fast))

    sim.spawn(waiter())
    sim.run()
    assert got == [(1.0, "fast", True)]


def test_any_of_empty_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        AnyOf(sim, [])


def test_all_of_collects_values():
    sim = Simulator()
    got = []

    def waiter():
        values = yield AllOf(sim, [sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
        got.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert got == [(2.0, ["a", "b"])]


def test_interrupt_raises_in_process():
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            trace.append("slept")
        except Interrupt as interrupt:
            trace.append(("interrupted", sim.now, interrupt.cause))

    proc = sim.spawn(sleeper())

    def interrupter():
        yield sim.timeout(3.0)
        proc.interrupt("wake")

    sim.spawn(interrupter())
    sim.run()
    assert trace == [("interrupted", 3.0, "wake")]


def test_interrupted_process_ignores_stale_wakeup():
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(5.0)
            trace.append("timeout-fired")
        except Interrupt:
            trace.append("interrupted")
            yield sim.timeout(10.0)
            trace.append("second-sleep-done")

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt, None)
    sim.run()
    # The original 5 s timeout must not resume the process spuriously.
    assert trace == ["interrupted", "second-sleep-done"]
    assert sim.now == 11.0


def test_unhandled_interrupt_terminates_process():
    sim = Simulator()

    def sleeper():
        yield sim.timeout(100.0)

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt, "bye")
    sim.run()
    assert proc.fired
    assert proc.value == "bye"


def test_interrupt_after_death_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.spawn(quick())
    sim.run()
    proc.interrupt("late")
    sim.run()
    assert proc.value is None


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Timeout(sim, -1.0)


def test_nested_process_spawning():
    sim = Simulator()
    order = []

    def child(tag, delay):
        yield sim.timeout(delay)
        order.append(tag)
        return tag

    def parent():
        first = yield sim.spawn(child("one", 1.0))
        second = yield sim.spawn(child("two", 1.0))
        order.append((first, second, sim.now))

    sim.spawn(parent())
    sim.run()
    assert order == ["one", "two", ("one", "two", 2.0)]


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def evil():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(str(exc))

    sim.schedule(1.0, evil)
    sim.run()
    assert errors and "re-entrant" in errors[0]


# ----------------------------------------------------------------------
# Trace digest
# ----------------------------------------------------------------------
def test_trace_digest_identical_for_identical_programs():
    def run_once():
        sim = Simulator()

        def proc():
            yield sim.timeout(1.5)
            yield sim.timeout(0.5)

        sim.spawn(proc())
        sim.run()
        return sim.fingerprint(), sim.digest.events

    first, second = run_once(), run_once()
    assert first == second
    assert first[1] > 0


def test_trace_digest_differs_when_trajectory_differs():
    def run_once(delay):
        sim = Simulator()
        sim.schedule(delay, lambda: None)
        sim.run()
        return sim.fingerprint()

    assert run_once(1.0) != run_once(2.0)


# ----------------------------------------------------------------------
# Property-based: random waitable-DAG programs
# ----------------------------------------------------------------------
#
# A seeded generator builds an arbitrary program out of Timeout /
# Signal / AnyOf / AllOf / child-process joins / interrupts, runs it,
# and records every completion.  Invariants checked on every program:
# replay stability (identical log and digest on a fresh simulator), no
# double-resume (each (process, step) completes exactly once), no
# double-fire (the kernel would raise SimulationError), and quiescence
# (every process terminates — each waitable is bounded by a timeout or
# a firer).

def _random_program(seed, mod=kernel_mod):
    """Build and run one random program; return (log, fingerprint).

    ``mod`` selects the kernel implementation (:mod:`repro.sim.kernel`
    or its pre-optimization twin :mod:`repro.sim.reference`); the
    program itself only touches ``Simulator`` methods, so the same
    seed replays the identical program on either kernel.
    """
    sim = mod.Simulator()
    interrupt_cls = mod.Interrupt
    rng = random.Random(seed)
    log = []
    signals = [sim.signal() for __ in range(rng.randint(1, 3))]

    def body(pid, depth):
        for step in range(rng.randint(1, 4)):
            try:
                roll = rng.random()
                if roll < 0.35 or depth >= 2:
                    value = yield sim.timeout(
                        rng.randrange(0, 300) / 100.0, ("t", step))
                elif roll < 0.50:
                    winner, value = yield sim.any_of(
                        [rng.choice(signals),
                         sim.timeout(rng.randrange(1, 250) / 100.0,
                                     "deadline")])
                elif roll < 0.65:
                    value = yield mod.AllOf(
                        sim, [sim.timeout(rng.randrange(0, 150) / 100.0),
                         sim.timeout(rng.randrange(0, 150) / 100.0)])
                elif roll < 0.85:
                    value = yield sim.spawn(
                        body(f"{pid}.{step}", depth + 1),
                        name=f"{pid}.{step}")
                else:
                    value = yield sim.timeout(
                        rng.randrange(50, 400) / 100.0)
            except interrupt_cls as interrupt:
                log.append((round(sim.now, 9), pid, step,
                            "interrupted", str(interrupt.cause)))
                continue
            log.append((round(sim.now, 9), pid, step, "done",
                        repr(value)))

    roots = [sim.spawn(body(f"p{index}", 0), name=f"p{index}")
             for index in range(rng.randint(2, 5))]

    def firer(index, sig, delay):
        yield sim.timeout(delay)
        if not sig.fired:
            sig.fire(("sig", index))

    for index, sig in enumerate(signals):
        sim.spawn(firer(index, sig, rng.randrange(1, 400) / 100.0),
                  name=f"firer-{index}")

    def interrupter(target, delay, cause):
        yield sim.timeout(delay)
        target.interrupt(cause)

    for count in range(rng.randint(0, 3)):
        sim.spawn(interrupter(rng.choice(roots),
                              rng.randrange(0, 350) / 100.0,
                              f"intr-{count}"),
                  name=f"interrupter-{count}")

    sim.run()
    assert all(proc.fired for proc in roots), "program did not quiesce"
    return log, sim.fingerprint()


PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_programs_replay_identically(seed):
    first_log, first_digest = _random_program(seed)
    second_log, second_digest = _random_program(seed)
    assert first_log == second_log
    assert first_digest == second_digest


@PROPERTY
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_programs_never_double_resume(seed):
    log, __ = _random_program(seed)
    completions = [(pid, step) for __t, pid, step, *__rest in log]
    assert len(completions) == len(set(completions)), \
        "a (process, step) completed twice — double resume"


@PROPERTY
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_programs_log_in_time_order(seed):
    log, __ = _random_program(seed)
    times = [entry[0] for entry in log]
    assert times == sorted(times)


@PROPERTY
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_programs_match_reference_kernel_bit_for_bit(seed):
    """The optimized kernel and its pre-optimization twin walk the
    identical trajectory: same completion log, same fingerprint."""
    opt_log, opt_digest = _random_program(seed, mod=kernel_mod)
    ref_log, ref_digest = _random_program(seed, mod=reference_mod)
    assert opt_log == ref_log
    assert opt_digest == ref_digest


# ----------------------------------------------------------------------
# Buffered digest vs reference byte stream
# ----------------------------------------------------------------------
def test_buffered_digest_matches_reference_on_random_streams():
    """Chunked blake2b folding hashes the identical byte stream.

    Streams long enough to cross several flush boundaries, with kinds
    spanning short/long/non-ASCII strings, and mid-stream hexdigest
    probes (which force partial flushes at arbitrary offsets)."""
    rng = random.Random(20260807)
    buffered = TraceDigest()
    reference = reference_mod.TraceDigest()
    kinds = ["Timeout._expire", "Process._resume", "k",
             "véry-unicode-✓-kind", "Q" * 500]
    for seq in range(5000):
        when = rng.random() * 1e4
        kind = rng.choice(kinds)
        buffered.record(when, seq, kind)
        reference.record(when, seq, kind)
        if rng.random() < 0.004:
            assert buffered.hexdigest() == reference.hexdigest()
    assert buffered.hexdigest() == reference.hexdigest()
    assert buffered.events == reference.events == 5000


def test_record_event_agrees_with_record_for_every_callback_shape():
    """The memoized ``record_event`` and the string-keyed ``record``
    digest identically across the callback zoo the kernel schedules."""
    class Carrier:
        def method(self):
            pass

        def __call__(self):
            pass

    def plain():
        pass

    callbacks = [Carrier().method, Carrier().method, Carrier(), plain,
                 lambda: None, len, print, functools.partial(plain),
                 Carrier.method]
    by_event = TraceDigest()
    by_kind = TraceDigest()
    for seq, callback in enumerate(callbacks * 7):
        by_event.record_event(0.25 * seq, seq, callback)
        by_kind.record(0.25 * seq, seq, _event_kind(callback))
    assert by_event.hexdigest() == by_kind.hexdigest()
    assert by_event.events == by_kind.events


# ----------------------------------------------------------------------
# Pre-fired composite children
# ----------------------------------------------------------------------
def test_any_of_with_prefired_child_wins_immediately():
    sim = Simulator()
    early = sim.signal()
    early.fire("early")
    got = []

    def waiter():
        winner, value = yield sim.any_of([early, sim.timeout(5.0)])
        got.append((sim.now, value, winner is early))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, "early", True)]


def test_all_of_with_prefired_child_still_waits_for_the_rest():
    sim = Simulator()
    first = sim.signal()
    first.fire("a")
    got = []

    def waiter():
        values = yield AllOf(sim, [first, sim.timeout(1.0, "b")])
        got.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert got == [(1.0, ["a", "b"])]


def test_all_of_empty_fires_with_empty_list():
    sim = Simulator()
    got = []

    def waiter():
        values = yield AllOf(sim, [])
        got.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, [])]


# ----------------------------------------------------------------------
# Interrupts racing fires
# ----------------------------------------------------------------------
def test_interrupt_racing_fire_at_same_instant_delivers_interrupt():
    """Interrupt and timeout expiry land on the same instant; the
    interrupt discards the waiter (tombstone) before the expiry runs,
    so the expiry wakes nobody and the interrupt is what arrives."""
    sim = Simulator()
    trace = []

    def sleeper():
        try:
            yield sim.timeout(1.0)
            trace.append("timeout")
        except Interrupt as interrupt:
            trace.append(("interrupted", sim.now, interrupt.cause))

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt, "race")
    sim.run()
    assert trace == [("interrupted", 1.0, "race")]


def test_self_interrupt_during_execution_is_delivered_at_next_yield():
    """An interrupt raced in while the generator was executing (here:
    the process interrupts itself) pre-empts the wait it just set up."""
    sim = Simulator()
    trace = []
    holder = []

    def body():
        yield sim.timeout(1.0)
        holder[0].interrupt("self")
        try:
            yield sim.timeout(10.0)
        except Interrupt as interrupt:
            trace.append((sim.now, interrupt.cause))

    holder.append(sim.spawn(body()))
    sim.run()
    assert trace == [(1.0, "self")]
    # The abandoned 10 s timeout still expires (harmlessly) at t=11.
    assert sim.now == 11.0


# ----------------------------------------------------------------------
# Tombstoned waiter discard
# ----------------------------------------------------------------------
def _block_on(sig, order, tag):
    value = yield sig
    order.append((tag, value))


def test_discarded_waiters_leave_wake_order_untouched():
    sim = Simulator()
    sig = sim.signal()
    order = []
    procs = [sim.spawn(_block_on(sig, order, tag), name=f"w{tag}")
             for tag in range(10)]
    sim.run()  # everyone blocks on the signal
    for tag in (2, 5, 7):
        procs[tag].interrupt("drop")
    sim.schedule(1.0, sig.fire, "go")
    sim.run()
    assert order == [(tag, "go") for tag in (0, 1, 3, 4, 6, 8, 9)]


def test_heavily_tombstoned_waiter_list_compacts_and_wakes_in_order():
    sim = Simulator()
    sig = sim.signal()
    order = []
    procs = [sim.spawn(_block_on(sig, order, tag), name=f"w{tag}")
             for tag in range(100)]
    sim.run()
    survivors = [tag for tag in range(100) if tag % 3 == 0]
    for tag in range(100):
        if tag % 3 != 0:
            procs[tag].interrupt("drop")
    # Two thirds discarded: the compaction threshold has tripped and
    # shrunk the list.  (Discards after the last compaction may have
    # left fresh tombstones; live entries must still self-index.)
    assert len(sig._waiters) < 100
    assert all(entry is None or sig._waiters[entry._wait_index] is entry
               for entry in sig._waiters)
    sim.schedule(1.0, sig.fire, "go")
    sim.run()
    assert order == [(tag, "go") for tag in survivors]


# ----------------------------------------------------------------------
# Non-Waitable yields: throw, catch-and-return, catch-and-rewait
# ----------------------------------------------------------------------
def test_non_waitable_yield_uncaught_propagates():
    sim = Simulator()

    def bad():
        yield 42

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_non_waitable_yield_caught_and_return_fires_process():
    """A generator that catches the misuse error and returns must fire
    with its return value instead of leaking StopIteration into the
    event loop."""
    sim = Simulator()

    def tolerant():
        try:
            yield 42
        except SimulationError:
            return "recovered"

    proc = sim.spawn(tolerant())
    sim.run()
    assert proc.fired
    assert proc.value == "recovered"


def test_non_waitable_yield_caught_then_valid_wait_resumes():
    sim = Simulator()

    def tolerant():
        try:
            yield "nonsense"
        except SimulationError:
            value = yield sim.timeout(1.0, "ok")
            return value

    proc = sim.spawn(tolerant())
    sim.run()
    assert proc.value == "ok"
    assert sim.now == 1.0


def test_non_waitable_yield_repeated_misuse_throws_each_time():
    sim = Simulator()

    def stubborn():
        try:
            yield 1
        except SimulationError:
            try:
                yield 2
            except SimulationError:
                return "twice"

    proc = sim.spawn(stubborn())
    sim.run()
    assert proc.value == "twice"


# ----------------------------------------------------------------------
# Zero-delay ready lane vs the heap
# ----------------------------------------------------------------------
def test_zero_delay_events_merge_with_heap_events_in_seq_order():
    """A same-instant heap event scheduled *before* a zero-delay event
    must still run first: the two lanes merge on (when, seq)."""
    sim = Simulator()
    order = []

    def at_one():
        order.append("first")
        sim.schedule(0.0, order.append, "zero-delay")

    sim.schedule(1.0, at_one)
    sim.schedule(1.0, order.append, "second")
    sim.run()
    assert order == ["first", "second", "zero-delay"]


def test_callback_exception_preserves_pending_zero_delay_events():
    """An exception escaping ``run()`` must not strand events pushed
    onto the ready lane — a later run still executes them."""
    sim = Simulator()
    order = []

    def boom():
        sim.schedule(0.0, order.append, "after")
        raise RuntimeError("boom")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        sim.run()
    sim.run()
    assert order == ["after"]


def test_run_until_in_the_past_rewinds_clock_like_reference():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.now == 1.0
    sim.schedule(5.0, lambda: None)
    ref = reference_mod.Simulator()
    ref.schedule(1.0, lambda: None)
    ref.run()
    ref.schedule(5.0, lambda: None)
    assert sim.run(until=0.5) == ref.run(until=0.5) == 0.5


# ----------------------------------------------------------------------
# Event-kind profiler
# ----------------------------------------------------------------------
def _profiled_program(profile):
    sim = Simulator(profile=profile)

    def worker(idx):
        for __ in range(5):
            yield sim.timeout(0.5 + idx * 0.25)

    for idx in range(4):
        sim.spawn(worker(idx), name=f"worker-{idx}")
    sim.run()
    return sim


def test_profiler_is_off_by_default():
    sim = Simulator()
    assert sim.profile is None


def test_profiler_is_observationally_inert():
    """profile=True reads clocks but schedules nothing: the trace
    fingerprint is byte-identical with the profiler on and off."""
    base = _profiled_program(False)
    profiled = _profiled_program(True)
    assert base.profile is None
    assert profiled.profile is not None
    assert profiled.fingerprint() == base.fingerprint()
    assert profiled.profile.events == profiled.digest.events > 0


def test_profiler_breaks_down_by_event_kind():
    profiled = _profiled_program(True)
    report = profiled.profile.as_dict()
    kinds = report["kinds"]
    assert "Timeout._expire" in kinds
    assert "Process._resume" in kinds
    assert report["events"] == sum(k["calls"] for k in kinds.values())
    assert abs(sum(k["share"] for k in kinds.values()) - 1.0) < 1e-9
    ranked = profiled.profile.top(2)
    assert len(ranked) == 2
    totals = [record.total_ms for record in ranked.values()]
    assert totals == sorted(totals, reverse=True)


# ----------------------------------------------------------------------
# Timer-population scenarios: far-future spread, storms, cancellation,
# merge order, ``until`` stops.  Every scenario is mirrored against the
# reference kernel — the (when, seq) stream must be byte-identical to
# the witness.
# ----------------------------------------------------------------------


def _logged_run(mod, build):
    """Run ``build(sim, log)`` on ``mod``'s simulator; return
    (log, fingerprint)."""
    sim = mod.Simulator()
    log = []
    build(sim, log)
    sim.run()
    return log, sim.fingerprint()


def test_far_future_timers_match_reference():
    """Thousands of timers spread across five decades of delay: the
    event order never deviates from the reference kernel."""
    def build(sim, log):
        rng = random.Random(20260808)
        for idx in range(4000):
            delay = rng.choice((rng.uniform(0.0001, 0.01),
                                rng.uniform(0.01, 1.0),
                                rng.uniform(1.0, 100.0),
                                rng.uniform(100.0, 5000.0)))
            sim.schedule(delay, log.append, (round(delay, 9), idx))

    opt_log, opt_fp = _logged_run(kernel_mod, build)
    ref_log, ref_fp = _logged_run(reference_mod, build)
    assert opt_log == ref_log
    assert opt_fp == ref_fp


def test_overflow_timers_spill_lazily_and_match_reference():
    """A few timers seconds past a dense run of near ones fire after
    all of them, in the reference order."""
    def build(sim, log):
        for idx in range(40):
            sim.schedule(0.01 * (idx + 1), log.append, ("near", idx))
        for idx in range(8):
            sim.schedule(10.0 + 3.0 * idx, log.append, ("far", idx))

    opt_log, opt_fp = _logged_run(kernel_mod, build)
    ref_log, ref_fp = _logged_run(reference_mod, build)
    assert opt_log == ref_log
    assert opt_fp == ref_fp


def test_mass_same_tick_storm_matches_reference():
    """Storms of timers sharing one instant: the optimized and the
    reference kernel emit byte-identical (when, seq) streams."""
    def build(mod):
        sim = mod.Simulator()
        log = []
        for storm in range(40):
            when = 0.01 * (storm + 1)
            for idx in range(50):
                sim.schedule(when, log.append, (storm, idx))
        sim.run()
        return log, sim.fingerprint()

    opt_log, opt_fp = build(kernel_mod)
    ref_log, ref_fp = build(reference_mod)
    assert opt_log == ref_log
    assert opt_fp == ref_fp


def test_cancelled_timers_match_reference():
    """AnyOf losers spread over ten seconds: cancellation tombstones
    the waiter, but the timer event still fires and folds into the
    digest in exactly the reference order."""
    def build(sim, log):
        def racer(idx):
            winner, value = yield sim.any_of(
                [sim.timeout(0.001 * (idx % 7 + 1), "fast"),
                 sim.timeout(0.05 * (idx + 1), "slow")])
            log.append((round(sim.now, 9), idx, value))
        for idx in range(200):
            sim.spawn(racer(idx), name=f"racer-{idx}")

    opt_log, opt_fp = _logged_run(kernel_mod, build)
    ref_log, ref_fp = _logged_run(reference_mod, build)
    assert opt_log == ref_log
    assert opt_fp == ref_fp


def test_timers_and_ready_lane_merge_in_global_seq_order():
    """Zero-delay wakeups racing heap timers at the same instant:
    the ready fast lane must interleave by (when, seq), not lane."""
    def build(sim, log):
        def at_instant(tag):
            # From inside a callback: a zero-delay event (ready lane)
            # scheduled AFTER a same-instant timer (heap) has a
            # larger seq, so the timer must still fire first.
            sim.schedule(0.0, log.append, (round(sim.now, 9), tag, "zero"))
            sim.schedule(0.0, log.append, (round(sim.now, 9), tag, "zero2"))
        for tick in range(100):
            when = 0.005 * (tick + 1)
            sim.schedule(when, at_instant, tick)
            sim.schedule(when, log.append, (round(when, 9), tick, "timer"))

    opt_log, opt_fp = _logged_run(kernel_mod, build)
    ref_log, ref_fp = _logged_run(reference_mod, build)
    assert opt_log == ref_log
    assert opt_fp == ref_fp


def test_until_stop_mid_run_resumes_identically():
    """run(until) landing between two closely spaced events: the
    resumed stream matches a reference run stopped at the same
    instants."""
    def build(mod):
        sim = mod.Simulator()
        log = []
        rng = random.Random(7)
        for idx in range(300):
            sim.schedule(rng.uniform(0.0, 2.0), log.append, idx)
        return sim, log

    opt_sim, opt_log = build(kernel_mod)
    ref_sim, ref_log = build(reference_mod)
    for stop in (0.2505, 0.2506, 1.0001, 1.5):
        assert opt_sim.run(until=stop) == ref_sim.run(until=stop)
        assert opt_log == ref_log
    opt_sim.run()
    ref_sim.run()
    assert opt_log == ref_log
    assert len(opt_log) == 300
    assert opt_sim.fingerprint() == ref_sim.fingerprint()
