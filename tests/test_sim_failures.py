"""Failure-path tests for the simulation kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Simulator, SimulationError
from repro.sim.kernel import Signal, Waitable


def test_signal_fail_raises_in_waiter():
    sim = Simulator()
    signal = sim.signal()
    caught = []

    def waiter():
        try:
            yield signal
        except RuntimeError as exc:
            caught.append((sim.now, str(exc)))

    sim.spawn(waiter())
    sim.schedule(2.0, signal.fail, RuntimeError("boom"))
    sim.run()
    assert caught == [(2.0, "boom")]


def test_fail_after_fire_rejected():
    sim = Simulator()
    signal = sim.signal()
    signal.fire(1)
    with pytest.raises(SimulationError):
        signal.fail(RuntimeError("late"))
    with pytest.raises(SimulationError):
        signal.fire(2)


def test_any_of_propagates_child_failure():
    sim = Simulator()
    bad = sim.signal()
    caught = []

    def waiter():
        try:
            yield sim.any_of([bad, sim.timeout(10.0)])
        except ValueError as exc:
            caught.append(str(exc))

    sim.spawn(waiter())
    sim.schedule(1.0, bad.fail, ValueError("child died"))
    sim.run()
    assert caught == ["child died"]


def test_all_of_propagates_first_failure():
    sim = Simulator()
    bad = sim.signal()
    caught = []

    def waiter():
        try:
            yield AllOf(sim, [sim.timeout(1.0), bad])
        except ValueError:
            caught.append(sim.now)

    sim.spawn(waiter())
    sim.schedule(2.0, bad.fail, ValueError("x"))
    sim.run()
    assert caught == [2.0]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def waiter():
        values = yield AllOf(sim, [])
        got.append((sim.now, values))

    sim.spawn(waiter())
    sim.run()
    assert got == [(0.0, [])]


def test_process_exception_propagates_to_joiner():
    sim = Simulator()

    def crasher():
        yield sim.timeout(1.0)
        raise KeyError("kaput")

    outcomes = []

    def joiner():
        try:
            yield sim.spawn(crasher())
            outcomes.append("ok")
        except Exception as exc:  # noqa: BLE001 - test observes type
            outcomes.append(type(exc).__name__)

    sim.spawn(joiner())
    with pytest.raises(KeyError):
        sim.run()
    # The crash surfaced from run(); the joiner never completed.
    assert outcomes == []


def test_interrupt_with_cause_carried():
    sim = Simulator()
    seen = []

    def sleeper():
        try:
            yield sim.timeout(10.0)
        except Interrupt as interrupt:
            seen.append(interrupt.cause)

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt, {"reason": "rebalance"})
    sim.run()
    assert seen == [{"reason": "rebalance"}]


def test_double_interrupt_delivers_both():
    sim = Simulator()
    count = []

    def sleeper():
        for __ in range(2):
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                count.append(sim.now)

    proc = sim.spawn(sleeper())
    sim.schedule(1.0, proc.interrupt, "first")
    sim.schedule(1.0, proc.interrupt, "second")
    sim.run()
    assert len(count) == 2


def test_yielding_non_waitable_raises():
    sim = Simulator()

    def bad():
        yield 42  # not a Waitable

    sim.spawn(bad())
    with pytest.raises(SimulationError):
        sim.run()


def test_waitable_value_delivery_to_multiple_waiters():
    sim = Simulator()
    signal = sim.signal()
    got = []

    def waiter(tag):
        value = yield signal
        got.append((tag, value))

    for tag in ("a", "b", "c"):
        sim.spawn(waiter(tag))
    sim.schedule(1.0, signal.fire, 99)
    sim.run()
    assert sorted(got) == [("a", 99), ("b", 99), ("c", 99)]
