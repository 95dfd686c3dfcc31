"""Unit tests for Resource and Store."""

import pytest

from repro.sim import Resource, Simulator, SimulationError, Store


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    assert res.try_acquire()
    assert res.try_acquire()
    assert not res.try_acquire()


def test_resource_release_wakes_fifo_waiter():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        yield res.acquire()
        order.append((tag, "in", sim.now))
        yield sim.timeout(hold)
        res.release()
        order.append((tag, "out", sim.now))

    sim.spawn(worker("a", 2.0))
    sim.spawn(worker("b", 1.0))
    sim.run()
    assert order == [
        ("a", "in", 0.0),
        ("a", "out", 2.0),
        ("b", "in", 2.0),
        ("b", "out", 3.0),
    ]


def test_resource_release_without_acquire_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_queued_count():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder():
        yield res.acquire()
        yield sim.timeout(10.0)
        res.release()

    def waiter():
        yield res.acquire()
        res.release()

    sim.spawn(holder())
    sim.spawn(waiter())
    sim.run(until=1.0)
    assert res.queued == 1
    sim.run()
    assert res.queued == 0


def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    sim.spawn(consumer())
    for value in (1, 2, 3):
        store.put_nowait(value)
    sim.run()
    assert got == [1, 2, 3]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def consumer():
        item = yield store.get()
        got.append((sim.now, item))

    def producer():
        yield sim.timeout(4.0)
        store.put_nowait("late")

    sim.spawn(consumer())
    sim.spawn(producer())
    sim.run()
    assert got == [(4.0, "late")]


def test_store_put_bypasses_queue_when_getter_waiting():
    sim = Simulator()
    store = Store(sim)
    store.put_nowait("fills")
    got = []

    def consumer():
        first = yield store.get()
        second = yield store.get()
        got.append((first, second))

    sim.spawn(consumer())
    sim.run(until=0.5)
    # Consumer drained the store and is now waiting; a put goes
    # straight to it instead of into the queue.
    store.put_nowait("direct")
    assert len(store) == 0
    sim.run()
    assert got == [("fills", "direct")]


def test_store_get_nowait():
    sim = Simulator()
    store = Store(sim)
    with pytest.raises(LookupError):
        store.get_nowait()
    store.put_nowait("a")
    store.put_nowait("b")
    assert store.get_nowait() == "a"
    store.put_nowait("c")
    assert [store.get_nowait(), store.get_nowait()] == ["b", "c"]
    assert len(store) == 0
