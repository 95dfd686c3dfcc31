"""Unit tests for the DSP framework."""

import numpy as np
import pytest

from repro.cluster import Container, Machine
from repro.cluster.gpu import RTX_2080
from repro.cluster.machine import GB
from repro.dsp import FrameRecord, RecordKind, StateStore, StreamService
from repro.dsp.operator import ServiceStats
from repro.net import Address, Network, ServiceRegistry
from repro.sim import Simulator


def make_env():
    sim = Simulator()
    network = Network(sim, rng=np.random.default_rng(0))
    network.add_link("a", "b", rtt_s=0.002)
    machine = Machine(sim, "b", cpu_cores=8, memory_gb=64,
                      gpu_architecture=RTX_2080, gpu_count=2)
    registry = ServiceRegistry()
    return sim, network, machine, registry


def make_record(frame=0, client=0, now=0.0):
    return FrameRecord(client_id=client, frame_number=frame,
                       reply_to=Address("a", 9000), step="test",
                       created_s=now, size_bytes=1000)


class EchoService(StreamService):
    """Test double: computes, then replies to the client."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.handled = []

    def process(self, record):
        yield from self.compute()
        self.handled.append((record.key, self.sim.now))
        reply = record.advanced("done", kind=RecordKind.RESULT)
        self.send(record.reply_to, reply)


def make_service(sim, network, machine, registry, base_time=0.010):
    container = Container(machine, "echo", base_memory_bytes=GB)
    service = EchoService(name="echo", network=network,
                          registry=registry, container=container,
                          address=Address("b", 5000),
                          base_time_s=base_time,
                          rng=np.random.default_rng(1))
    service.start()
    return service


# ----------------------------------------------------------------------
# FrameRecord
# ----------------------------------------------------------------------
def test_record_key_and_age():
    record = make_record(frame=7, client=3, now=1.0)
    assert record.key == (3, 7)
    assert record.created_s == 1.0


def test_record_advanced_copies():
    record = make_record()
    advanced = record.advanced("sift", size_bytes=2000, foo="bar")
    assert advanced.step == "sift"
    assert advanced.size_bytes == 2000
    assert advanced.meta == {"foo": "bar"}
    assert record.step == "test"
    assert record.size_bytes == 1000
    assert record.meta == {}


def test_record_advanced_kind():
    record = make_record()
    fetch = record.advanced("sift", kind=RecordKind.FETCH)
    assert fetch.kind is RecordKind.FETCH
    assert record.kind is RecordKind.FRAME


# ----------------------------------------------------------------------
# StreamService
# ----------------------------------------------------------------------
def test_service_processes_and_replies():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry)
    got = []
    network.bind(Address("a", 9000),
                 lambda datagram: got.append(
                     (sim.now, datagram.payload.kind)))
    service.send(service.address, make_record())  # self-deliver via net
    sim.run()
    assert service.stats.processed == 1
    assert got and got[0][1] is RecordKind.RESULT


def test_service_drops_when_busy():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry,
                           base_time=0.050)
    client = Address("a", 9000)
    network.bind(client, lambda datagram: None)

    def burst():
        for frame in range(3):
            service.send(service.address, make_record(frame=frame))
            yield sim.timeout(0.001)

    sim.spawn(burst())
    sim.run()
    assert service.stats.received == 3
    assert service.stats.processed == 1
    assert service.stats.dropped_busy == 2


def test_service_accepts_after_finishing():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry,
                           base_time=0.010)
    network.bind(Address("a", 9000), lambda datagram: None)

    def paced():
        for frame in range(3):
            service.send(service.address, make_record(frame=frame))
            yield sim.timeout(0.030)

    sim.spawn(paced())
    sim.run()
    assert service.stats.processed == 3
    assert service.stats.dropped_busy == 0


def test_control_records_bypass_busy_drop():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry,
                           base_time=0.050)
    network.bind(Address("a", 9000), lambda datagram: None)
    controls = []
    service.on_control = controls.append  # type: ignore[assignment]

    def scenario():
        service.send(service.address, make_record(frame=0))
        yield sim.timeout(0.005)  # service now busy
        control = make_record(frame=1).advanced(
            "test", kind=RecordKind.FETCH_RESPONSE)
        service.send(service.address, control)

    sim.spawn(scenario())
    sim.run()
    assert len(controls) == 1
    assert service.stats.dropped_busy == 0


def test_service_latency_samples_recorded():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry,
                           base_time=0.010)
    network.bind(Address("a", 9000), lambda datagram: None)
    service.send(service.address, make_record())
    sim.run()
    assert len(service.stats.latency_samples_s) == 1
    # One sample: the sketch's exact mean *is* the sample.
    assert service.stats.latency_samples_s.mean == pytest.approx(
        0.010, rel=0.5)


def test_ingress_fps_window():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry,
                           base_time=0.001)
    network.bind(Address("a", 9000), lambda datagram: None)

    def paced():
        for frame in range(30):
            service.send(service.address, make_record(frame=frame))
            yield sim.timeout(1.0 / 30.0)

    sim.spawn(paced())
    sim.run()
    assert service.stats.ingress_fps(1.0, sim.now) == pytest.approx(
        30.0, rel=0.2)


def test_ingress_fps_bisect_matches_the_scan():
    """The bisect count equals a scan of every marker, window edges on
    tied markers included (a dyadic grid keeps ``now - window`` exact).
    """
    rng = np.random.default_rng(7)
    for __ in range(300):
        stats = ServiceStats()
        steps = rng.integers(0, 3, size=rng.integers(0, 40))
        markers = np.cumsum(steps) * 0.25  # nondecreasing, with ties
        stats.arrival_times_s.extend(markers.tolist())
        now = float(markers[-1] if len(markers) else 0.0) + 0.25 * int(
            rng.integers(0, 3))
        window = 0.25 * int(rng.integers(1, 12))
        scanned = sum(1 for t in stats.arrival_times_s
                      if t >= now - window) / window
        assert stats.ingress_fps(window, now) == scanned


def test_send_downstream_uses_registry():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry)
    sink_a = Address("b", 7001)
    sink_b = Address("b", 7002)
    registry.register("sink", sink_a)
    registry.register("sink", sink_b)
    hits = {"a": 0, "b": 0}
    network.bind(sink_a, lambda d: hits.__setitem__("a", hits["a"] + 1))
    network.bind(sink_b, lambda d: hits.__setitem__("b", hits["b"] + 1))
    for frame in range(4):
        assert service.send_downstream("sink", make_record(frame=frame))
    sim.run()
    assert hits == {"a": 2, "b": 2}  # round-robin


def test_send_downstream_unknown_service_returns_false():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry)
    assert not service.send_downstream("ghost", make_record())


def test_stop_unbinds_and_frees():
    sim, network, machine, registry = make_env()
    service = make_service(sim, network, machine, registry)
    assert machine.memory.in_use_bytes == GB
    service.stop()
    assert machine.memory.in_use_bytes == 0
    assert registry.instances("echo") == []


def test_service_validation():
    sim, network, machine, registry = make_env()
    container = Container(machine, "bad", base_memory_bytes=GB)
    with pytest.raises(ValueError):
        EchoService(name="bad", network=network, registry=registry,
                    container=container, address=Address("b", 1),
                    base_time_s=0.0)


# ----------------------------------------------------------------------
# StateStore
# ----------------------------------------------------------------------
def make_store(ttl=1.0):
    sim = Simulator()
    machine = Machine(sim, "m", cpu_cores=4, memory_gb=64,
                      gpu_architecture=RTX_2080, gpu_count=1)
    container = Container(machine, "sift", base_memory_bytes=GB)
    container.start()
    return sim, machine, container, StateStore(sim, container, ttl_s=ttl)


def test_store_put_fetch_roundtrip():
    sim, machine, container, store = make_store()
    store.put(("c", 1), "features", size_bytes=1000)
    assert len(store) == 1
    assert machine.memory.in_use_bytes == GB + 1000
    assert store.fetch(("c", 1)) == "features"
    assert len(store) == 0
    assert machine.memory.in_use_bytes == GB


def test_store_fetch_missing_returns_none():
    __, __m, __c, store = make_store()
    assert store.fetch("ghost") is None


def test_store_ttl_eviction_frees_memory():
    sim, machine, container, store = make_store(ttl=0.5)
    store.put(("c", 1), "x", size_bytes=1000)
    sim.run(until=0.4)
    assert len(store) == 1
    sim.run(until=0.6)
    assert len(store) == 0
    assert store.stats_expired == 1
    assert machine.memory.in_use_bytes == GB


def test_store_replace_retimes_entry():
    sim, machine, container, store = make_store(ttl=0.5)
    store.put("k", "old", size_bytes=100)

    def replace_later():
        yield sim.timeout(0.4)
        store.put("k", "new", size_bytes=200)

    sim.spawn(replace_later())
    sim.run(until=0.7)
    # Replaced at 0.4 with a fresh TTL: still alive at 0.7, and only
    # the new entry's bytes are charged.
    assert store.keys() == ["k"]
    assert machine.memory.in_use_bytes == GB + 200
    sim.run(until=1.0)
    assert store.keys() == []
    assert machine.memory.in_use_bytes == GB


def test_store_bytes_in_use():
    __, __m, __c, store = make_store()
    store.put("a", 1, size_bytes=100)
    store.put("b", 2, size_bytes=200)
    assert store.bytes_in_use == 300


def test_store_validation():
    sim = Simulator()
    machine = Machine(sim, "m", cpu_cores=4, memory_gb=64)
    container = Container(machine, "s", base_memory_bytes=GB,
                          uses_gpu=False)
    with pytest.raises(ValueError):
        StateStore(sim, container, ttl_s=0.0)
