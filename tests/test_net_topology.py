"""Unit tests for the network topology, sockets and registry."""

import numpy as np
import pytest

from repro.cluster.testbed import build_paper_testbed
from repro.net import (
    Address,
    DatagramSocket,
    Netem,
    Network,
    NetworkError,
    ServiceRegistry,
)
from repro.sim import Simulator
from repro.sim.rng import RngRegistry


def make_network(loss=0.0):
    sim = Simulator()
    net = Network(sim, rng=np.random.default_rng(0))
    net.add_link("client", "e1", rtt_s=0.001, loss=loss)
    net.add_link("e1", "e2", rtt_s=0.003)
    net.add_link("e1", "cloud", rtt_s=0.015)
    return sim, net


def test_route_multi_hop():
    __, net = make_network()
    assert net.route("client", "e2") == ["client", "e1", "e2"]


def test_route_same_node():
    __, net = make_network()
    assert net.route("e1", "e1") == ["e1"]


def test_no_route_raises():
    sim = Simulator()
    net = Network(sim)
    net.add_node("island")
    net.add_node("mainland")
    with pytest.raises(NetworkError):
        net.route("island", "mainland")


#: Every route on the four-client paper testbed, as the graph library
#: the router used before (bidirectional Dijkstra) chose them.
PAPER_TESTBED_ROUTES = {
    ("cloud", "e1"): ["cloud", "e1"],
    ("cloud", "e2"): ["cloud", "e1", "e2"],
    ("cloud", "nuc0"): ["cloud", "nuc0"],
    ("cloud", "nuc1"): ["cloud", "nuc1"],
    ("cloud", "nuc2"): ["cloud", "nuc2"],
    ("cloud", "nuc3"): ["cloud", "nuc3"],
    ("e1", "cloud"): ["e1", "cloud"],
    ("e1", "e2"): ["e1", "e2"],
    ("e1", "nuc0"): ["e1", "nuc0"],
    ("e1", "nuc1"): ["e1", "nuc1"],
    ("e1", "nuc2"): ["e1", "nuc2"],
    ("e1", "nuc3"): ["e1", "nuc3"],
    ("e2", "cloud"): ["e2", "e1", "cloud"],
    ("e2", "e1"): ["e2", "e1"],
    ("e2", "nuc0"): ["e2", "e1", "nuc0"],
    ("e2", "nuc1"): ["e2", "e1", "nuc1"],
    ("e2", "nuc2"): ["e2", "e1", "nuc2"],
    ("e2", "nuc3"): ["e2", "e1", "nuc3"],
    ("nuc0", "cloud"): ["nuc0", "cloud"],
    ("nuc0", "e1"): ["nuc0", "e1"],
    ("nuc0", "e2"): ["nuc0", "e1", "e2"],
    ("nuc0", "nuc1"): ["nuc0", "e1", "nuc1"],
    ("nuc0", "nuc2"): ["nuc0", "e1", "nuc2"],
    ("nuc0", "nuc3"): ["nuc0", "e1", "nuc3"],
    ("nuc1", "cloud"): ["nuc1", "cloud"],
    ("nuc1", "e1"): ["nuc1", "e1"],
    ("nuc1", "e2"): ["nuc1", "e1", "e2"],
    ("nuc1", "nuc0"): ["nuc1", "e1", "nuc0"],
    ("nuc1", "nuc2"): ["nuc1", "e1", "nuc2"],
    ("nuc1", "nuc3"): ["nuc1", "e1", "nuc3"],
    ("nuc2", "cloud"): ["nuc2", "cloud"],
    ("nuc2", "e1"): ["nuc2", "e1"],
    ("nuc2", "e2"): ["nuc2", "e1", "e2"],
    ("nuc2", "nuc0"): ["nuc2", "e1", "nuc0"],
    ("nuc2", "nuc1"): ["nuc2", "e1", "nuc1"],
    ("nuc2", "nuc3"): ["nuc2", "e1", "nuc3"],
    ("nuc3", "cloud"): ["nuc3", "cloud"],
    ("nuc3", "e1"): ["nuc3", "e1"],
    ("nuc3", "e2"): ["nuc3", "e1", "e2"],
    ("nuc3", "nuc0"): ["nuc3", "e1", "nuc0"],
    ("nuc3", "nuc1"): ["nuc3", "e1", "nuc1"],
    ("nuc3", "nuc2"): ["nuc3", "e1", "nuc2"],
}


def test_paper_testbed_routes_match_the_recorded_table():
    net = build_paper_testbed(Simulator(), RngRegistry(0),
                              num_clients=4).network
    nodes = net.nodes()
    assert nodes == ["cloud", "e1", "e2", "nuc0", "nuc1", "nuc2", "nuc3"]
    assert {(a, b): net.route(a, b) for a in nodes for b in nodes
            if a != b} == PAPER_TESTBED_ROUTES
    net.add_node("island")
    for src, dst in (("nuc0", "ghost"), ("ghost", "e1"),
                     ("e1", "island"), ("island", "cloud")):
        with pytest.raises(NetworkError):
            net.route(src, dst)


def test_path_rtt_composes():
    __, net = make_network()
    assert net.path_rtt("client", "e2") == pytest.approx(0.004)
    assert net.path_rtt("client", "cloud") == pytest.approx(0.016)


def test_datagram_delivery_end_to_end():
    sim, net = make_network()
    dst = Address("e2", 5000)
    src = Address("client", 4000)
    server = DatagramSocket(net, dst)
    client = DatagramSocket(net, src)
    got = []

    def receiver():
        datagram = yield server.recv()
        got.append((sim.now, datagram.payload, datagram.src))

    sim.spawn(receiver())
    assert client.sendto(dst, "hello", size_bytes=100)
    sim.run()
    assert len(got) == 1
    when, payload, from_addr = got[0]
    assert payload == "hello"
    assert from_addr == src
    assert when >= 0.002  # one-way client->e2 = 0.5 + 1.5 ms


def test_local_delivery_same_node():
    sim, net = make_network()
    a = Address("e1", 1)
    b = Address("e1", 2)
    sock_a = DatagramSocket(net, a)
    sock_b = DatagramSocket(net, b)
    got = []

    def receiver():
        datagram = yield sock_b.recv()
        got.append((sim.now, datagram.payload))

    sim.spawn(receiver())
    sock_a.sendto(b, "local", size_bytes=10)
    sim.run()
    assert got == [(0.0, "local")]


def test_lossy_link_drops_datagrams():
    sim, net = make_network(loss=1.0)
    server = DatagramSocket(net, Address("e1", 5000))
    client = DatagramSocket(net, Address("client", 4000))
    assert not client.sendto(server.address, "x", size_bytes=10)
    sim.run()
    assert server.pending == 0
    assert net.stats_lost == 1


def test_unbound_address_eats_packet():
    sim, net = make_network()
    client = DatagramSocket(net, Address("client", 4000))
    assert client.sendto(Address("e1", 9999), "void", size_bytes=10)
    sim.run()  # must not raise


def test_double_bind_rejected():
    __, net = make_network()
    DatagramSocket(net, Address("e1", 5000))
    with pytest.raises(NetworkError):
        DatagramSocket(net, Address("e1", 5000))


def test_close_unbinds():
    sim, net = make_network()
    sock = DatagramSocket(net, Address("e1", 5000))
    sock.close()
    DatagramSocket(net, Address("e1", 5000))  # rebinding now fine


def test_recv_queue_capacity_overflow():
    sim, net = make_network()
    server = DatagramSocket(net, Address("e1", 5000), recv_capacity=2)
    client = DatagramSocket(net, Address("client", 4000))
    for __ in range(5):
        client.sendto(server.address, "x", size_bytes=10)
    sim.run()
    assert server.pending == 2
    assert server.rx_dropped_full == 3
    assert server.rx_count == 5


def test_set_netem_changes_behaviour():
    sim, net = make_network()
    net.set_netem("client", "e1", Netem(loss=1.0))
    client = DatagramSocket(net, Address("client", 4000))
    assert not client.sendto(Address("e1", 5000), "x", size_bytes=10)
    net.set_netem("client", "e1", None)
    assert client.sendto(Address("e1", 5000), "x", size_bytes=10)


def test_registry_round_robin():
    registry = ServiceRegistry()
    a1 = Address("e1", 1)
    a2 = Address("e2", 1)
    registry.register("sift", a1)
    registry.register("sift", a2)
    picks = [registry.resolve("sift") for __ in range(4)]
    assert picks == [a1, a2, a1, a2]


def test_registry_sticky_affinity():
    registry = ServiceRegistry()
    a1 = Address("e1", 1)
    a2 = Address("e2", 1)
    registry.register("sift", a1)
    registry.register("sift", a2)
    assert registry.resolve_sticky("sift", 4) == a1
    assert registry.resolve_sticky("sift", 7) == a2
    # Affinity is stable across calls.
    assert registry.resolve_sticky("sift", 4) == a1


def test_registry_unknown_service():
    registry = ServiceRegistry()
    with pytest.raises(LookupError):
        registry.resolve("ghost")
    with pytest.raises(LookupError):
        registry.resolve_sticky("ghost", 0)


def test_registry_register_idempotent_and_deregister():
    registry = ServiceRegistry()
    addr = Address("e1", 1)
    registry.register("svc", addr)
    registry.register("svc", addr)
    assert registry.instances("svc") == [addr]
    registry.deregister("svc", addr)
    assert registry.instances("svc") == []


def test_registry_custom_balancer():
    def always_last(service, instances):
        return instances[-1]

    registry = ServiceRegistry(balancer=always_last)
    registry.register("svc", Address("e1", 1))
    registry.register("svc", Address("e2", 1))
    assert registry.resolve("svc") == Address("e2", 1)
    assert registry.resolve("svc") == Address("e2", 1)
