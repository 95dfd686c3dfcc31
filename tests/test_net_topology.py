"""Unit tests for the network topology, datagram delivery and registry."""

import numpy as np
import pytest

from repro.cluster.testbed import build_paper_testbed
from repro.net import (
    Address,
    Datagram,
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


def test_send_takes_the_links_of_a_route_shortened_by_add_link():
    sim, net = make_network()
    dst = Address("e2", 5000)
    arrivals = []
    net.bind(dst, lambda payload: arrivals.append(sim.now))
    assert net.send("client", dst, "via e1", 100)
    net.add_link("client", "e2", rtt_s=0.0004)  # a shorter direct hop
    sim.run()
    assert net.send("client", dst, "direct", 100)
    sim.run()
    assert net.link("client", "e1").stats.packets_sent == 1
    assert net.link("e1", "e2").stats.packets_sent == 1
    assert net.link("client", "e2").stats.packets_sent == 1
    assert arrivals[0] == pytest.approx(0.002, abs=1e-5)
    assert arrivals[1] - arrivals[0] == pytest.approx(0.0002, abs=1e-5)


def test_datagram_delivery_end_to_end():
    sim, net = make_network()
    dst = Address("e2", 5000)
    src = Address("client", 4000)
    got = []
    net.bind(dst, lambda datagram: got.append(
        (sim.now, datagram.payload, datagram.src)))
    datagram = Datagram(payload="hello", size_bytes=100, src=src, dst=dst)
    assert net.send(src.node, dst, datagram, 100)
    sim.run()
    assert len(got) == 1
    when, payload, from_addr = got[0]
    assert payload == "hello"
    assert from_addr == src
    assert when >= 0.002  # one-way client->e2 = 0.5 + 1.5 ms


def test_local_delivery_same_node():
    sim, net = make_network()
    b = Address("e1", 2)
    got = []
    net.bind(b, lambda payload: got.append((sim.now, payload)))
    assert net.send("e1", b, "local", 10)
    sim.run()
    assert got == [(0.0, "local")]


def test_lossy_link_drops_datagrams():
    sim, net = make_network(loss=1.0)
    server = Address("e1", 5000)
    got = []
    net.bind(server, got.append)
    assert not net.send("client", server, "x", 10)
    sim.run()
    assert got == []
    assert net.stats_lost == 1


def test_unbound_address_eats_packet():
    sim, net = make_network()
    assert net.send("client", Address("e1", 9999), "void", 10)
    sim.run()  # must not raise


def test_double_bind_rejected():
    __, net = make_network()
    net.bind(Address("e1", 5000), print)
    with pytest.raises(NetworkError):
        net.bind(Address("e1", 5000), print)


def test_close_unbinds():
    sim, net = make_network()
    net.bind(Address("e1", 5000), print)
    net.unbind(Address("e1", 5000))
    net.bind(Address("e1", 5000), print)  # rebinding now fine


def test_set_netem_changes_behaviour():
    sim, net = make_network()
    net.set_netem("client", "e1", Netem(loss=1.0))
    assert not net.send("client", Address("e1", 5000), "x", 10)
    net.set_netem("client", "e1", None)
    assert net.send("client", Address("e1", 5000), "x", 10)


def test_registry_round_robin():
    registry = ServiceRegistry()
    a1 = Address("e1", 1)
    a2 = Address("e2", 1)
    registry.register("sift", a1)
    registry.register("sift", a2)
    picks = [registry.resolve("sift") for __ in range(4)]
    assert picks == [a1, a2, a1, a2]


def test_registry_unknown_service():
    registry = ServiceRegistry()
    with pytest.raises(LookupError):
        registry.resolve("ghost")


def test_registry_register_idempotent_and_deregister():
    registry = ServiceRegistry()
    addr = Address("e1", 1)
    registry.register("svc", addr)
    registry.register("svc", addr)
    assert registry.instances("svc") == [addr]
    registry.deregister("svc", addr)
    assert registry.instances("svc") == []
