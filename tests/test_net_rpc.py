"""Unit tests for the reliable RPC channel."""

import numpy as np
import pytest

from repro.net import Address, Network, RpcChannel, RpcServer, RpcTimeoutError
from repro.net.rpc import MAX_ATTEMPTS, RETRANSMIT_TIMEOUT_S
from repro.sim import Simulator


def make_rpc_pair(loss=0.0, handler_delay=0.0):
    sim = Simulator()
    net = Network(sim, rng=np.random.default_rng(0))
    net.add_link("a", "b", rtt_s=0.002, loss=loss)

    def handler(request):
        if handler_delay:
            yield sim.timeout(handler_delay)
        else:
            yield sim.timeout(0.0)
        return {"echo": request}

    server = RpcServer(net, Address("b", 50051), handler)
    channel = RpcChannel(net, "a")
    return sim, net, server, channel


def test_rpc_round_trip():
    sim, __, server, channel = make_rpc_pair()
    got = []

    def caller():
        response = yield channel.call(server.address, "ping", size_bytes=100)
        got.append((sim.now, response))

    sim.spawn(caller())
    sim.run()
    assert len(got) == 1
    when, response = got[0]
    assert response == {"echo": "ping"}
    assert when >= 0.002  # request + response one-way latencies
    assert server.requests_served == 1


def test_rpc_includes_handler_time():
    sim, __, server, channel = make_rpc_pair(handler_delay=0.050)
    got = []

    def caller():
        yield channel.call(server.address, "x", size_bytes=10)
        got.append(sim.now)

    sim.spawn(caller())
    sim.run()
    assert got[0] >= 0.052


def test_rpc_survives_lossy_link():
    # 50% loss: datagrams would vanish, RPC retries and still succeeds.
    sim, __, server, channel = make_rpc_pair(loss=0.5)
    results = []

    def caller():
        response = yield channel.call(server.address, "ping", size_bytes=10)
        results.append(response)

    sim.spawn(caller())
    sim.run()
    assert results == [{"echo": "ping"}]


def test_rpc_retransmission_adds_delay():
    sim_clean, __, server_c, channel_c = make_rpc_pair(loss=0.0)
    done_clean = []

    def caller_clean():
        yield channel_c.call(server_c.address, "p", size_bytes=10)
        done_clean.append(sim_clean.now)

    sim_clean.spawn(caller_clean())
    sim_clean.run()

    sim_lossy, __, server_l, channel_l = make_rpc_pair(loss=0.8)
    done_lossy = []

    def caller_lossy():
        try:
            yield channel_l.call(server_l.address, "p", size_bytes=10)
            done_lossy.append(sim_lossy.now)
        except RpcTimeoutError:
            done_lossy.append(None)

    sim_lossy.spawn(caller_lossy())
    sim_lossy.run()
    if done_lossy[0] is not None:
        assert done_lossy[0] > done_clean[0]


def test_rpc_total_loss_raises_timeout():
    sim, __, server, channel = make_rpc_pair(loss=1.0)
    outcome = []

    def caller():
        try:
            yield channel.call(server.address, "p", size_bytes=10)
            outcome.append("ok")
        except RpcTimeoutError:
            outcome.append(("timeout", sim.now))

    sim.spawn(caller())
    sim.run()
    # The call fails once every modelled retransmission is spent.
    assert outcome == [("timeout",
                        pytest.approx(MAX_ATTEMPTS * RETRANSMIT_TIMEOUT_S))]


def test_rpc_local_call_is_instant():
    sim = Simulator()
    net = Network(sim)
    net.add_node("solo")

    def handler(request):
        yield sim.timeout(0.010)
        return request * 2

    server = RpcServer(net, Address("solo", 1), handler)
    channel = RpcChannel(net, "solo")
    got = []

    def caller():
        response = yield channel.call(server.address, 21, size_bytes=10)
        got.append((sim.now, response))

    sim.spawn(caller())
    sim.run()
    assert got == [(0.010, 42)]


def test_concurrent_rpc_calls_serve_independently():
    sim, __, server, channel = make_rpc_pair(handler_delay=0.010)
    done = []

    def caller(tag):
        response = yield channel.call(server.address, tag, size_bytes=10)
        done.append((tag, sim.now))

    sim.spawn(caller("a"))
    sim.spawn(caller("b"))
    sim.run()
    assert len(done) == 2
    # Handlers run concurrently, so both finish ~same time, not 2x.
    times = [when for __, when in done]
    assert max(times) < 0.030
