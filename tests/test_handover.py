"""Tests for netem schedules (access-network handover emulation)."""

import numpy as np
import pytest

from repro.cluster.testbed import build_paper_testbed
from repro.experiments.runner import DRAIN_S
from repro.net import Address, Netem, Network
from repro.net.netem import (
    apply_netem_schedule,
    lte_profile,
    wifi6_profile,
)
from repro.orchestra.orchestrator import Orchestrator
from repro.scatter.client import ArClient
from repro.scatter.config import uniform_config
from repro.scatter.pipeline import ScatterPipeline
from repro.sim import RngRegistry, Simulator


def test_schedule_swaps_profiles_at_times():
    sim = Simulator()
    net = Network(sim, rng=np.random.default_rng(0))
    net.add_link("a", "b", rtt_s=0.001)
    first = Netem(delay_s=0.001)
    second = Netem(delay_s=0.020)
    apply_netem_schedule(net, "a", "b",
                         [(0.0, first), (5.0, second)])
    sim.run(until=1.0)
    assert net.link("a", "b").netem is first
    assert net.link("b", "a").netem is first
    sim.run(until=6.0)
    assert net.link("a", "b").netem is second


def test_schedule_validation():
    sim = Simulator()
    net = Network(sim, rng=np.random.default_rng(0))
    net.add_link("a", "b", rtt_s=0.001)
    with pytest.raises(ValueError):
        apply_netem_schedule(net, "a", "b", [])
    with pytest.raises(ValueError):
        apply_netem_schedule(net, "a", "b", [(-1.0, None)])


def test_schedule_asymmetric():
    sim = Simulator()
    net = Network(sim, rng=np.random.default_rng(0))
    net.add_link("a", "b", rtt_s=0.001)
    profile = Netem(delay_s=0.010)
    apply_netem_schedule(net, "a", "b", [(0.0, profile)],
                         symmetric=False)
    sim.run(until=0.5)
    assert net.link("a", "b").netem is profile
    assert net.link("b", "a").netem is None


def test_handover_shifts_latency_mid_run():
    """A client on WiFi-6 hands over to LTE at t=15 s: E2E latency
    steps up by roughly the RTT difference (35 ms)."""
    sim = Simulator()
    rng = RngRegistry(0)
    testbed = build_paper_testbed(sim, rng, num_clients=1)
    orchestrator = Orchestrator(testbed)
    ScatterPipeline(testbed, orchestrator,
                    uniform_config("E2", "e2")).deploy()
    orchestrator.start()
    apply_netem_schedule(testbed.network, "nuc0", "e1",
                         [(0.0, wifi6_profile()),
                          (15.0, lte_profile())])
    client = ArClient(client_id=0, node="nuc0",
                      network=testbed.network,
                      registry=orchestrator.registry,
                      rng=rng.stream("client.0"))
    client.start(30.0)
    sim.run(until=30.0 + DRAIN_S)

    before = [t - client.stats.sent[n]
              for n, t in client.stats.received.items()
              if t < 14.5]
    after = [t - client.stats.sent[n]
             for n, t in client.stats.received.items()
             if t > 16.0]
    assert before and after
    step_ms = 1000.0 * (np.mean(after) - np.mean(before))
    assert 25.0 <= step_ms <= 50.0
