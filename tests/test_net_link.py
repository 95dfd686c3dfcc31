"""Unit tests for Link and Netem."""

import numpy as np
import pytest

from repro.net.link import Link
from repro.net.netem import (
    Netem,
    lte_profile,
    nr5g_profile,
    wifi6_profile,
)
from repro.sim import Simulator


def make_link(**kwargs):
    sim = Simulator()
    defaults = dict(latency_s=0.001, bandwidth_bps=1e9,
                    rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return sim, Link(sim, "a", "b", **defaults)


def test_delay_is_latency_plus_serialization():
    __, link = make_link(latency_s=0.002, bandwidth_bps=1e6)
    delay = link.transmit(1000)  # 8000 bits at 1 Mbps = 8 ms
    assert delay == pytest.approx(0.002 + 0.008)


def test_zero_size_packet_costs_only_latency():
    __, link = make_link(latency_s=0.003)
    assert link.transmit(0) == pytest.approx(0.003)


def test_fifo_queueing_at_sender():
    __, link = make_link(latency_s=0.0, bandwidth_bps=1e6)
    first = link.transmit(1000)   # serializes 0..8 ms
    second = link.transmit(1000)  # queues behind: 8..16 ms
    assert first == pytest.approx(0.008)
    assert second == pytest.approx(0.016)


def test_queue_drains_as_time_advances():
    sim, link = make_link(latency_s=0.0, bandwidth_bps=1e6)
    link.transmit(1000)
    sim.schedule(0.008, lambda: None)
    sim.run()
    assert link.transmit(1000) == pytest.approx(0.008)  # queue drained


def test_loss_drops_packets():
    __, link = make_link(loss=1.0)
    assert link.transmit(100) is None
    assert link.stats.packets_dropped == 1


def test_loss_rate_statistics():
    __, link = make_link(loss=0.3)
    n = 5000
    dropped = sum(1 for _ in range(n) if link.transmit(10) is None)
    assert dropped / n == pytest.approx(0.3, abs=0.03)


def test_jitter_adds_nonnegative_delay():
    __, link = make_link(latency_s=0.001, jitter_s=0.0005)
    base = 0.001 + 10 * 8 / 1e9
    for _ in range(100):
        delay = link.transmit(10)
        assert delay >= base


def test_stats_accumulate():
    __, link = make_link()
    link.transmit(500)
    link.transmit(700)
    assert link.stats.packets_sent == 2
    assert link.stats.bytes_sent == 1200


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, "a", "b", latency_s=-1, bandwidth_bps=1e9)
    with pytest.raises(ValueError):
        Link(sim, "a", "b", latency_s=0, bandwidth_bps=0)
    with pytest.raises(ValueError):
        Link(sim, "a", "b", latency_s=0, bandwidth_bps=1, loss=1.5)


def test_netem_extra_delay_constant():
    netem = Netem(delay_s=0.020)
    rng = np.random.default_rng(0)
    assert netem.extra_delay(rng) == pytest.approx(0.020)


def test_netem_oscillation_probabilistic():
    netem = Netem(delay_s=0.0, oscillation_s=0.010, oscillation_prob=0.2)
    rng = np.random.default_rng(1)
    draws = [netem.extra_delay(rng) for _ in range(5000)]
    oscillated = sum(1 for d in draws if d > 0)
    assert oscillated / len(draws) == pytest.approx(0.2, abs=0.02)
    assert all(d in (0.0, 0.010) for d in draws)


def test_netem_loss_draw():
    netem = Netem(loss=1.0)
    rng = np.random.default_rng(0)
    assert netem.drops(rng)
    assert not Netem(loss=0.0).drops(rng)


def test_netem_validation():
    with pytest.raises(ValueError):
        Netem(delay_s=-0.1)
    with pytest.raises(ValueError):
        Netem(loss=2.0)
    with pytest.raises(ValueError):
        Netem(oscillation_prob=-0.5)


def test_netem_applied_to_link_delay_and_loss():
    __, link = make_link(latency_s=0.001)
    link.netem = Netem(delay_s=0.040)
    delay = link.transmit(10)
    assert delay >= 0.041

    __, lossy = make_link(latency_s=0.001)
    lossy.netem = Netem(loss=1.0)
    assert lossy.transmit(10) is None


def test_paper_access_profiles():
    lte = lte_profile()
    assert lte.delay_s == pytest.approx(0.020)  # 40 ms RTT one-way
    assert lte.loss == pytest.approx(0.0008)
    assert nr5g_profile().delay_s == pytest.approx(0.005)
    assert wifi6_profile().delay_s == pytest.approx(0.0025)
    for profile in (lte, nr5g_profile(), wifi6_profile()):
        assert profile.oscillation_s == pytest.approx(0.010)
        assert profile.oscillation_prob == pytest.approx(0.20)
