"""Unit tests for individual scAtteR services in isolation."""

import numpy as np
import pytest

from repro.cluster import Container, Machine
from repro.cluster.gpu import RTX_2080
from repro.cluster.machine import GB
from repro.dsp.record import FrameRecord, RecordKind
from repro.net import Address, Datagram, Network, ServiceRegistry
from repro.scatter import config
from repro.scatter.services import (
    EncodingService,
    LshService,
    MatchingService,
    PrimaryService,
    SiftService,
)
from repro.scatterpp.services import (
    StatelessMatchingService,
    StatelessSiftService,
)
from repro.sim import Simulator


class Harness:
    """One machine, a registry, and capture sinks for each service."""

    def __init__(self):
        self.sim = Simulator()
        self.network = Network(self.sim, rng=np.random.default_rng(0))
        self.network.add_link("client", "m", rtt_s=0.001)
        self.machine = Machine(self.sim, "m", cpu_cores=8,
                               memory_gb=128,
                               gpu_architecture=RTX_2080, gpu_count=2)
        self.registry = ServiceRegistry()
        self.received = {}
        self.client = Address("client", 9000)
        self.network.bind(self.client, self._capture("client"))

    def _capture(self, name):
        def handler(datagram):
            self.received.setdefault(name, []).append(datagram.payload)

        return handler

    def sink(self, service_name, port):
        address = Address("m", port)
        self.network.bind(address, self._capture(service_name))
        self.registry.register(service_name, address)
        return address

    def make(self, service_class, name, port, **kwargs):
        container = Container(
            self.machine, name,
            base_memory_bytes=config.SERVICE_MEMORY_BYTES[name],
            uses_gpu=config.SERVICE_USES_GPU[name])
        service = service_class(
            name=name, network=self.network, registry=self.registry,
            container=container, address=Address("m", port),
            base_time_s=config.SERVICE_TIME_S[name],
            rng=np.random.default_rng(7), **kwargs)
        service.start()
        return service

    def inject(self, service, record):
        datagram = Datagram(payload=record,
                            size_bytes=record.size_bytes,
                            src=self.client, dst=service.address)
        self.network.deliver_after(0.0, service.address, datagram)

    def record(self, step="primary", frame=0, size=1000,
               kind=RecordKind.FRAME):
        return FrameRecord(client_id=0, frame_number=frame,
                           reply_to=self.client, step=step,
                           created_s=self.sim.now, size_bytes=size,
                           kind=kind)


def test_primary_forwards_preprocessed_frame():
    harness = Harness()
    primary = harness.make(PrimaryService, "primary", 6000)
    harness.sink("sift", 6100)
    harness.inject(primary, harness.record())
    harness.sim.run()
    forwarded = harness.received["sift"]
    assert len(forwarded) == 1
    record = forwarded[0]
    assert record.step == "sift"
    assert record.size_bytes == config.WIRE_SIZES["primary->sift"]


def test_sift_stores_state_and_pins_address():
    harness = Harness()
    sift = harness.make(SiftService, "sift", 6000)
    harness.sink("encoding", 6100)
    harness.inject(sift, harness.record(step="sift", frame=3))
    harness.sim.run(until=0.2)  # well before the state TTL
    record = harness.received["encoding"][0]
    assert record.sift_address == sift.address
    assert sift.state.keys() == [(0, 3)]
    # The state bytes are charged to the container.
    assert sift.container.state_memory_bytes == \
        config.STATE_ENTRY_BYTES


def test_sift_serves_fetch_and_frees_state():
    harness = Harness()
    sift = harness.make(SiftService, "sift", 6000)
    harness.sink("encoding", 6100)
    matching_addr = harness.sink("matching", 6200)
    harness.inject(sift, harness.record(step="sift", frame=5))
    harness.sim.run(until=0.2)

    fetch = harness.record(step="sift", frame=5, kind=RecordKind.FETCH)
    fetch.meta["fetch_reply_to"] = matching_addr
    harness.inject(sift, fetch)
    harness.sim.run(until=0.4)
    assert sift.fetch_hits == 1
    response = harness.received["matching"][0]
    assert response.kind is RecordKind.FETCH_RESPONSE
    assert response.size_bytes == config.WIRE_SIZES["sift->matching"]
    assert len(sift.state) == 0
    assert sift.container.state_memory_bytes == 0


def test_sift_fetch_miss_sends_nothing():
    harness = Harness()
    sift = harness.make(SiftService, "sift", 6000)
    matching_addr = harness.sink("matching", 6200)
    fetch = harness.record(step="sift", frame=99,
                           kind=RecordKind.FETCH)
    fetch.meta["fetch_reply_to"] = matching_addr
    harness.inject(sift, fetch)
    harness.sim.run()
    assert sift.fetch_misses == 1
    assert "matching" not in harness.received


def test_sift_state_expires_after_ttl():
    harness = Harness()
    sift = harness.make(SiftService, "sift", 6000,
                        state_ttl_s=0.5)
    harness.sink("encoding", 6100)
    harness.inject(sift, harness.record(step="sift", frame=1))
    harness.sim.run(until=0.4)
    assert len(sift.state) == 1
    harness.sim.run(until=1.0)
    assert len(sift.state) == 0


def test_encoding_and_lsh_forward_chain():
    harness = Harness()
    encoding = harness.make(EncodingService, "encoding", 6000)
    harness.sink("lsh", 6100)
    harness.inject(encoding, harness.record(step="encoding"))
    harness.sim.run()
    record = harness.received["lsh"][0]
    assert record.step == "lsh"
    assert record.size_bytes == config.WIRE_SIZES["encoding->lsh"]

    lsh = harness.make(LshService, "lsh", 6200)
    harness.sink("matching", 6300)
    harness.inject(lsh, harness.record(step="lsh"))
    harness.sim.run()
    assert harness.received["matching"][0].size_bytes == \
        config.WIRE_SIZES["lsh->matching"]


def test_matching_completes_frame_with_fetch():
    harness = Harness()
    sift = harness.make(SiftService, "sift", 6000)
    harness.sink("encoding", 6100)
    matching = harness.make(MatchingService, "matching", 6200)
    # Seed sift with state for frame 7.
    harness.inject(sift, harness.record(step="sift", frame=7))
    harness.sim.run(until=0.2)

    work = harness.record(step="matching", frame=7)
    work.sift_address = sift.address
    harness.inject(matching, work)
    harness.sim.run(until=0.5)
    assert matching.results_sent == 1
    assert matching.fetch_timeouts == 0
    results = harness.received["client"]
    assert results[0].kind is RecordKind.RESULT
    assert results[0].frame_number == 7


def test_matching_times_out_without_state():
    harness = Harness()
    sift = harness.make(SiftService, "sift", 6000)
    matching = harness.make(MatchingService, "matching", 6200,
                            fetch_timeout_s=0.02)
    work = harness.record(step="matching", frame=42)
    work.sift_address = sift.address
    harness.inject(matching, work)
    harness.sim.run()
    assert matching.fetch_timeouts == 1
    assert matching.results_sent == 0
    assert "client" not in harness.received


def test_matching_without_sift_address_drops_frame():
    harness = Harness()
    matching = harness.make(MatchingService, "matching", 6200)
    harness.inject(matching, harness.record(step="matching"))
    harness.sim.run()
    assert matching.results_sent == 0
    assert matching.stats.processed == 1  # handled, not crashed


def test_stateless_sift_packs_frame():
    harness = Harness()
    sift = harness.make(StatelessSiftService, "sift", 6000)
    harness.sink("encoding", 6100)
    harness.inject(sift, harness.record(step="sift"))
    harness.sim.run()
    record = harness.received["encoding"][0]
    assert record.size_bytes == 480 * 1024
    assert record.sift_address is None
    assert record.meta.get("packed_state") is True


def test_stateless_matching_replies_directly():
    harness = Harness()
    matching = harness.make(StatelessMatchingService, "matching", 6200)
    harness.inject(matching, harness.record(step="matching", frame=11))
    harness.sim.run()
    assert matching.results_sent == 1
    assert harness.received["client"][0].frame_number == 11
