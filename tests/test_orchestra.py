"""Unit tests for SLAs, the scheduler and the orchestrator."""

import numpy as np
import pytest

from repro.cluster import Container
from repro.cluster.machine import GB
from repro.dsp import StreamService
from repro.orchestra import (
    Orchestrator,
    OrchestratorError,
    Scheduler,
    SchedulingError,
    ServiceSla,
)
from repro.sim import RngRegistry, Simulator
from repro.cluster.testbed import build_paper_testbed


class NullService(StreamService):
    """A service that computes and does nothing else."""

    def process(self, record):
        yield from self.compute()


def null_factory(sla, machine, address):
    container = Container(machine, sla.service,
                          base_memory_bytes=sla.memory_bytes,
                          uses_gpu=sla.requires_gpu)
    return NullService(name=sla.service, network=_TESTBED.network,
                       registry=_REGISTRY, container=container,
                       address=address, base_time_s=0.010,
                       rng=np.random.default_rng(0))


_TESTBED = None
_REGISTRY = None


@pytest.fixture
def orchestrator():
    global _TESTBED, _REGISTRY
    sim = Simulator()
    _TESTBED = build_paper_testbed(sim, RngRegistry(0), num_clients=2)
    orch = Orchestrator(_TESTBED)
    _REGISTRY = orch.registry
    return orch


# ----------------------------------------------------------------------
# SLA
# ----------------------------------------------------------------------
def test_sla_permits_pin():
    sla = ServiceSla("sift", memory_bytes=GB, machine="e1")
    assert sla.permits("e1")
    assert not sla.permits("e2")


def test_sla_permits_allowlist():
    sla = ServiceSla("sift", memory_bytes=GB,
                     allowed_machines=("e1", "e2"))
    assert sla.permits("e2")
    assert not sla.permits("cloud")


def test_sla_permits_anywhere_by_default():
    sla = ServiceSla("sift", memory_bytes=GB)
    assert sla.permits("anything")


def test_sla_validation():
    with pytest.raises(ValueError):
        ServiceSla("bad", memory_bytes=0)
    with pytest.raises(ValueError):
        ServiceSla("bad", memory_bytes=GB, machine="e9",
                   allowed_machines=("e1",))


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
def test_scheduler_honours_pin(orchestrator):
    scheduler = orchestrator.scheduler
    sla = ServiceSla("sift", memory_bytes=GB, machine="e2")
    assert scheduler.place(sla).name == "e2"


def test_scheduler_requires_gpu(orchestrator):
    scheduler = orchestrator.scheduler
    sla = ServiceSla("sift", memory_bytes=GB, requires_gpu=True)
    chosen = scheduler.place(sla)
    assert chosen.has_gpu


def test_scheduler_worst_fit_prefers_most_free_memory(orchestrator):
    scheduler = orchestrator.scheduler
    sla = ServiceSla("svc", memory_bytes=GB, requires_gpu=True)
    # E2 has 264 GB, the most free memory among GPU machines.
    assert scheduler.place(sla).name == "e2"


def test_scheduler_rejects_oversized_demand(orchestrator):
    scheduler = orchestrator.scheduler
    sla = ServiceSla("hog", memory_bytes=10_000 * GB)
    with pytest.raises(SchedulingError):
        scheduler.place(sla)


def test_scheduler_rejects_gpu_on_cpu_only_pin(orchestrator):
    scheduler = orchestrator.scheduler
    sla = ServiceSla("svc", memory_bytes=GB, requires_gpu=True,
                     machine="nuc0")
    with pytest.raises(SchedulingError):
        scheduler.place(sla)


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
def test_deploy_registers_and_starts(orchestrator):
    sla = ServiceSla("sift", memory_bytes=GB, machine="e1")
    instances = orchestrator.deploy(sla, null_factory)
    assert len(instances) == 1
    instance = instances[0]
    assert instance.address.node == "e1"
    assert orchestrator.registry.instances("sift") == [instance.address]
    assert _TESTBED.machine("e1").memory.in_use_bytes == GB


def test_deploy_multiple_replicas(orchestrator):
    sla = ServiceSla("sift", memory_bytes=GB, machine="e1")
    instances = orchestrator.deploy(sla, null_factory, replicas=3)
    assert len(instances) == 3
    assert len(orchestrator.registry.instances("sift")) == 3
    ports = [i.address.port for i in instances]
    assert len(set(ports)) == 3


def test_scale_up_on_other_machine(orchestrator):
    sla = ServiceSla("sift", memory_bytes=GB, machine="e1")
    orchestrator.deploy(sla, null_factory)
    replica = orchestrator.scale_up("sift", machine="e2")
    assert replica.address.node == "e2"
    assert len(orchestrator.instances("sift")) == 2


def test_scale_up_pin_keeps_allowed_machines(orchestrator):
    sla = ServiceSla("sift", memory_bytes=GB, allowed_machines=("e1",))
    orchestrator.deploy(sla, null_factory)
    with pytest.raises(SchedulingError):
        orchestrator.scale_up("sift", machine="e2")
    replica = orchestrator.scale_up("sift", machine="e1")
    assert replica.address.node == "e1"
    assert len(orchestrator.instances("sift")) == 2


def test_scale_up_unknown_service(orchestrator):
    with pytest.raises(OrchestratorError):
        orchestrator.scale_up("ghost")


def test_failure_redeploy(orchestrator):
    sla = ServiceSla("sift", memory_bytes=GB, machine="e1")
    instances = orchestrator.deploy(sla, null_factory)
    orchestrator.start()
    orchestrator.fail_instance(instances[0])
    assert orchestrator.registry.instances("sift") == []
    _TESTBED.sim.run(until=3.0)
    assert orchestrator.redeploy_count == 1
    replacements = orchestrator.instances("sift")
    assert len(replacements) == 1
    assert replacements[0].container.state.value == "running"
    assert len(orchestrator.registry.instances("sift")) == 1


def test_monitor_collects_samples(orchestrator):
    sla = ServiceSla("sift", memory_bytes=GB, machine="e1")
    orchestrator.deploy(sla, null_factory)
    orchestrator.start()
    _TESTBED.sim.run(until=3.5)
    assert len(orchestrator.monitor.samples) == 3


def test_deploy_validation(orchestrator):
    sla = ServiceSla("sift", memory_bytes=GB, machine="e1")
    with pytest.raises(OrchestratorError):
        orchestrator.deploy(sla, null_factory, replicas=0)
