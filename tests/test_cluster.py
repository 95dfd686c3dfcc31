"""Unit tests for the cluster substrate."""

import pytest

from repro.cluster import (
    Container,
    ContainerState,
    GpuArchitecture,
    GpuDevice,
    Machine,
    MemoryAccount,
    UsageMeter,
    build_paper_testbed,
)
from repro.cluster.gpu import A40, RTX_2080, TESLA_V100_VIRTUALIZED
from repro.cluster.machine import GB
from repro.sim import RngRegistry, Simulator


# ----------------------------------------------------------------------
# UsageMeter
# ----------------------------------------------------------------------
def test_meter_idle_is_zero():
    sim = Simulator()
    meter = UsageMeter(sim, capacity=4)
    sim.run(until=10.0)
    assert meter.window_utilization() == 0.0


def test_meter_full_busy_is_one():
    sim = Simulator()
    meter = UsageMeter(sim, capacity=2)
    meter.add(2.0)
    sim.run(until=10.0)
    assert meter.window_utilization() == pytest.approx(1.0)


def test_meter_half_busy():
    sim = Simulator()
    meter = UsageMeter(sim, capacity=2)
    meter.add(1.0)
    sim.schedule(5.0, meter.remove, 1.0)
    sim.run(until=10.0)
    # 1 of 2 cores for 5 s of a 10 s window = 25%.
    assert meter.window_utilization() == pytest.approx(0.25)


def test_meter_window_reset():
    sim = Simulator()
    meter = UsageMeter(sim, capacity=1)
    meter.add(1.0)
    sim.run(until=4.0)
    assert meter.window_utilization(reset=True) == pytest.approx(1.0)
    meter.remove(1.0)
    sim.run(until=8.0)
    assert meter.window_utilization() == pytest.approx(0.0)


def test_meter_overflow_rejected():
    sim = Simulator()
    meter = UsageMeter(sim, capacity=1)
    meter.add(1.0)
    with pytest.raises(ValueError):
        meter.add(1.0)


def test_meter_negative_rejected():
    sim = Simulator()
    meter = UsageMeter(sim, capacity=1)
    with pytest.raises(ValueError):
        meter.remove(1.0)


# ----------------------------------------------------------------------
# MemoryAccount
# ----------------------------------------------------------------------
def test_memory_allocate_free_peak():
    memory = MemoryAccount(capacity_bytes=10 * GB)
    memory.allocate(4 * GB)
    memory.allocate(2 * GB)
    assert memory.in_use_bytes == 6 * GB
    memory.free(3 * GB)
    assert memory.in_use_bytes == 3 * GB
    assert memory.free_bytes == 7 * GB


def test_memory_overfree_rejected():
    memory = MemoryAccount(capacity_bytes=GB)
    memory.allocate(10)
    with pytest.raises(ValueError):
        memory.free(100)


# ----------------------------------------------------------------------
# GPU
# ----------------------------------------------------------------------
def test_gpu_architecture_factors():
    assert RTX_2080.speed_factor == 1.0
    assert A40.speed_factor < 1.0
    assert TESLA_V100_VIRTUALIZED.speed_factor > 1.0


def test_gpu_architecture_validation():
    with pytest.raises(ValueError):
        GpuArchitecture("bad", speed_factor=0.0, memory_gb=1.0)


def test_gpu_execute_scales_time():
    sim = Simulator()
    gpu = GpuDevice(sim, A40)
    done = []

    def work():
        yield from gpu.execute(0.100)
        done.append(sim.now)

    sim.spawn(work())
    sim.run()
    assert done == [pytest.approx(0.085)]


def test_gpu_contention_serializes():
    sim = Simulator()
    gpu = GpuDevice(sim, RTX_2080)
    done = []

    def work(tag):
        yield from gpu.execute(0.010)
        done.append((tag, sim.now))

    sim.spawn(work("a"))
    sim.spawn(work("b"))
    sim.run()
    assert done[0] == ("a", pytest.approx(0.010))
    assert done[1] == ("b", pytest.approx(0.020))
    assert gpu.meter.window_utilization() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Machine
# ----------------------------------------------------------------------
def test_machine_gpu_round_robin():
    sim = Simulator()
    machine = Machine(sim, "e1", cpu_cores=8, memory_gb=128,
                      gpu_architecture=RTX_2080, gpu_count=2)
    first = machine.assign_gpu()
    second = machine.assign_gpu()
    third = machine.assign_gpu()
    assert first.index == 0
    assert second.index == 1
    assert third is first


def test_machine_without_gpu_rejects_assignment():
    sim = Simulator()
    machine = Machine(sim, "nuc", cpu_cores=4, memory_gb=32)
    assert not machine.has_gpu
    with pytest.raises(ValueError):
        machine.assign_gpu()


def test_machine_cpu_execute_uses_factor():
    sim = Simulator()
    machine = Machine(sim, "cloud", cpu_cores=4, memory_gb=64,
                      cpu_factor=1.5)
    done = []

    def work():
        yield from machine.execute_cpu(0.100)
        done.append(sim.now)

    sim.spawn(work())
    sim.run()
    assert done == [pytest.approx(0.150)]


def test_machine_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Machine(sim, "bad", cpu_cores=0, memory_gb=1)
    with pytest.raises(ValueError):
        Machine(sim, "bad", cpu_cores=1, memory_gb=1, gpu_count=1)


# ----------------------------------------------------------------------
# Container
# ----------------------------------------------------------------------
def make_machine(sim):
    return Machine(sim, "e1", cpu_cores=8, memory_gb=128,
                   gpu_architecture=RTX_2080, gpu_count=2)


def test_container_lifecycle_memory():
    sim = Simulator()
    machine = make_machine(sim)
    container = Container(machine, "sift", base_memory_bytes=GB)
    assert container.state is ContainerState.PENDING
    assert machine.memory.in_use_bytes == 0
    container.start()
    assert container.state is ContainerState.RUNNING
    assert machine.memory.in_use_bytes == GB
    container.stop()
    assert container.state is ContainerState.TERMINATED
    assert machine.memory.in_use_bytes == 0


def test_container_state_memory_grows_and_frees():
    sim = Simulator()
    machine = make_machine(sim)
    container = Container(machine, "sift", base_memory_bytes=GB)
    container.start()
    container.allocate_state(GB / 2)
    assert container.memory_bytes() == pytest.approx(1.5 * GB)
    container.free_state(GB / 2)
    assert container.memory_bytes() == pytest.approx(GB)


def test_container_stop_releases_state_memory():
    sim = Simulator()
    machine = make_machine(sim)
    container = Container(machine, "sift", base_memory_bytes=GB)
    container.start()
    container.allocate_state(2 * GB)
    container.stop(failed=True)
    assert container.state is ContainerState.FAILED
    assert machine.memory.in_use_bytes == 0


def test_container_gpu_compute_busy_meter():
    sim = Simulator()
    machine = make_machine(sim)
    container = Container(machine, "sift", base_memory_bytes=GB)
    container.start()

    def work():
        yield from container.compute(0.010)

    sim.spawn(work())
    sim.run(until=0.010)
    # The pinned device's meter is the busy meter: busy the whole run,
    # while the machine's other GPU stays idle.
    assert container.gpu.meter.window_utilization() == pytest.approx(1.0)
    assert sorted(gpu.meter.window_utilization()
                  for gpu in machine.gpus) == pytest.approx([0.0, 1.0])


def test_container_cpu_only():
    sim = Simulator()
    machine = make_machine(sim)
    container = Container(machine, "primary", base_memory_bytes=GB,
                          uses_gpu=False)
    container.start()
    done = []

    def work():
        yield from container.compute(0.010)
        done.append(sim.now)

    sim.spawn(work())
    sim.run()
    assert done == [pytest.approx(0.010)]
    assert machine.cpu_meter.window_utilization() > 0


# ----------------------------------------------------------------------
# Testbed
# ----------------------------------------------------------------------
def test_paper_testbed_shape():
    sim = Simulator()
    testbed = build_paper_testbed(sim, RngRegistry(0), num_clients=3)
    assert set(testbed.machines) == {"e1", "e2", "cloud",
                                     "nuc0", "nuc1", "nuc2"}
    assert testbed.client_nodes == ["nuc0", "nuc1", "nuc2"]
    e1 = testbed.machine("e1")
    assert e1.cpu_cores == 8
    assert len(e1.gpus) == 2
    e2 = testbed.machine("e2")
    assert e2.cpu_cores == 32
    assert e2.gpus[0].architecture is A40
    cloud = testbed.machine("cloud")
    assert len(cloud.gpus) == 1


def test_paper_testbed_rtts():
    sim = Simulator()
    testbed = build_paper_testbed(sim, RngRegistry(0), num_clients=1)
    net = testbed.network
    assert net.path_rtt("nuc0", "e1") == pytest.approx(0.001)
    assert net.path_rtt("nuc0", "e2") == pytest.approx(0.004)
    assert net.path_rtt("nuc0", "cloud") == pytest.approx(0.015)
    assert net.path_rtt("e1", "e2") == pytest.approx(0.003)


def test_paper_testbed_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        build_paper_testbed(sim, RngRegistry(0), num_clients=0)


def test_testbed_unknown_machine():
    sim = Simulator()
    testbed = build_paper_testbed(sim, RngRegistry(0), num_clients=1)
    with pytest.raises(KeyError):
        testbed.machine("e9")
