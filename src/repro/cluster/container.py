"""Containerized service instances.

A :class:`Container` is one deployed replica of a pipeline service: it
is pinned to a machine (and, for GPU services, to one GPU device),
reserves its base memory footprint on creation, and accounts all of its
compute and state memory against the host machine.  The orchestrator
observes containers only through their hardware meters — precisely the
visibility gap the paper studies (insight I/IV).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.cluster.gpu import GpuDevice
from repro.cluster.machine import Machine


class ContainerState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    FAILED = "failed"
    TERMINATED = "terminated"


class Container:
    """One replica of a service, bound to a machine."""

    _ids = 0

    def __init__(self, machine: Machine, service: str, *,
                 base_memory_bytes: float, uses_gpu: bool = True,
                 gpu: Optional[GpuDevice] = None):
        Container._ids += 1
        self.id = f"{service}-{Container._ids}"
        self.machine = machine
        self.service = service
        self.base_memory_bytes = base_memory_bytes
        self.uses_gpu = uses_gpu
        if uses_gpu and gpu is None:
            gpu = machine.assign_gpu()
        self.gpu = gpu
        self.state = ContainerState.PENDING
        self.state_memory_bytes = 0.0

    def start(self) -> None:
        if self.state is ContainerState.RUNNING:
            return
        self.machine.memory.allocate(self.base_memory_bytes)
        self.state = ContainerState.RUNNING

    def stop(self, failed: bool = False) -> None:
        if self.state is not ContainerState.RUNNING:
            return
        self.machine.memory.free(self.base_memory_bytes
                                 + self.state_memory_bytes)
        self.state_memory_bytes = 0.0
        self.state = (ContainerState.FAILED if failed
                      else ContainerState.TERMINATED)

    def allocate_state(self, amount_bytes: float) -> None:
        """Grow in-container state (sift's in-memory frame store)."""
        self.machine.memory.allocate(amount_bytes)
        self.state_memory_bytes += amount_bytes

    def free_state(self, amount_bytes: float) -> None:
        amount = min(amount_bytes, self.state_memory_bytes)
        self.machine.memory.free(amount)
        self.state_memory_bytes -= amount

    def memory_bytes(self) -> float:
        """Total memory charged to this container right now."""
        if self.state is not ContainerState.RUNNING:
            return 0.0
        return self.base_memory_bytes + self.state_memory_bytes

    def scaled_time(self, base_time_s: float) -> float:
        """Seconds an E1-calibrated ``base_time_s`` of work takes here:
        the pinned GPU's speed factor for GPU services, the host's CPU
        factor otherwise — the branch :meth:`compute` takes."""
        if self.uses_gpu and self.gpu is not None:
            return self.gpu.scaled_time(base_time_s)
        return base_time_s * self.machine.cpu_factor

    def compute(self, base_time_s: float, gpu_intensity: float = 1.0):
        """The process generator that runs one unit of work on GPU or
        CPU: ``yield from container.compute(...)``.

        GPU services contend on the pinned device's execution slot
        (``gpu_intensity`` is the share of device compute their kernels
        keep busy); CPU-only services (``primary``) contend on host
        cores.
        """
        if self.uses_gpu and self.gpu is not None:
            return self.gpu.execute(base_time_s, intensity=gpu_intensity)
        return self.machine.execute_cpu(base_time_s)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self.gpu.name if self.gpu else "cpu"
        return f"Container({self.id}@{self.machine.name}/{where}, {self.state.value})"
