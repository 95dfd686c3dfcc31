"""Machine model: CPU cores, GPUs, memory, and per-machine accounting."""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.gpu import GpuArchitecture, GpuDevice
from repro.cluster.resources import MemoryAccount, UsageMeter
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource

GB = 1024 ** 3


class Machine:
    """A server (or NUC) in the testbed.

    * CPU: ``cpu_cores`` parallel cores with a relative ``cpu_factor``
      (E1's i9 is the 1.0 reference).
    * GPU: zero or more :class:`GpuDevice`; containers are pinned to one
      device at deployment.
    * Memory: a byte-granular :class:`MemoryAccount`.
    """

    def __init__(self, sim: Simulator, name: str, *, cpu_cores: int,
                 memory_gb: float, cpu_factor: float = 1.0,
                 gpu_architecture: Optional[GpuArchitecture] = None,
                 gpu_count: int = 0):
        if cpu_cores < 1:
            raise ValueError(f"cpu_cores must be >= 1, got {cpu_cores}")
        if gpu_count and gpu_architecture is None:
            raise ValueError("gpu_count > 0 requires a gpu_architecture")
        self.sim = sim
        self.name = name
        self.cpu_cores = cpu_cores
        self.cpu_factor = cpu_factor
        self.cpu = Resource(sim, capacity=cpu_cores)
        self.cpu_meter = UsageMeter(sim, capacity=float(cpu_cores))
        self.gpus: List[GpuDevice] = [
            GpuDevice(sim, gpu_architecture, index=i)
            for i in range(gpu_count)
        ]
        self.memory = MemoryAccount(capacity_bytes=memory_gb * GB)
        self._next_gpu = 0

    @property
    def has_gpu(self) -> bool:
        return bool(self.gpus)

    def assign_gpu(self) -> GpuDevice:
        """Round-robin a container onto one of this machine's GPUs."""
        if not self.gpus:
            raise ValueError(f"machine {self.name} has no GPU")
        device = self.gpus[self._next_gpu % len(self.gpus)]
        self._next_gpu += 1
        return device

    def execute_cpu(self, base_time_s: float):
        """Process generator: hold one CPU core for a scaled duration."""
        if not self.cpu.try_acquire():  # a free core is taken at once
            yield self.cpu.acquire()
        self.cpu_meter.add(1.0)
        try:
            yield self.sim.timeout(base_time_s * self.cpu_factor)
        finally:
            self.cpu_meter.remove(1.0)
            self.cpu.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        gpu = (f"{len(self.gpus)}x{self.gpus[0].architecture.name}"
               if self.gpus else "none")
        return (f"Machine({self.name}, {self.cpu_cores} cores, gpu={gpu}, "
                f"{self.memory.capacity_bytes / GB:.0f} GB)")
