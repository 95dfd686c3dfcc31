"""Orchestrator-side hardware sampling.

A :class:`HardwareMonitor` is the view an orchestration framework has
of the workload (§3.2): per-machine CPU/GPU utilization (normalized to
total capacity) and per-container memory, sampled on an interval.  The
paper's central observation (insight I) is that these series do *not*
track application QoS — experiments report both so the divergence is
visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

import numpy as np

from repro.cluster.container import Container, ContainerState
from repro.cluster.machine import GB, Machine
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class HardwareSample:
    """One sampling instant."""

    timestamp_s: float
    #: machine -> CPU utilization in [0, 1] over the last interval.
    cpu: Dict[str, float]
    #: machine -> GPU utilization in [0, 1] over the last interval.
    gpu: Dict[str, float]
    #: container id -> resident memory bytes.
    memory_bytes: Dict[str, float]


class HardwareMonitor:
    """Periodic sampler over machines and containers."""

    def __init__(self, sim: Simulator, machines: Iterable[Machine],
                 interval_s: float = 1.0):
        if interval_s <= 0:
            raise ValueError(
                f"interval_s must be positive, got {interval_s}")
        self.sim = sim
        self.machines = list(machines)
        self.interval_s = interval_s
        self.containers: List[Container] = []
        self.samples: List[HardwareSample] = []
        self._running = False

    def watch(self, container: Container) -> None:
        if container not in self.containers:
            self.containers.append(container)

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.sim.spawn(self._sampler(), name="hardware-monitor")

    def _sampler(self):
        while True:
            yield self.sim.timeout(self.interval_s)
            self.sample_now()

    def sample_now(self) -> HardwareSample:
        """Take one sample immediately (also runs on the interval)."""
        cpu = {m.name: m.cpu_meter.window_utilization(reset=True)
               for m in self.machines}
        gpu = {}
        for machine in self.machines:
            if machine.gpus:
                gpu[machine.name] = float(np.mean(
                    [g.meter.window_utilization(reset=True)
                     for g in machine.gpus]))
            else:
                gpu[machine.name] = 0.0
        memory = {c.id: c.memory_bytes() for c in self.containers
                  if c.state is ContainerState.RUNNING}
        sample = HardwareSample(timestamp_s=self.sim.now, cpu=cpu,
                                gpu=gpu, memory_bytes=memory)
        self.samples.append(sample)
        return sample

    # ------------------------------------------------------------------
    # Aggregation helpers used by experiment reporting
    # ------------------------------------------------------------------
    def mean_cpu(self, machine: str) -> float:
        values = [s.cpu.get(machine, 0.0) for s in self.samples]
        return float(np.mean(values)) if values else 0.0

    def mean_gpu(self, machine: str) -> float:
        values = [s.gpu.get(machine, 0.0) for s in self.samples]
        return float(np.mean(values)) if values else 0.0

    def service_memory_gb(self) -> Dict[str, float]:
        """Mean memory per *service* (containers summed per service)."""
        per_service: Dict[str, List[float]] = {}
        for container in self.containers:
            service = container.service
            values = [s.memory_bytes.get(container.id, 0.0)
                      for s in self.samples]
            if not values:
                continue
            per_service.setdefault(service, []).append(
                float(np.mean(values)))
        return {service: sum(values) / GB
                for service, values in per_service.items()}
