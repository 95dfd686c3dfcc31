"""Cluster substrate: machines, GPUs, containers, utilization accounting.

Models the paper's testbed hardware (§3.2):

* **E1** — Intel i9 (8 cores), 2× NVIDIA RTX 2080, 128 GB memory.
* **E2** — 2× AMD EPYC 7302 (32 cores), 2× NVIDIA A40, 264 GB memory.
* **Cloud** — 4 vCPU Broadwell, 1× Tesla V100, 64 GB memory
  (virtualized; the paper observes the containerized services are not
  optimized for this architecture — modelled as a >1 speed factor).
* **Client NUCs** — Intel NUC6i5SYB machines hosting virtualized
  clients.

Compute is consumed by holding CPU-core / GPU execution slots for a
duration scaled by the device's speed factor; :class:`UsageMeter`
integrates busy time so utilization can be reported normalized against
total capacity, exactly as the paper normalizes CPU/GPU utilization.
"""

from repro.cluster.gpu import GpuArchitecture, GpuDevice
from repro.cluster.machine import Machine
from repro.cluster.container import Container, ContainerState
from repro.cluster.resources import MemoryAccount, UsageMeter
from repro.cluster.testbed import Testbed, build_paper_testbed

__all__ = [
    "Container",
    "ContainerState",
    "GpuArchitecture",
    "GpuDevice",
    "Machine",
    "MemoryAccount",
    "Testbed",
    "UsageMeter",
    "build_paper_testbed",
]
