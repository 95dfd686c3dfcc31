"""GPU devices and architecture speed model.

The paper deliberately mixes GPU architectures (E1: GeForce RTX/Turing,
E2: Ampere, cloud: Tesla/Volta) to capture edge-cloud heterogeneity and
observes that the same container performs differently per architecture
(recommendation V).  We model each architecture as a *speed factor*
relative to E1's RTX 2080 — a service's calibrated base time is
multiplied by the factor of the device it lands on.

Factors are calibrated from §4: E2 is slightly faster than E1
("explained by the hardware capabilities of the former"), while the
cloud V100 — nominally fast silicon — runs the *unoptimized virtualized
build* slower ("the virtualized application is not optimized for the
Tesla GPU architecture").
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.cluster.resources import UsageMeter
from repro.sim.kernel import Simulator
from repro.sim.resources import Resource


@dataclass(frozen=True)
class GpuArchitecture:
    """A GPU family with its calibrated relative speed."""

    name: str
    #: Multiplier applied to E1-calibrated service times (<1 = faster).
    speed_factor: float
    memory_gb: float

    def __post_init__(self) -> None:
        if self.speed_factor <= 0:
            raise ValueError(
                f"speed_factor must be positive, got {self.speed_factor}")


#: E1's GPUs — the calibration reference (factor 1.0).
RTX_2080 = GpuArchitecture("rtx2080", speed_factor=1.00, memory_gb=8.0)
#: E2's GPUs — Ampere datacenter cards, a bit faster end to end.
A40 = GpuArchitecture("a40", speed_factor=0.85, memory_gb=48.0)
#: The AWS V100 running the un-tuned virtualized build (§4 Cloud).
TESLA_V100_VIRTUALIZED = GpuArchitecture(
    "v100-virt", speed_factor=1.10, memory_gb=16.0)


class GpuDevice:
    """One physical GPU: an execution slot plus a utilization meter.

    GPU kernels from co-located containers serialize on the execution
    slot — the contention the paper flags for vertical scaling (§5,
    "resource contention, which is critical especially for GPUs").
    """

    def __init__(self, sim: Simulator, architecture: GpuArchitecture,
                 index: int = 0, concurrency: int = 1):
        self.sim = sim
        self.architecture = architecture
        self.index = index
        self.slot = Resource(sim, capacity=concurrency)
        self.meter = UsageMeter(sim, capacity=float(concurrency))

    @property
    def name(self) -> str:
        return f"{self.architecture.name}[{self.index}]"

    def scaled_time(self, base_time_s: float) -> float:
        """Service time on this device for an E1-calibrated base time."""
        return base_time_s * self.architecture.speed_factor

    def execute(self, base_time_s: float, intensity: float = 1.0):
        """Process generator: run a kernel of ``base_time_s`` (E1-scale).

        Serializes on the execution slot (kernels from co-located
        containers queue) and integrates ``intensity`` — the fraction
        of the device's compute the kernel actually keeps busy — into
        the utilization meter.  Occupancy and utilization differ on
        real GPUs; nvidia-smi-style utilization is what orchestrators
        see, hence what the meter reports.  Usage::

            yield from gpu.execute(0.013, intensity=0.4)
        """
        if not 0.0 < intensity <= 1.0:
            raise ValueError(f"intensity must be in (0, 1], got {intensity}")
        # A free slot is taken on the spot: waiting for a grant that is
        # already given would only add two events at this instant.
        if not self.slot.try_acquire():
            yield self.slot.acquire()
        self.meter.add(intensity)
        try:
            yield self.sim.timeout(self.scaled_time(base_time_s))
        finally:
            self.meter.remove(intensity)
            self.slot.release()
