"""Service-level agreements: what a service asks of the infrastructure.

Oakestra deployments are driven by per-service SLAs declaring hardware
demands and high-level constraints (§3.2).  Our experiments usually pin
services to machines explicitly (the placement configurations of §4);
when no pin is given the scheduler solves the constraints itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass(frozen=True)
class ServiceSla:
    """Declared demands of one pipeline service."""

    service: str
    #: Resident memory the container needs (model weights, buffers).
    memory_bytes: float
    #: Whether the service needs a GPU (§3.1: all but ``primary``).
    requires_gpu: bool = True
    #: Explicit machine pin; ``None`` lets the scheduler choose.
    machine: Optional[str] = None
    #: Machines the service may run on (empty = anywhere). Models
    #: Oakestra's high-level hardware constraints, e.g. image/arch
    #: compatibility.
    allowed_machines: Tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.memory_bytes <= 0:
            raise ValueError(
                f"memory_bytes must be positive, got {self.memory_bytes}")
        if (self.machine is not None and self.allowed_machines
                and self.machine not in self.allowed_machines):
            raise ValueError(
                f"pinned machine {self.machine!r} is not in "
                f"allowed_machines {self.allowed_machines}")

    def permits(self, machine_name: str) -> bool:
        """Whether the SLA's constraints allow ``machine_name``."""
        if self.machine is not None:
            return machine_name == self.machine
        if self.allowed_machines:
            return machine_name in self.allowed_machines
        return True
