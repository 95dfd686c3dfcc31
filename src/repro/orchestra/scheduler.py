"""Constraint-based placement.

Given an SLA and the machine inventory, pick a target machine: honour
pins and allow-lists, require a GPU when the SLA demands one, require
enough free memory, and break ties by most free memory (a simple
worst-fit heuristic that spreads load, as Oakestra's default does).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.cluster.machine import Machine
from repro.orchestra.sla import ServiceSla


class SchedulingError(RuntimeError):
    """No machine satisfies the SLA."""


class Scheduler:
    """Placement logic over a machine inventory.

    Mostly stateless; the one piece of state is the set of machines
    currently marked *offline* (a whole-node failure injected by the
    chaos layer), which are excluded from placement until they rejoin.
    """

    def __init__(self, machines: Dict[str, Machine]):
        self.machines = machines
        self._offline: Set[str] = set()

    def set_offline(self, name: str, offline: bool = True) -> None:
        """Mark a machine down (or back up) for placement decisions."""
        if name not in self.machines:
            raise SchedulingError(f"unknown machine {name!r}")
        if offline:
            self._offline.add(name)
        else:
            self._offline.discard(name)

    def feasible_machines(self, sla: ServiceSla) -> List[Machine]:
        """All machines satisfying the SLA's constraints and demands."""
        feasible = []
        for name, machine in sorted(self.machines.items()):
            if name in self._offline:
                continue
            if not sla.permits(name):
                continue
            if sla.requires_gpu and not machine.has_gpu:
                continue
            if machine.memory.free_bytes < sla.memory_bytes:
                continue
            feasible.append(machine)
        return feasible

    def place(self, sla: ServiceSla) -> Machine:
        """Choose the target machine (worst-fit by free memory)."""
        feasible = self.feasible_machines(sla)
        if not feasible:
            raise SchedulingError(
                f"no feasible machine for service {sla.service!r} "
                f"(pin={sla.machine}, gpu={sla.requires_gpu}, "
                f"mem={sla.memory_bytes / 2 ** 30:.1f} GB)")
        return max(feasible, key=lambda m: m.memory.free_bytes)
