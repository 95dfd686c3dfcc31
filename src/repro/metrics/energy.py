"""Device and server energy models (joules-per-frame accounting).

Mobile AR offloading trades device battery for server watts; the
placement characterization papers this repo reproduces measure only
latency and throughput.  Following Al-Shuwaili & Simeone's
energy-aware offloading formulation, this module adds the missing
axis: a post-hoc power model that attributes joules to every pipeline
stage, machine, and client device of a finished run — making
*joules-per-frame* a first-class optimization objective alongside the
capacity SLO (see :mod:`repro.orchestra.optimize`).

The model is deliberately *post-hoc*: it reads the counters a run
already produces (``ServiceStats.processed`` per replica, client
frame ledgers, the placement's machine set) and never schedules an
event, so attaching it cannot perturb a trajectory — the determinism
goldens stay byte-identical with the model on or off.

Accounting identity (checked exactly by ``tests/test_metrics.py``)::

    total_j == device_j + idle_j + sum(per_stage_j in pipeline order)

The summands are produced by one ordered summation, so the identity
holds bit-for-bit, not approximately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.scatter import config as scatter_config
from repro.scatter.config import PIPELINE_ORDER

#: Nameplate idle draw per machine (watts) — chassis + DRAM + idle
#: GPU.  E1 is a workstation-class edge node, E2 a 2U server, the
#: cloud VM a slice of a shared host (only its share is billed).
DEFAULT_IDLE_W = {"e1": 60.0, "e2": 110.0, "cloud": 45.0}

#: CPU package draw at full single-service load (watts).
DEFAULT_CPU_ACTIVE_W = {"e1": 65.0, "e2": 125.0, "cloud": 40.0}

#: GPU board power at full occupancy (watts): RTX 2080 ≈ 215 W,
#: A40 ≈ 300 W, virtualized V100 slice ≈ 250 W.  A service consuming
#: a fraction of the device (``GPU_INTENSITY``) is charged that
#: fraction of board power while its kernels run.
DEFAULT_GPU_ACTIVE_W = {"e1": 215.0, "e2": 300.0, "cloud": 250.0}

#: Relative cost rate per replica-second (dimensionless units):
#: edge boxes are owned, the cloud VM is rented — the spread mirrors
#: typical on-demand GPU pricing against amortized edge hardware.
DEFAULT_COST_RATE = {"e1": 1.0, "e2": 1.6, "cloud": 4.0}

#: Client device (phone-class) draw while the AR app streams.
DEFAULT_DEVICE_IDLE_W = 2.0

#: Radio energy per byte on the uplink/downlink (joules/byte) —
#: WiFi-class figures; the uplink carries 250 KB frames, so transmit
#: dominates device energy exactly as the offloading literature finds.
DEFAULT_DEVICE_TX_J_PER_BYTE = 3.0e-7
DEFAULT_DEVICE_RX_J_PER_BYTE = 1.0e-7


@dataclass(frozen=True)
class PowerModel:
    """Per-machine and per-device power parameters.

    All tables are keyed by machine name; ``repr()`` of the model is
    deterministic and is folded into the optimizer's cell-cache
    fingerprint, so editing a wattage misses the cache instead of
    replaying stale energy numbers.
    """

    idle_w: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_IDLE_W))
    cpu_active_w: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_CPU_ACTIVE_W))
    gpu_active_w: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_GPU_ACTIVE_W))
    cost_rate: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_COST_RATE))
    device_idle_w: float = DEFAULT_DEVICE_IDLE_W
    device_tx_j_per_byte: float = DEFAULT_DEVICE_TX_J_PER_BYTE
    device_rx_j_per_byte: float = DEFAULT_DEVICE_RX_J_PER_BYTE

    def __post_init__(self) -> None:
        for label, table in (("idle_w", self.idle_w),
                             ("cpu_active_w", self.cpu_active_w),
                             ("gpu_active_w", self.gpu_active_w),
                             ("cost_rate", self.cost_rate)):
            for machine, value in table.items():
                if value < 0:
                    raise ValueError(
                        f"{label}[{machine!r}] must be >= 0, "
                        f"got {value}")
        for label, value in (
                ("device_idle_w", self.device_idle_w),
                ("device_tx_j_per_byte", self.device_tx_j_per_byte),
                ("device_rx_j_per_byte", self.device_rx_j_per_byte)):
            if value < 0:
                raise ValueError(f"{label} must be >= 0, got {value}")

    # ------------------------------------------------------------------
    def active_watts(self, machine: str, service: str) -> float:
        """Draw attributable to ``service`` computing on ``machine``.

        GPU services are charged their occupancy share of board power
        (occupancy ≠ utilization — the same distinction the hardware
        monitor makes); CPU services are charged package power.
        """
        if scatter_config.SERVICE_USES_GPU[service]:
            return (self.gpu_active_w[machine]
                    * scatter_config.GPU_INTENSITY[service])
        return self.cpu_active_w[machine]

    def as_dict(self) -> Dict:
        return {"idle_w": dict(self.idle_w),
                "cpu_active_w": dict(self.cpu_active_w),
                "gpu_active_w": dict(self.gpu_active_w),
                "cost_rate": dict(self.cost_rate),
                "device_idle_w": self.device_idle_w,
                "device_tx_j_per_byte": self.device_tx_j_per_byte,
                "device_rx_j_per_byte": self.device_rx_j_per_byte}


#: The model every runner and the optimizer use unless told otherwise.
DEFAULT_POWER_MODEL = PowerModel()


def energy_summary(result, model: PowerModel = DEFAULT_POWER_MODEL
                   ) -> Dict:
    """Attribute the joules of one finished experiment run.

    Reads only post-run counters (never the event queue):

    * **per-stage** — for every live replica, ``processed`` frames ×
      its device-scaled per-frame compute seconds
      (:meth:`~repro.cluster.container.Container.scaled_time`) × the
      stage's active watts on its machine;
    * **idle** — every machine hosting at least one replica (placement
      machines plus any a handover scaled a replica onto) burns its
      idle draw for the whole run;
    * **device** — per client: streaming idle draw plus radio joules
      for every frame sent (uplink) and result received (downlink).

    ``joules_per_frame`` divides the total by frames *received* — the
    frames that delivered value — and is ``None`` when nothing was
    delivered (the optimizer treats that as infinitely expensive).
    """
    duration = result.duration_s
    pipeline = result.pipeline
    machines = set(pipeline.placement.machines_used())

    per_stage: Dict[str, float] = {}
    replicas = 0
    cost_units = 0.0
    for service in PIPELINE_ORDER:
        stage_j = 0.0
        for instance in pipeline.instances(service):
            machine = instance.container.machine
            machines.add(machine.name)
            replicas += 1
            busy_s = (instance.stats.processed
                      * instance.container.scaled_time(
                          instance.base_time_s))
            stage_j += busy_s * model.active_watts(machine.name,
                                                   service)
            cost_units += duration * model.cost_rate[machine.name]
        per_stage[service] = stage_j

    idle_j = sum(model.idle_w[name] * duration
                 for name in sorted(machines))

    frames_sent = sum(c.frames_sent for c in result.clients)
    frames_received = sum(c.frames_received for c in result.clients)
    device_j = (
        frames_sent * scatter_config.WIRE_SIZES["client->primary"]
        * model.device_tx_j_per_byte
        + frames_received * scatter_config.WIRE_SIZES["matching->client"]
        * model.device_rx_j_per_byte
        + len(result.clients) * duration * model.device_idle_w)

    # One ordered summation produces the conservation identity
    # exactly: total == device + idle + sum(stages in pipeline order).
    total_j = device_j + idle_j
    for service in PIPELINE_ORDER:
        total_j += per_stage[service]

    joules_per_frame: Optional[float] = (
        total_j / frames_received if frames_received else None)
    return {
        "per_stage_j": per_stage,
        "idle_j": idle_j,
        "device_j": device_j,
        "total_j": total_j,
        "joules_per_frame": joules_per_frame,
        "cost_units": cost_units,
        "frames_received": frames_received,
        "frames_sent": frames_sent,
        "machines": sorted(machines),
        "replicas": replicas,
    }
