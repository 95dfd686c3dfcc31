"""Capacity probing under a service-level objective.

The paper's capacity question (§4, Fig. 7) is "how many concurrent
clients can a deployment support?" — answered there by sweeping client
counts and eyeballing the knee.  This module makes the knee a number:
a deployment *supports* N clients when the mean per-client analyzed
FPS stays above :data:`~repro.scatter.config.SLO_MIN_FPS` and the p95
end-to-end latency stays below
:data:`~repro.scatter.config.SLO_MAX_P95_MS` (the 100 ms XR budget).

:func:`run_capacity_experiment` finds the largest such N by
exponential ramp + binary search, probing each candidate client count
with a full simulated run.  Every probed cell is passed through the
frame-conservation invariant checker
(:func:`repro.flow.check_result_conservation`) — a capacity number
derived from a run that *loses* frames unaccountably would be
meaningless.  Probing with ``flow=True`` measures what admission
control, credit backpressure and batched dispatch buy;
:func:`run_capacity_comparison` runs both arms and reports the gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.flow import check_result_conservation
from repro.scatter import config as scatter_config
from repro.scatter.config import PlacementConfig

#: Probe ceiling: binary search never tests beyond this many clients.
DEFAULT_MAX_CLIENTS = 64

#: Default per-probe run length (virtual seconds).  Short enough to
#: keep a full binary search affordable, long enough that FPS and p95
#: estimates stabilize past the start-up transient.
DEFAULT_PROBE_DURATION_S = 12.0


@dataclass(frozen=True)
class CapacitySlo:
    """The pass/fail bar a probed cell is held to."""

    min_fps: float = scatter_config.SLO_MIN_FPS
    max_p95_ms: float = scatter_config.SLO_MAX_P95_MS

    def __post_init__(self) -> None:
        if self.min_fps <= 0:
            raise ValueError(
                f"min_fps must be positive, got {self.min_fps}")
        if self.max_p95_ms <= 0:
            raise ValueError(
                f"max_p95_ms must be positive, got {self.max_p95_ms}")

    def met_by(self, fps: float, p95_e2e_ms: float) -> bool:
        return fps >= self.min_fps and p95_e2e_ms <= self.max_p95_ms


@dataclass(frozen=True)
class CellProbe:
    """One probed client count and what the run measured."""

    clients: int
    fps: float
    p95_e2e_ms: float
    success_rate: float
    meets_slo: bool
    #: Flow-control ledger summary (None when probing without flow).
    flow: Optional[dict] = None

    def as_dict(self) -> Dict:
        return {"clients": self.clients, "fps": self.fps,
                "p95_e2e_ms": self.p95_e2e_ms,
                "success_rate": self.success_rate,
                "meets_slo": self.meets_slo, "flow": self.flow}


@dataclass
class CapacityReport:
    """Outcome of one capacity search."""

    placement: str
    slo: CapacitySlo
    flow_enabled: bool
    #: Largest probed client count meeting the SLO (0: even one
    #: client missed it).
    max_clients: int = 0
    #: Every probed cell, in ascending client order.
    probes: List[CellProbe] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {"placement": self.placement,
                "slo": {"min_fps": self.slo.min_fps,
                        "max_p95_ms": self.slo.max_p95_ms},
                "flow_enabled": self.flow_enabled,
                "max_clients": self.max_clients,
                "probes": [p.as_dict() for p in self.probes]}


def probe_cell(placement: PlacementConfig, clients: int, *,
               flow: bool = False,
               slo: Optional[CapacitySlo] = None,
               duration_s: float = DEFAULT_PROBE_DURATION_S,
               seed: int = 0) -> CellProbe:
    """Run one client count and grade it against the SLO.

    The run's sidecar ledgers must balance — every enqueued frame
    accounted for as served, dropped, failed, drained, pending or in
    flight — or a :class:`~repro.flow.ConservationError` is raised.
    """
    if clients < 1:
        raise ValueError(f"clients must be >= 1, got {clients}")
    slo = slo if slo is not None else CapacitySlo()
    result = run_experiment(ExperimentSpec(
        placement, clients, duration_s=duration_s, seed=seed,
        scatterpp=True, flow=flow))
    check_result_conservation(result)
    fps = result.mean_fps()
    p95 = result.percentile_e2e_ms(95.0)
    return CellProbe(clients=clients, fps=fps, p95_e2e_ms=p95,
                     success_rate=result.success_rate(),
                     meets_slo=slo.met_by(fps, p95),
                     flow=result.flow)


def run_capacity_experiment(
        placement: PlacementConfig, *,
        flow: bool = False,
        slo: Optional[CapacitySlo] = None,
        duration_s: float = DEFAULT_PROBE_DURATION_S,
        seed: int = 0,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        progress=None) -> CapacityReport:
    """Find the largest client count meeting the SLO.

    Exponential ramp (1, 2, 4, ...) until a probe fails or the
    ``max_clients`` ceiling is hit, then binary search the bracket.
    Each client count is probed at most once; a monotone SLO frontier
    is assumed (more clients never helps), which holds for this
    pipeline's closed-loop load.
    """
    if max_clients < 1:
        raise ValueError(
            f"max_clients must be >= 1, got {max_clients}")
    slo = slo if slo is not None else CapacitySlo()
    probed: Dict[int, CellProbe] = {}

    def probe(n: int) -> CellProbe:
        if n not in probed:
            probed[n] = probe_cell(
                placement, n, flow=flow, slo=slo,
                duration_s=duration_s, seed=seed)
            if progress is not None:
                cell = probed[n]
                progress(f"{n} client(s): {cell.fps:.1f} FPS, "
                         f"p95 {cell.p95_e2e_ms:.1f} ms -> "
                         + ("pass" if cell.meets_slo else "fail"))
        return probed[n]

    # Exponential ramp to bracket the frontier.
    low, high = 0, None
    n = 1
    while n <= max_clients:
        if probe(n).meets_slo:
            low = n
            n *= 2
        else:
            high = n
            break
    if high is not None:
        # Binary search (low passes, high fails).
        while high - low > 1:
            mid = (low + high) // 2
            if probe(mid).meets_slo:
                low = mid
            else:
                high = mid

    report = CapacityReport(
        placement=placement.name, slo=slo,
        flow_enabled=flow, max_clients=low,
        probes=[probed[n] for n in sorted(probed)])
    return report


def run_capacity_comparison(
        placement: PlacementConfig, *,
        slo: Optional[CapacitySlo] = None,
        duration_s: float = DEFAULT_PROBE_DURATION_S,
        seed: int = 0,
        max_clients: int = DEFAULT_MAX_CLIENTS,
        progress=None) -> Dict:
    """Probe capacity with the flow substrate off, then on.

    Returns ``{"off": report, "on": report, "gain": on/off}`` — the
    number the flow substrate is judged by (its acceptance bar is a
    >= 1.5x gain on the reference deployment; see
    ``benchmarks/bench_capacity_flow.py``).
    """
    arms = {}
    for arm, flow in (("off", False), ("on", True)):
        if progress is not None:
            progress(f"probing with flow {arm.upper()}")
        arms[arm] = run_capacity_experiment(
            placement, flow=flow, slo=slo, duration_s=duration_s,
            seed=seed, max_clients=max_clients, progress=progress)
    off, on = arms["off"], arms["on"]
    gain = (on.max_clients / off.max_clients
            if off.max_clients else float(on.max_clients))
    return {"off": off, "on": on, "gain": gain}
