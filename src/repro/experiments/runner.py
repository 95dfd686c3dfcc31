"""Run one deployment configuration under client load.

Mirrors the paper's methodology (§3.2): N virtualized clients replay
the 30 FPS video against a deployed pipeline for a fixed run duration
while the orchestrator samples hardware; QoS aggregates are computed
from client logs afterwards.  Simulated runs default to 60 s (the
paper runs 5 minutes of wall clock; virtual time is statistics-
equivalent and the full five minutes is available via ``duration_s``).

Every experiment is one frozen :class:`ExperimentSpec` — the placement,
the client count and run length, the pipeline variant, and optional
attachments (flow control, a cohort, mobility, chaos, a staged client
ramp, tracing, profiling) — executed by :func:`run_experiment`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.testbed import Testbed, build_paper_testbed
from repro.flow import FlowConfig
from repro.metrics.hardware import HardwareMonitor
from repro.metrics.qos import ClientStats, outcome_digest
from repro.net.netem import Netem
from repro.orchestra.orchestrator import Orchestrator
from repro.scatter import config as scatter_config
from repro.scatter.client import ArClient
from repro.scatter.config import PlacementConfig
from repro.scatter.pipeline import ScatterPipeline
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:
    from repro.chaos.faults import FaultPlan

#: Default experiment run length (virtual seconds).
DEFAULT_DURATION_S = 60.0

#: Time given to the tail of the pipeline to drain after clients stop.
DRAIN_S = 1.0


@dataclass(frozen=True)
class MobilitySpec:
    """Clients roam between edge sites along ``trajectories`` (one
    per client; seed-derived from the dwell times when ``None``), and
    every site change hands the session over — statefully, or by
    kill-and-reconnect with ``naive=True``."""

    trajectories: Optional[Sequence] = None
    naive: bool = False
    mean_dwell_s: float = 8.0
    min_dwell_s: float = 2.0


@dataclass(frozen=True)
class ExperimentSpec:
    """``num_clients`` clients stream against ``placement`` for
    ``duration_s``; the other fields pick the pipeline and attach
    optional machinery, and every default reproduces the paper's run —
    and the golden trace digests — byte for byte.

    * ``scatterpp`` deploys scAtteR++ tuned by ``threshold_s``,
      ``stateless_sift`` and ``with_sidecars``; scAtteR takes
      ``pipeline_kwargs`` instead.
    * ``client_netem`` impairs every client's link; ``mobility`` (a
      :class:`MobilitySpec`) makes the clients roam between sites.
    * ``flow`` (a :class:`~repro.flow.FlowConfig`) engages the flow
      substrate on every sidecar and client.
    * ``cohort_size`` models that many clients in all: the microscopic
      clients are its tracers, the rest ride a fluid
      :class:`~repro.cohort.CohortEngine` (``cohort_load``,
      ``cohort_load_kwargs``, ``cohort_tick_s``).
    * ``plan`` (a :class:`~repro.chaos.faults.FaultPlan`) injects
      faults; a heartbeat detector then replaces the orchestrator's
      watchdog.  Chaos and mobility runs give every client the
      resilience layer (:mod:`repro.scatter.resilience`).
    * ``stage_s`` ramps the load: client *i* joins at ``i × stage_s``.
    * ``tracing`` and ``profile`` never move the trajectory.
    """

    placement: PlacementConfig
    num_clients: int
    duration_s: float = DEFAULT_DURATION_S
    seed: int = 0
    scatterpp: bool = False
    pipeline_kwargs: Optional[dict] = None
    threshold_s: Optional[float] = None
    stateless_sift: bool = True
    with_sidecars: bool = True
    client_netem: Optional[Netem] = None
    flow: Optional[FlowConfig] = None
    cohort_size: Optional[int] = None
    cohort_load: str = "constant"
    cohort_load_kwargs: Optional[dict] = None
    cohort_tick_s: Optional[float] = None
    mobility: Optional[MobilitySpec] = None
    plan: Optional[FaultPlan] = None
    stage_s: Optional[float] = None
    tracing: bool = False
    profile: bool = False

    def __post_init__(self) -> None:
        if self.stage_s is not None and not (
                self.stage_s > 0 and self.stage_s * (self.num_clients - 1)
                < self.duration_s):
            raise ValueError(f"stage_s={self.stage_s} must be positive "
                             f"and start every client before duration_s")
        if (self.pipeline_kwargs is not None if self.scatterpp else
                self.flow or self.cohort_size or self.mobility):
            raise ValueError("pipeline_kwargs is for scAtteR; flow, "
                             "cohort_size and mobility for scAtteR++")


@dataclass
class ExperimentResult:
    """Everything measured during one run."""

    config_name: str
    num_clients: int
    duration_s: float
    clients: List[ClientStats]
    pipeline: ScatterPipeline
    monitor: HardwareMonitor
    testbed: Testbed
    #: Sidecar telemetry; present only for scAtteR++ runs.
    analytics: Optional[object] = None
    #: Per-frame distributed traces; present when ``tracing=True``.
    tracer: Optional[object] = None
    #: Per-fault MTTR / availability report; present only for chaos
    #: runs (specs with a fault ``plan``).
    resilience: Optional[object] = None
    #: Hex fingerprint of the kernel's event trajectory — the
    #: determinism-contract witness (same seed ⇒ same digest).
    trace_digest: Optional[str] = None
    #: Per-event-kind counts and wall time from the simulator loop
    #: (from :class:`repro.metrics.profiling.EventProfile`); present
    #: only when the run was started with ``profile=True``.  Real
    #: wall-clock accounting only — never part of the digest contract.
    event_profile: Optional[dict] = None
    #: Flow-control summary — the active config plus per-service frame
    #: conservation ledgers; present only when the run had a flow
    #: config attached.
    flow: Optional[dict] = None
    #: Mobility/handover summary — per-handover records plus the
    #: aggregate report (MTTR, state moved, frames lost by reason);
    #: present only for mobility runs (specs with ``mobility``).
    mobility: Optional[dict] = None
    #: Macro-cohort summary — spec, exact frame ledger, analytic
    #: capacity, and serialized latency sketches; present only for
    #: cohort runs (specs with ``cohort_size``).
    cohort: Optional[dict] = None
    #: Post-hoc joules attribution (per stage / idle / device, plus
    #: joules-per-frame and cost units) from
    #: :func:`repro.metrics.energy.energy_summary`; present only for
    #: optimizer-oracle runs.  Computed from counters after the run —
    #: never part of the digest contract.
    energy: Optional[dict] = None

    # ------------------------------------------------------------------
    # Client QoS aggregates
    # ------------------------------------------------------------------
    def per_client_fps(self) -> List[float]:
        return [c.fps(self.duration_s) for c in self.clients]

    def mean_fps(self) -> float:
        return float(np.mean(self.per_client_fps()))

    def success_rate(self) -> float:
        sent = sum(c.frames_sent for c in self.clients)
        received = sum(c.frames_received for c in self.clients)
        return received / sent if sent else 0.0

    def _e2e_ms(self, statistic, *args) -> float:
        latencies = [lat for c in self.clients
                     for lat in c.e2e_latencies_s]
        if not latencies:
            return 0.0
        return 1000.0 * float(statistic(latencies, *args))

    def mean_e2e_ms(self) -> float:
        return self._e2e_ms(np.mean)

    def percentile_e2e_ms(self, percentile: float) -> float:
        """Tail latency — the metric XR budgets actually care about."""
        if not 0.0 < percentile < 100.0:
            raise ValueError(
                f"percentile must be in (0, 100), got {percentile}")
        return self._e2e_ms(np.percentile, percentile)

    def mean_jitter_ms(self) -> float:
        return 1000.0 * float(np.mean([c.jitter_s()
                                       for c in self.clients]))

    def outcome_digest(self) -> str:
        """Fingerprint of every client frame's fate (and, when traced,
        its spans): the referee for changes that remove events but must
        not move a frame.  See :func:`repro.metrics.qos.outcome_digest`.
        """
        return outcome_digest(self.clients, self.tracer)

    # ------------------------------------------------------------------
    # Pipeline / hardware aggregates
    # ------------------------------------------------------------------
    def service_latency_ms(self) -> Dict[str, float]:
        return {service: self.pipeline.service_latency_ms(service)
                for service in scatter_config.PIPELINE_ORDER}

    def service_memory_gb(self) -> Dict[str, float]:
        return self.monitor.service_memory_gb()

    def machine_cpu_util(self) -> Dict[str, float]:
        return {name: self.monitor.mean_cpu(name)
                for name in self.pipeline.placement.machines_used()}

    def machine_gpu_util(self) -> Dict[str, float]:
        return {name: self.monitor.mean_gpu(name)
                for name in self.pipeline.placement.machines_used()}

    def drop_counts(self) -> Dict[str, int]:
        return self.pipeline.drop_counts()

    def qoe(self):
        """Estimated mean-opinion score for this run's QoS."""
        from repro.metrics.qoe import estimate_qoe

        return estimate_qoe(fps=self.mean_fps(),
                            e2e_ms=self.mean_e2e_ms(),
                            success_rate=self.success_rate(),
                            jitter_ms=self.mean_jitter_ms())


def build_experiment(spec: ExperimentSpec) -> tuple:
    """Deploy ``spec``'s pipeline and create its clients, unrun: the
    ``(sim, testbed, orchestrator, pipeline, clients)`` of a run."""
    if spec.scatterpp:
        from repro.scatterpp.pipeline import scatterpp_pipeline_kwargs

        pipeline_kwargs = scatterpp_pipeline_kwargs(
            threshold_s=spec.threshold_s,
            stateless_sift=spec.stateless_sift,
            with_sidecars=spec.with_sidecars, flow=spec.flow)
    else:
        pipeline_kwargs = spec.pipeline_kwargs or {}
    resilience = spec.plan is not None or spec.mobility is not None
    sim = Simulator(profile=spec.profile)
    rng = RngRegistry(spec.seed)
    testbed = build_paper_testbed(sim, rng, num_clients=spec.num_clients)
    if spec.client_netem is not None:
        for node in testbed.client_nodes:
            testbed.network.set_netem(node, "e1", spec.client_netem)
    orchestrator = Orchestrator(testbed)
    pipeline = ScatterPipeline(testbed, orchestrator, spec.placement,
                               **pipeline_kwargs)
    pipeline.deploy()
    orchestrator.start(watchdog=spec.plan is None)
    clients = [ArClient(client_id=index, node=node,
                        network=testbed.network,
                        registry=orchestrator.registry,
                        resilience=resilience, flow=spec.flow,
                        rng=rng.stream(f"client.{index}"))
               for index, node in enumerate(testbed.client_nodes)]
    return sim, testbed, orchestrator, pipeline, clients


def flow_summary(pipeline: ScatterPipeline, clients, flow
                 ) -> Optional[dict]:
    """JSON-ready flow ledger for a finished run (``None`` sans flow).

    Carries the active knobs plus every sidecar's conservation ledger
    summed per service — which is how the workers-0/4 invariant checks
    see the counters across a process boundary.
    """
    if flow is None:
        return None
    from dataclasses import asdict

    from repro.flow.invariants import ledger_totals, sidecar_ledger

    instances = [instance
                 for service_name in scatter_config.PIPELINE_ORDER
                 for instance in pipeline.instances(service_name)]
    wrapped = [instance for instance in instances
               if hasattr(instance, "sidecar")]
    return {
        "config": asdict(flow),
        "services": ledger_totals([sidecar_ledger(instance)
                                   for instance in wrapped]),
        "paced_frames": sum(c.stats.frames_paced for c in clients),
        "batched_rounds": sum(i.sidecar.stats.batched_rounds
                              for i in wrapped),
        "batched_frames": sum(i.sidecar.stats.batched_frames
                              for i in wrapped),
        "shed_backpressure": sum(instance.stats.shed_backpressure
                                 for instance in instances),
    }


def _attach_tracer(orchestrator, clients):
    from repro.metrics.tracing import Tracer

    tracer = Tracer()
    orchestrator.attach(tracer=tracer)
    for client in clients:
        client.tracer = tracer
    return tracer


def _attach_mobility(spec: ExperimentSpec, sim, testbed, orchestrator,
                     clients) -> tuple:
    """Bind every client to its trajectory; returns (coordinator,
    planned handover count)."""
    from repro.mobility.handover import HandoverCoordinator
    from repro.mobility.trajectory import default_trajectories
    from repro.net.netem import apply_netem_schedule

    mobility = spec.mobility
    trajectories = mobility.trajectories
    if trajectories is None:
        trajectories = default_trajectories(
            spec.num_clients, duration_s=spec.duration_s,
            rng=testbed.rng.stream("mobility"),
            mean_dwell_s=mobility.mean_dwell_s,
            min_dwell_s=mobility.min_dwell_s)
    if len(trajectories) != spec.num_clients:
        raise ValueError(
            f"need one trajectory per client: "
            f"{len(trajectories)} != {spec.num_clients}")
    coordinator = HandoverCoordinator(orchestrator, service="sift",
                                      naive=mobility.naive)
    # Upstream services consult the session directory before the
    # balancer, so a client's frames chase its session.
    orchestrator.attach(session_router=coordinator.directory)
    planned = 0
    for client, trajectory in zip(clients, trajectories):
        coordinator.attach_client(client)
        coordinator.bind_initial(client.client_id,
                                 trajectory.initial_site)
        schedule = trajectory.netem_schedule()
        if schedule:
            apply_netem_schedule(testbed.network, client.node, "e1",
                                 schedule)
        for at_s, __, to_site in trajectory.handovers():
            sim.schedule(at_s, coordinator.handover_session,
                         client.client_id, to_site)
            planned += 1
    return coordinator, planned


def _join_later(sim, client, delay_s: float, run_s: float):
    yield sim.timeout(delay_s)
    client.start(run_s)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run ``spec`` and return everything it measured.

    Attachments are wired in one fixed order — build → chaos → sidecar
    analytics → mobility → cohort engine → tracer → cohort start →
    client starts — then the simulator runs to ``duration_s`` plus
    :data:`DRAIN_S` and the result is assembled.
    Sidecar analytics watch every scAtteR++ run with sidecars unless
    chaos or mobility is attached.
    """
    sim, testbed, orchestrator, pipeline, clients = build_experiment(spec)
    detector = injector = None
    if spec.plan is not None:
        from repro.chaos.injector import FaultInjector
        from repro.orchestra.health import FailureDetector

        detector = FailureDetector(orchestrator)
        detector.start()
        injector = FaultInjector(orchestrator, spec.plan)
        injector.start()
    analytics = None
    if (spec.scatterpp and spec.with_sidecars and spec.plan is None
            and spec.mobility is None):
        from repro.scatterpp.analytics import SidecarAnalytics

        analytics = SidecarAnalytics(sim)
        for instance in orchestrator.all_instances():
            analytics.watch(instance)
        analytics.start()
    if spec.mobility is not None:
        coordinator, planned = _attach_mobility(
            spec, sim, testbed, orchestrator, clients)
    engine = None
    if spec.cohort_size is not None:
        from repro.cohort import (CohortEngine, CohortSpec,
                                  DEFAULT_TICK_S, LOAD_PROCESSES)

        cohort = CohortSpec(
            size=spec.cohort_size, tracers=spec.num_clients,
            tick_s=(spec.cohort_tick_s if spec.cohort_tick_s is not None
                    else DEFAULT_TICK_S),
            load=spec.cohort_load,
            load_kwargs=dict(spec.cohort_load_kwargs or {}))
        uses_rng = (LOAD_PROCESSES[cohort.load].uses_rng
                    and cohort.macro_members)
        engine = CohortEngine(
            sim, cohort, pipeline, flow=spec.flow,
            threshold_s=(spec.threshold_s if spec.threshold_s is not None
                         else 0.100),
            rng=testbed.rng.stream("cohort") if uses_rng else None)
    tracer = _attach_tracer(orchestrator, clients) if spec.tracing else None
    if engine is not None:
        engine.start(spec.duration_s)
    for index, client in enumerate(clients):
        if spec.stage_s is None:
            client.start(spec.duration_s)
        else:
            delay_s = index * spec.stage_s
            sim.spawn(_join_later(sim, client, delay_s,
                                  spec.duration_s - delay_s),
                      name=f"ramp-{index}")
    sim.run(until=spec.duration_s + DRAIN_S)

    if engine is not None:
        from repro.cohort import check_cohort_conservation

        check_cohort_conservation(engine.ledger)
    result = ExperimentResult(
        config_name=spec.placement.name, num_clients=spec.num_clients,
        duration_s=spec.duration_s,
        clients=[c.stats for c in clients], pipeline=pipeline,
        monitor=orchestrator.monitor, testbed=testbed,
        analytics=analytics, tracer=tracer,
        trace_digest=sim.fingerprint(),
        event_profile=(sim.profile.as_dict() if sim.profile is not None
                       and sim.profile.events else None),
        flow=flow_summary(pipeline, clients, spec.flow))
    if injector is not None:
        from repro.metrics.resilience import build_resilience_report

        result.resilience = build_resilience_report(
            injector=injector, detector=detector,
            orchestrator=orchestrator, clients=clients)
    if spec.mobility is not None:
        from repro.mobility.metrics import build_mobility_report

        report = build_mobility_report(coordinator, result.clients,
                                       planned=planned)
        result.mobility = {
            "naive": spec.mobility.naive,
            "report": report.as_dict(),
            "handovers": [record.as_dict()
                          for record in coordinator.records],
        }
    if engine is not None:
        result.cohort = engine.report(
            duration_s=spec.duration_s,
            tracer_mean_fps=result.mean_fps()).as_dict()
    return result
