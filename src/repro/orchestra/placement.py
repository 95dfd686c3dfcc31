"""The analytic capacity model, and placement optimization on it.

:func:`pipeline_capacity` is the one analytic throughput model.  It
reads every constant from a *built* deployment: each replica's base
time scaled by its device, the GPU each replica is pinned to, the
sidecars' batching and hand-off costs, and the testbed's links.  The
cohort engine drains its fluid bulk at the rate it predicts.

The paper hand-picks its placements (C1/C2/C12/C21) and cites
placement optimization (Wang et al.) it does not implement.
:class:`PlacementOptimizer` closes that loop: it builds every
assignment of the five stages to a machine set, scores each with the
model, and returns the best by throughput, latency or joules per
frame.  The *ranking* is what matters;
``benchmarks/bench_capacity_model.py`` scores it against simulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.cluster.testbed import server_machines
from repro.dsp.operator import StreamService
from repro.flow.config import BATCH_MAX
from repro.scatter.config import PIPELINE_ORDER, PlacementConfig


@dataclass(frozen=True)
class PipelineCapacity:
    """What :func:`pipeline_capacity` predicts for one deployment."""

    #: Frames per second each service can pass, in pipeline order.
    capacity_fps: Dict[str, float]
    bottleneck_service: str
    bottleneck_fps: float
    #: One unloaded frame's end-to-end time: compute and hand-off at
    #: every stage, client access, inter-stage hops and the way back.
    base_latency_s: float


def pipeline_capacity(pipeline, flow: bool = False) -> PipelineCapacity:
    """Predict the frame rate a built scAtteR++ ``pipeline`` sustains.

    * A replica's frame time is its device-scaled base time; with
      ``flow``, a batch of ``BATCH_MAX`` frames costs ``1 +
      BATCH_MARGINAL_COST × (BATCH_MAX - 1)`` base times.  A sidecar
      replica adds ``RPC_OVERHEAD_S / BATCH_MAX`` of hand-off a frame.
    * The balancer gives each of a service's ``n`` replicas ``1/n`` of
      its frames.  A replica serves one round at a time, so it caps
      the service at ``n / (frame time + hand-off)``.
    * Kernels of co-resident replicas serialize on their GPU's slot
      (§5), so a device caps every service resident on it at
      ``1 / Σ (frame time × share)`` over its replicas.

    A service's capacity is the tightest of those caps; the bottleneck
    is the first service with the least.
    """
    # scAtteR++ builds on the orchestra package: import it late.
    from repro.scatterpp.sidecar import RPC_OVERHEAD_S

    batch = BATCH_MAX if flow else 1
    compute_scale = (1.0 + StreamService.BATCH_MARGINAL_COST
                     * (batch - 1)) / batch
    replicas = {service: pipeline.instances(service)
                for service in PIPELINE_ORDER}
    scaled_s, handoff_s, device_load = {}, {}, {}
    for instances in replicas.values():
        for instance in instances:
            scaled_s[instance] = instance.container.scaled_time(
                instance.base_time_s)
            handoff_s[instance] = (RPC_OVERHEAD_S
                                   if hasattr(instance, "sidecar") else 0.0)
            gpu = instance.container.gpu
            if gpu is not None:
                device_load[gpu] = (device_load.get(gpu, 0.0) + scaled_s[
                    instance] * compute_scale / len(instances))

    def replica_cap(instance, n: int) -> float:
        rate = n / (scaled_s[instance] * compute_scale
                    + handoff_s[instance] / batch)
        gpu = instance.container.gpu
        return rate if gpu is None else min(rate, 1.0 / device_load[gpu])

    capacity_fps = {service: min(replica_cap(i, len(instances))
                                 for i in instances)
                    for service, instances in replicas.items()}
    bottleneck = min(capacity_fps, key=capacity_fps.__getitem__)

    # Latency through each stage's slowest replica, unbatched.
    latency_s = 0.0
    route = [pipeline.testbed.client_nodes[0]]
    for instances in replicas.values():
        slowest = max(instances, key=lambda i: scaled_s[i] + handoff_s[i])
        latency_s += scaled_s[slowest] + handoff_s[slowest]
        route.append(slowest.container.machine.name)
    route.append(route[0])
    for a, b in zip(route, route[1:]):
        latency_s += pipeline.testbed.network.path_rtt(a, b) / 2.0
    return PipelineCapacity(capacity_fps=capacity_fps,
                            bottleneck_service=bottleneck,
                            bottleneck_fps=capacity_fps[bottleneck],
                            base_latency_s=latency_s)


@dataclass(frozen=True)
class PlacementEstimate:
    """Analytic prediction for one placement."""

    placement: PlacementConfig
    throughput_fps: float
    e2e_ms: float
    #: The service that binds ``throughput_fps``.
    bottleneck: str
    #: Predicted steady-state draw at capacity (idle + active), watts.
    watts: float = 0.0
    #: Predicted server joules per frame at capacity: active compute
    #: joules plus the machine set's amortized idle draw.
    joules_per_frame: float = 0.0


class PlacementOptimizer:
    """Exhaustive search over stage→machine assignments."""

    def __init__(self, machines: Sequence[str] = ("e1", "e2")):
        if not machines:
            raise ValueError("need at least one machine")
        known = server_machines()
        unknown = sorted(set(machines) - set(known))
        if unknown:
            raise ValueError(f"unknown machines {unknown}; the testbed "
                             f"has {sorted(known)}")
        self.machines = list(machines)

    # ------------------------------------------------------------------
    def estimate(self, assignment: Dict[str, str]) -> PlacementEstimate:
        """Build one assignment (service name -> machine name) as a
        scAtteR++ deployment and predict its throughput, single-client
        E2E and energy."""
        from repro.experiments.runner import ExperimentSpec, build_experiment
        from repro.metrics.energy import DEFAULT_POWER_MODEL

        name = "[" + ", ".join(
            assignment[s].upper() for s in PIPELINE_ORDER) + "]"
        placement = PlacementConfig(
            name, {s: [assignment[s]] for s in PIPELINE_ORDER})
        pipeline = build_experiment(ExperimentSpec(
            placement, num_clients=1, scatterpp=True))[3]
        capacity = pipeline_capacity(pipeline)
        throughput = capacity.bottleneck_fps
        # Energy: active joules per frame from the same device-scaled
        # compute times, idle draw amortized over predicted throughput.
        model = DEFAULT_POWER_MODEL
        active_jpf = 0.0
        for service in PIPELINE_ORDER:
            for instance in pipeline.instances(service):
                container = instance.container
                active_jpf += (container.scaled_time(instance.base_time_s)
                               * model.active_watts(container.machine.name,
                                                    service))
        idle_w = sum(model.idle_w[machine]
                     for machine in sorted(set(assignment.values())))
        return PlacementEstimate(
            placement=placement, throughput_fps=throughput,
            e2e_ms=capacity.base_latency_s * 1000.0,
            bottleneck=capacity.bottleneck_service,
            watts=idle_w + active_jpf * throughput,
            joules_per_frame=active_jpf + idle_w / throughput)

    def search(self) -> List[PlacementEstimate]:
        """Estimates for every assignment, best throughput first."""
        estimates = []
        for combo in itertools.product(self.machines,
                                       repeat=len(PIPELINE_ORDER)):
            assignment = dict(zip(PIPELINE_ORDER, combo))
            estimates.append(self.estimate(assignment))
        estimates.sort(key=lambda e: (-e.throughput_fps, e.e2e_ms))
        return estimates

    def best(self, objective: str = "throughput") -> PlacementEstimate:
        """The optimal placement under the given objective."""
        estimates = self.search()
        if objective == "throughput":
            return estimates[0]
        if objective == "latency":
            return min(estimates, key=lambda e: (e.e2e_ms,
                                                 -e.throughput_fps))
        if objective == "energy":
            return min(estimates, key=lambda e: (e.joules_per_frame,
                                                 -e.throughput_fps))
        raise ValueError(
            f"objective must be 'throughput', 'latency', or "
            f"'energy', got {objective!r}")
