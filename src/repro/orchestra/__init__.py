"""Edge-native orchestration (the Oakestra stand-in, §3.2).

Reproduces the orchestrator behaviours the paper depends on:

* **SLA-driven placement** — services declare demands and hardware
  constraints (:class:`~repro.orchestra.sla.ServiceSla`); the
  scheduler (:mod:`repro.orchestra.scheduler`) matches them to
  machines.
* **Replica load balancing** — requests to a service name are spread
  round-robin across replicas (the registry's default policy); the
  balancer module adds the least-loaded alternative used in ablations.
* **Hardware-only monitoring** — the orchestrator sees CPU/GPU/memory
  but *not* application QoS, the visibility gap of insights I/IV.
* **Failure redeployment** — failed containers are automatically
  replaced.
"""

from repro.orchestra.autoscaler import (
    AppAwareScalingPolicy,
    Autoscaler,
    HardwareScalingPolicy,
)
from repro.orchestra.balancer import least_loaded_balancer
from repro.orchestra.health import (
    FailureDetector,
    HealthEvent,
    HealthState,
)
from repro.orchestra.migration import MigrationController
from repro.orchestra.optimize import (
    CampaignOracle,
    Genome,
    Objectives,
    OptimizationReport,
    OptimizeConfig,
    OptimizeError,
    PlacementSearch,
    SearchSpace,
    run_search,
)
from repro.orchestra.orchestrator import Orchestrator, OrchestratorError
from repro.orchestra.placement import PlacementOptimizer
from repro.orchestra.scheduler import Scheduler, SchedulingError
from repro.orchestra.sla import ServiceSla

__all__ = [
    "AppAwareScalingPolicy",
    "Autoscaler",
    "CampaignOracle",
    "FailureDetector",
    "Genome",
    "HardwareScalingPolicy",
    "HealthEvent",
    "HealthState",
    "MigrationController",
    "Objectives",
    "OptimizationReport",
    "OptimizeConfig",
    "OptimizeError",
    "Orchestrator",
    "OrchestratorError",
    "PlacementOptimizer",
    "PlacementSearch",
    "Scheduler",
    "SchedulingError",
    "SearchSpace",
    "ServiceSla",
    "least_loaded_balancer",
    "run_search",
]
