"""Edge-native orchestration (the Oakestra stand-in, §3.2).

Reproduces the orchestrator behaviours the paper depends on:

* **SLA-driven placement** — services declare demands and hardware
  constraints (:class:`~repro.orchestra.sla.ServiceSla`); the
  scheduler (:mod:`repro.orchestra.scheduler`) matches them to
  machines.
* **Replica load balancing** — requests to a service name are spread
  round-robin across replicas (the registry's default policy).
* **Hardware-only monitoring** — the orchestrator sees CPU/GPU/memory
  but *not* application QoS, the visibility gap of insights I/IV.
* **Failure redeployment** — failed containers are automatically
  replaced.
"""

from repro.orchestra.health import (
    FailureDetector,
    HealthEvent,
    HealthState,
)
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
    "CampaignOracle",
    "FailureDetector",
    "Genome",
    "HealthEvent",
    "HealthState",
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
    "run_search",
]
