"""QoS and hardware metrics (§3.2 "Performance Metrics").

The paper collects two families of statistics and argues they must be
read together (insight I):

* **QoS from the application** — frame rate (FPS), end-to-end latency,
  per-service latency, frame success rate, and jitter (Δ inter-frame
  receive time) — :mod:`repro.metrics.qos`.
* **Hardware consumption from the orchestrator** — memory plus CPU/GPU
  utilization normalized against total capacity —
  :mod:`repro.metrics.hardware`.
"""

from repro.metrics.hardware import HardwareMonitor, HardwareSample
from repro.metrics.profiling import StageProfiler, StageRecord
from repro.metrics.qos import ClientStats
from repro.metrics.sketch import PercentileSketch, merge_sketches
from repro.metrics.summary import CacheStats, Summary, summarize

__all__ = [
    "CacheStats",
    "ClientStats",
    "DEFAULT_POWER_MODEL",
    "FaultRecovery",
    "HardwareMonitor",
    "HardwareSample",
    "PercentileSketch",
    "PowerModel",
    "ResilienceReport",
    "StageProfiler",
    "StageRecord",
    "Summary",
    "build_resilience_report",
    "energy_summary",
    "merge_sketches",
    "summarize",
]

#: Lazily resolved: these submodules pull in the chaos, orchestration,
#: or scatter layers, which themselves import low-level metrics
#: modules — importing them eagerly here would close an import cycle.
#: Maps exported name -> owning submodule.
_LAZY = {
    "FaultRecovery": "resilience",
    "ResilienceReport": "resilience",
    "build_resilience_report": "resilience",
    "DEFAULT_POWER_MODEL": "energy",
    "PowerModel": "energy",
    "energy_summary": "energy",
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(
            f"repro.metrics.{_LAZY[name]}")
        return getattr(module, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}")
