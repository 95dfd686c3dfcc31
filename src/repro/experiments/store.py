"""Persisting and comparing experiment results.

Reproduction work is iterative: recalibrate, re-run, compare.  This
module serializes an :class:`~repro.experiments.runner.
ExperimentResult` into a plain-JSON summary, stores collections of
them, and diffs two runs metric by metric — the regression check a
maintainer runs before accepting a calibration change.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

PathLike = Union[str, pathlib.Path]


def atomic_write_text(path: PathLike, payload: str) -> pathlib.Path:
    """Write ``payload`` to ``path`` atomically (write-temp + rename).

    The temp file lives in the target's directory so ``os.replace`` is
    a same-filesystem rename: concurrent writers race benignly (last
    rename wins, every observable file is complete) and a crashed
    writer leaves at most an orphaned ``.tmp`` file, never a truncated
    entry.  Shared by :class:`ResultStore` and the campaign cell cache
    (:mod:`repro.experiments.cache`).
    """
    path = pathlib.Path(path)
    handle, temp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as temp_file:
            temp_file.write(payload)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


def summarize_result(result) -> Dict:
    """Flatten an ExperimentResult into JSON-serializable primitives."""
    return {
        "config": result.config_name,
        "clients": result.num_clients,
        "duration_s": result.duration_s,
        "fps": result.mean_fps(),
        "success_rate": result.success_rate(),
        "e2e_ms": result.mean_e2e_ms(),
        "p95_e2e_ms": result.percentile_e2e_ms(95.0),
        "jitter_ms": result.mean_jitter_ms(),
        "qoe_mos": result.qoe().mos,
        "service_latency_ms": result.service_latency_ms(),
        "service_memory_gb": result.service_memory_gb(),
        "cpu_util": result.machine_cpu_util(),
        "gpu_util": result.machine_gpu_util(),
        "drops": result.drop_counts(),
        "trace_digest": getattr(result, "trace_digest", None),
        # Wall-clock observability only: cache hit/miss deltas and
        # kernel stage timings never feed back into simulated time,
        # so they ride along without touching the determinism
        # contract (which compares metrics and digests, not these).
        "feature_cache": getattr(result, "feature_cache", None),
        "kernel_profile": getattr(result, "kernel_profile", None),
        # Flow-control ledgers (admission/batching/credits counters);
        # None for every run without a flow config.  Carried in the
        # summary so conservation invariants are checkable across the
        # campaign's process boundary (workers 0 vs N).
        "flow": getattr(result, "flow", None),
        # Mobility/handover summary (per-handover records + aggregate
        # MTTR / state-moved / frames-lost-by-reason report); None for
        # every run without trajectories.  Carried in the summary so
        # handover conservation and loss accounting are checkable
        # across the campaign's process boundary.
        "mobility": getattr(result, "mobility", None),
        # Macro-cohort summary (spec + exact frame ledger + analytic
        # capacity + serialized percentile sketches); None for every
        # non-cohort run.  The sketches are mergeable, so shard
        # summaries can be folded back together losslessly
        # (:func:`repro.cohort.merge_cohort_dicts`).
        "cohort": getattr(result, "cohort", None),
        # Post-hoc joules/cost attribution (per-stage, idle, device,
        # joules-per-frame) from the energy model; None unless the
        # run computed it (optimizer-oracle cells).  Carried in the
        # summary so cached cells replay the optimizer's objectives
        # without re-simulating.
        "energy": getattr(result, "energy", None),
    }


class ResultStore:
    """A directory of named JSON result summaries.

    Safe for concurrent writers: every :meth:`save` serializes first,
    writes to a temporary file in the same directory, then atomically
    renames over the target, so a reader (or a crashed writer) can
    never observe a truncated or partially-written entry.
    """

    def __init__(self, directory: PathLike):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, name: str) -> pathlib.Path:
        if not name or "/" in name or name.startswith("."):
            raise ValueError(f"invalid result name {name!r}")
        return self.directory / f"{name}.json"

    def save(self, name: str, result) -> pathlib.Path:
        """Summarize and persist a result under ``name`` (atomic)."""
        summary = (result if isinstance(result, dict)
                   else summarize_result(result))
        # Serialize before touching the filesystem so a failure here
        # leaves any previous entry untouched.
        payload = json.dumps(summary, indent=2, sort_keys=True)
        return atomic_write_text(self._path(name), payload)

    def merge(self, source: Union["ResultStore", PathLike], *,
              overwrite: bool = True) -> List[str]:
        """Fold another store's entries into this one.

        Each entry is re-saved atomically, so merging per-worker shard
        stores into the campaign store is safe even while workers are
        still writing.  Returns the names merged (sorted).
        """
        other = (source if isinstance(source, ResultStore)
                 else ResultStore(source))
        merged: List[str] = []
        for name in other.names():
            if not overwrite and self._path(name).exists():
                continue
            self.save(name, other.load(name))
            merged.append(name)
        return merged

    def load(self, name: str) -> Dict:
        path = self._path(name)
        if not path.exists():
            raise KeyError(f"no stored result named {name!r}")
        return json.loads(path.read_text())

    def names(self) -> List[str]:
        return sorted(path.stem for path in
                      self.directory.glob("*.json"))

    def delete(self, name: str) -> None:
        self._path(name).unlink(missing_ok=True)


@dataclass(frozen=True)
class MetricDelta:
    """One metric's change between two stored runs."""

    metric: str
    before: float
    after: float

    @property
    def absolute(self) -> float:
        return self.after - self.before

    @property
    def relative(self) -> Optional[float]:
        if self.before == 0:
            return None
        return self.absolute / self.before


#: Top-level scalar metrics compared by :func:`diff_results`.
SCALAR_METRICS = ("fps", "success_rate", "e2e_ms", "jitter_ms",
                  "qoe_mos")


def diff_results(before: Dict, after: Dict) -> List[MetricDelta]:
    """Metric-by-metric deltas of two result summaries.

    Includes the scalar QoS metrics plus the per-service latency and
    memory breakdowns (as dotted metric names).
    """
    deltas: List[MetricDelta] = []
    for metric in SCALAR_METRICS:
        deltas.append(MetricDelta(metric=metric,
                                  before=float(before[metric]),
                                  after=float(after[metric])))
    for family in ("service_latency_ms", "service_memory_gb"):
        services = (set(before.get(family, {}))
                    | set(after.get(family, {})))
        for service in sorted(services):
            deltas.append(MetricDelta(
                metric=f"{family}.{service}",
                before=float(before.get(family, {}).get(service, 0.0)),
                after=float(after.get(family, {}).get(service, 0.0))))
    return deltas


def regressions(before: Dict, after: Dict, *,
                fps_tolerance: float = 0.10,
                latency_tolerance: float = 0.15) -> List[MetricDelta]:
    """Deltas that look like QoS regressions.

    FPS / success / QoE falling beyond ``fps_tolerance``, or E2E
    latency rising beyond ``latency_tolerance``, relative to before.
    """
    flagged: List[MetricDelta] = []
    for delta in diff_results(before, after):
        relative = delta.relative
        if relative is None:
            continue
        if (delta.metric in ("fps", "success_rate", "qoe_mos")
                and relative < -fps_tolerance):
            flagged.append(delta)
        elif delta.metric == "e2e_ms" and relative > latency_tolerance:
            flagged.append(delta)
    return flagged
