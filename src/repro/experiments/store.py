"""Persisting experiment results.

This module serializes an :class:`~repro.experiments.runner.
ExperimentResult` into a plain-JSON summary, which is what a campaign
cell sends back from a worker process and what the cell cache stores,
and writes campaign cells to a directory of named JSON files.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Dict, Union

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
        # Flow-control ledgers (admission/batching/credits counters);
        # None for every flow-off run.  Carried in the
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
        # non-cohort run.
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

