"""Correctness checks the benchmark applies to the program's outputs.

Simulated statistics are outputs, not metrics: a change meant only to
make the program faster must leave every one of them byte-identical.
:func:`summary_digest` fingerprints a cell summary without its
wall-clock fields, so two commits can be compared statistic by
statistic, and :func:`golden_probe` replays the committed golden cells.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, Iterable, List, Tuple

#: Committed golden trace digests, relative to the repository root.
GOLDEN_FILES = ("tests/golden/determinism_digests.json",
                "tests/golden/flow_digests.json")

#: Summary fields that carry host wall-clock accounting, never part of
#: the determinism contract.
WALL_CLOCK_FIELDS = ("feature_cache", "kernel_profile")


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def summary_digest(summary: Dict) -> str:
    """Digest of a cell summary's simulated statistics."""
    return digest({key: value for key, value in summary.items()
                   if key not in WALL_CLOCK_FIELDS})


def combined_digest(digests: Iterable[str]) -> str:
    return digest(list(digests))


def frame_digest(result) -> str:
    """Digest of one ``FrameResult``: every recognition, bit for bit."""
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(result.num_keypoints).encode())
    for recognition in result.recognitions:
        h.update(recognition.name.encode())
        h.update(recognition.corners.tobytes())
        h.update(repr((recognition.num_inliers, recognition.similarity,
                       recognition.mean_error)).encode())
    return h.hexdigest()


def golden_probe(root: pathlib.Path) -> Tuple[int, List[str]]:
    """Re-run every committed golden cell; return how many ran and one
    line per mismatch.

    Each golden key reads ``pipeline/placement/<N>c/seed<S>``.  A cell
    that raises counts as a mismatch, never as a crash of the probe.
    """
    from repro.experiments.parallel import CellTask, run_cell_task

    cells, failures = 0, []
    for relative in GOLDEN_FILES:
        golden = json.loads((root / relative).read_text())
        for key, expected in sorted(golden["digests"].items()):
            cells += 1
            pipeline, placement, clients, seed = key.split("/")
            task = CellTask(pipeline=pipeline, placement=placement,
                            clients=int(clients[:-1]),
                            seed=int(seed[len("seed"):]),
                            duration_s=golden["duration_s"])
            try:
                actual = run_cell_task(task)["trace_digest"]
            except Exception as exc:  # a raising cell is a failed check
                failures.append(f"golden {key}: raised "
                                f"{type(exc).__name__}: {exc}")
                continue
            if actual != expected:
                failures.append(f"golden {key}: digest {actual} != "
                                f"{expected}")
    return cells, failures
