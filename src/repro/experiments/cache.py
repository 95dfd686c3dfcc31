"""Content-addressed campaign cell cache (incremental campaigns).

A campaign cell is a pure function of its task — pipeline, placement,
client count, seed, duration — and of the code that executes it: the
simulator is deterministic by contract (``tests/test_determinism.py``),
so the same task under the same source tree always produces the same
:class:`~repro.experiments.runner.ExperimentResult` summary, trace
digest included.  That makes campaign cells cacheable the same way
PR 3 made frame features cacheable: address each entry by *content*,
never invalidate, and let any change to the inputs change the key.

The key is a blake2b digest over two fingerprints:

* **task fingerprint** — the task fields plus the fully *resolved*
  placement (``repr(PlacementConfig)``, so editing a placement's
  replica map changes the key even though its name does not) plus any
  pipeline-specific extras registered in
  :data:`repro.experiments.campaign.RUNNER_FINGERPRINTS` (the cohort
  runner contributes its multiplier and default flow config);
* **code fingerprint** — blake2b over every ``*.py`` file of the
  installed ``repro`` source tree (relative path + contents).  Any
  source edit, however small, misses the whole cache.  The walk is
  memoized per process; campaign reruns pay it once (~milliseconds).

Entries are one JSON file per key, written atomically
(:func:`repro.experiments.store.atomic_write_text`), so concurrent
campaigns sharing a cache directory race benignly and a crashed writer
can never leave a truncated entry.  Corrupt or unreadable entries are
treated as misses (and unlinked best-effort) — a damaged cache costs a
recompute, never a crash and never a wrong result.

Poisoning is impossible by admission policy, not by luck: only clean
:class:`~repro.experiments.parallel.TaskOutcome`\\ s are offered to
:meth:`CampaignCellCache.put` by the runner — failed cells
(exceptions, lost workers) and quarantine survivors are never
admitted (see :func:`repro.experiments.parallel.run_tasks`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
from typing import Any, Dict, Optional, Tuple, Union

from repro.metrics.summary import CacheStats

PathLike = Union[str, pathlib.Path]

#: Default cache directory used by the CLI when ``--cache`` is given
#: without ``--cache-dir``.
DEFAULT_CACHE_DIR = ".repro-cell-cache"

#: On-disk entry schema version; bump to orphan all older entries.
ENTRY_FORMAT = 1


@functools.lru_cache(maxsize=None)
def _package_root() -> pathlib.Path:
    """The installed ``repro`` tree, resolved once per process (every
    cache key asks for it)."""
    import repro

    return pathlib.Path(repro.__file__).resolve().parent


#: Memoized code fingerprints, keyed by resolved tree root.
_CODE_FINGERPRINTS: Dict[pathlib.Path, str] = {}


def code_fingerprint(root: Optional[PathLike] = None) -> str:
    """Blake2b over every ``*.py`` under ``root`` (default: ``repro``).

    Files are folded in sorted relative-path order as
    ``path\\0contents\\0``, so renaming, adding, deleting, or editing
    any source file — even a single byte — changes the fingerprint.
    Memoized per process: source trees do not change under a running
    campaign (tests that mutate a tmp tree call
    :func:`reset_code_fingerprint_cache`).
    """
    root = (pathlib.Path(root).resolve() if root is not None
            else _package_root())
    cached = _CODE_FINGERPRINTS.get(root)
    if cached is not None:
        return cached
    h = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    fingerprint = h.hexdigest()
    _CODE_FINGERPRINTS[root] = fingerprint
    return fingerprint


def reset_code_fingerprint_cache() -> None:
    """Forget memoized code fingerprints (tests mutate tmp trees)."""
    _CODE_FINGERPRINTS.clear()


def task_fingerprint(task) -> str:
    """Digest of one task's full configuration.

    Covers the task fields, the resolved placement object, and any
    pipeline-registered extras — everything that parameterizes the
    cell *besides* the code itself.
    """
    # Imported lazily: campaign.py imports parallel.py which may pull
    # this module; the cycle is broken the same way run_cell_task does.
    from repro.experiments.campaign import (RUNNER_FINGERPRINTS,
                                            resolve_placement)

    extras = RUNNER_FINGERPRINTS.get(task.pipeline)
    h = hashlib.blake2b(digest_size=16)
    for part in (task.pipeline, task.placement, task.clients,
                 task.seed, task.duration_s,
                 repr(resolve_placement(task.placement)),
                 repr(extras() if extras is not None else ())):
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


class CampaignCellCache:
    """A directory of content-addressed campaign cell summaries.

    ``get``/``put`` are keyed by :meth:`key` — (task fingerprint,
    code fingerprint) — so a hit is bit-identical to a recompute by
    construction and there is no invalidation protocol to get wrong.
    """

    def __init__(self, directory: PathLike, *,
                 code_root: Optional[PathLike] = None):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.code_root = code_root
        self._hits = 0
        self._misses = 0
        self._insertions = 0
        self._corrupt = 0

    def key(self, task) -> str:
        """Content address of ``task`` under the current source tree."""
        h = hashlib.blake2b(digest_size=16)
        h.update(task_fingerprint(task).encode())
        h.update(b"\x1f")
        h.update(code_fingerprint(self.code_root).encode())
        return h.hexdigest()

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def get(self, task) -> Optional[Dict]:
        """Cached summary for ``task``, or ``None`` on a miss.

        A corrupt entry (truncated file, bad JSON, wrong schema) is a
        miss: it is counted, unlinked best-effort, and recomputed —
        never an exception and never a partial summary.
        """
        path = self._path(self.key(task))
        try:
            raw = path.read_text()
        except OSError:
            self._misses += 1
            return None
        try:
            entry = json.loads(raw)
            if (not isinstance(entry, dict)
                    or entry.get("format") != ENTRY_FORMAT
                    or not isinstance(entry.get("summary"), dict)):
                raise ValueError(f"malformed cache entry {path.name}")
        except (ValueError, TypeError):
            self._corrupt += 1
            self._misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self._hits += 1
        return entry["summary"]

    def put(self, task, summary: Dict) -> Optional[pathlib.Path]:
        """Admit one *clean* cell summary (atomic write; returns path).

        Callers are responsible for the no-poisoning policy: only
        summaries from successful, non-quarantined outcomes may be
        offered.  Serialization failures propagate loudly — a summary
        that cannot round-trip through JSON must not be half-cached.
        """
        if not isinstance(summary, dict):
            raise TypeError(
                f"cell summaries are dicts, got {type(summary).__name__}")
        path = self._path(self.key(task))
        payload = json.dumps(
            {"format": ENTRY_FORMAT,
             "task": {"pipeline": task.pipeline,
                      "placement": task.placement,
                      "clients": task.clients,
                      "seed": task.seed,
                      "duration_s": task.duration_s},
             "summary": summary},
            indent=2, sort_keys=True)
        from repro.experiments.store import atomic_write_text

        atomic_write_text(path, payload)
        self._insertions += 1
        return path

    def _scan(self) -> Tuple[int, int]:
        """``(entries, bytes)`` on disk, in one directory pass."""
        entries = size = 0
        with os.scandir(self.directory) as scan:
            for entry in scan:
                if entry.name.endswith(".json"):
                    try:
                        size += entry.stat().st_size
                    except FileNotFoundError:
                        continue  # unlinked since the listing
                    entries += 1
        return entries, size

    def __len__(self) -> int:
        return self._scan()[0]

    @property
    def corrupt(self) -> int:
        return self._corrupt

    def stats(self) -> CacheStats:
        entries, size_bytes = self._scan()
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            insertions=self._insertions,
            evictions=0,
            entries=entries,
            size_bytes=size_bytes,
        )

    def report(self) -> Dict[str, Any]:
        """JSON-friendly stats block for campaign reports."""
        stats = self.stats()
        return {"directory": str(self.directory),
                "hits": stats.hits,
                "misses": stats.misses,
                "stored": stats.insertions,
                "corrupt": self._corrupt,
                "entries": stats.entries,
                "size_bytes": stats.size_bytes}
