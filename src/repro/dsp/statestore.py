"""In-memory state with TTL eviction (the stateful ``sift`` store).

scAtteR's ``sift`` keeps each frame's extracted features in memory
until ``matching`` fetches them or a timeout expires (§3.1/§4).  When
``matching`` drops frames under load, entries linger for the full TTL —
"which can limit its deployment over memory-constrained edge hardware".
Memory is charged against the owning container so the effect shows up
in the orchestrator's hardware metrics.

For session handover (:mod:`repro.mobility`) the store can serialize a
client's entries out (:meth:`export_session`) and fold them into
another replica's store (:meth:`import_entries`) with their *remaining*
TTL preserved, so a moved entry expires at the same virtual instant it
would have on the source.  Every entry leaves the store through exactly
one of: fetch, expiry, discard (moved/handover), or drop (replica
stopped) — :meth:`conservation_balance` is zero iff the accounting
holds.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.cluster.container import Container
from repro.sim.kernel import Simulator

#: One exported entry: ``(key, value, remaining_ttl_s, size_bytes)``.
ExportedEntry = Tuple[Hashable, Any, float, float]


class StateStore:
    """TTL key/value store charging its bytes to a container."""

    def __init__(self, sim: Simulator, container: Container,
                 ttl_s: float = 1.0):
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.sim = sim
        self.container = container
        self.ttl_s = ttl_s
        self._entries: Dict[Hashable, Tuple[Any, float, float]] = {}
        self.stats_stored = 0
        self.stats_fetched = 0
        self.stats_expired = 0
        #: Entries folded in from another replica (session handover).
        self.stats_imported = 0
        #: Entries removed because their state moved elsewhere
        #: (handover cutover) — distinct from expiry: the state lives
        #: on, on another replica.
        self.stats_discarded = 0
        #: Entries that died with the replica (stop/crash) — the
        #: stateful-loss cost stopped replicas and naive reconnects pay.
        self.stats_dropped_stop = 0
        #: Entries exported (copied out, NOT removed) for transfer.
        self.stats_exported = 0
        #: Entries overwritten by a newer put/import of the same key
        #: (a client retry re-extracting a frame, say).
        self.stats_replaced = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def bytes_in_use(self) -> float:
        return sum(size for __, __unused, size
                   in self._entries.values())

    def keys(self) -> List[Hashable]:
        return list(self._entries)

    def put(self, key: Hashable, value: Any, size_bytes: float) -> None:
        """Store ``value``; replaces (and re-times) an existing entry."""
        self._put(key, value, size_bytes, self.ttl_s)
        self.stats_stored += 1

    def _put(self, key: Hashable, value: Any, size_bytes: float,
             ttl_s: float) -> None:
        if key in self._entries:
            self._evict(key, expired=False)
            self.stats_replaced += 1
        expires = self.sim.now + ttl_s
        self._entries[key] = (value, expires, size_bytes)
        self.container.allocate_state(size_bytes)
        self.sim.schedule(ttl_s, self._expire, key, expires)

    def fetch(self, key: Hashable) -> Optional[Any]:
        """Remove and return the entry, or ``None`` if absent/expired."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        value, __, __unused = entry
        self._evict(key, expired=False)
        self.stats_fetched += 1
        return value

    # ------------------------------------------------------------------
    # Session handover support
    # ------------------------------------------------------------------
    def export_session(self, client_id: Optional[int] = None, *,
                       exclude=()) -> List[ExportedEntry]:
        """Copy out live entries as ``(key, value, ttl_left, size)``.

        Entries stay in the store — export is a snapshot (pre-copy
        rounds diff against ``exclude``, the keys already shipped).
        ``client_id=None`` exports everything; otherwise only keys
        whose first element matches (the ``(client_id, frame_number)``
        key convention of the sift store).
        """
        now = self.sim.now
        exported: List[ExportedEntry] = []
        for key, (value, expires, size) in self._entries.items():
            if client_id is not None:
                if not isinstance(key, tuple) or key[0] != client_id:
                    continue
            if key in exclude:
                continue
            exported.append((key, value, expires - now, size))
        self.stats_exported += len(exported)
        return exported

    def import_entries(self, entries) -> int:
        """Fold exported entries in, preserving their remaining TTL.

        Already-dead entries (non-positive TTL left — the transfer
        outlived them) are skipped.  Returns the number imported.
        """
        imported = 0
        for key, value, ttl_left_s, size_bytes in entries:
            if ttl_left_s <= 0:
                continue
            self._put(key, value, size_bytes, ttl_left_s)
            self.stats_imported += 1
            imported += 1
        return imported

    def discard(self, key: Hashable) -> bool:
        """Remove one entry whose state moved elsewhere (handover)."""
        if key not in self._entries:
            return False
        self._evict(key, expired=False)
        self.stats_discarded += 1
        return True

    def drop_all(self) -> int:
        """Free every entry (the replica is stopping); returns count.

        The dropped entries are the stateful loss a stopped replica or
        naive reconnect pays — counted here so the loss
        is never silent.
        """
        count = len(self._entries)
        for key in list(self._entries):
            self._evict(key, expired=False)
        self.stats_dropped_stop += count
        return count

    def conservation_balance(self) -> int:
        """``stored + imported - (fetched + expired + discarded +
        dropped + replaced + live)``; zero iff every entry that ever
        entered the store is accounted for exactly once."""
        return (self.stats_stored + self.stats_imported
                - (self.stats_fetched + self.stats_expired
                   + self.stats_discarded + self.stats_dropped_stop
                   + self.stats_replaced + len(self._entries)))

    # ------------------------------------------------------------------
    def _expire(self, key: Hashable, expected_expiry: float) -> None:
        entry = self._entries.get(key)
        if entry is None:
            return
        __, expires, __unused = entry
        if expires != expected_expiry:
            return  # entry was replaced; a newer timer owns it
        self._evict(key, expired=True)

    def _evict(self, key: Hashable, expired: bool) -> None:
        __, __unused, size_bytes = self._entries.pop(key)
        self.container.free_state(size_bytes)
        if expired:
            self.stats_expired += 1
