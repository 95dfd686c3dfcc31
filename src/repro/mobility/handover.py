"""Stateful session handover between edge sites.

The protocol moves a client's per-session ``sift`` state (the
:class:`~repro.dsp.statestore.StateStore` entries keyed by that client)
from the replica at its old attachment site to one at the new site,
with the steps a real control plane pays for:

1. **WARM** — ensure a replica at the target site (deploying one if
   needed, charging :data:`WARMUP_S` of container start).  The client is
   told the window opened (:class:`HandoverNotice` ``begin``) so it can
   answer frames locally instead of stalling.
2. **TRANSFER** — iterative pre-copy: snapshot the session's entries,
   ship them in chunks over :class:`~repro.net.rpc.RpcChannel` (real
   bytes on the wire, real import CPU at the target, remaining TTL
   preserved), re-snapshot the delta, repeat up to
   :data:`MAX_TRANSFER_ROUNDS`.
3. **CUTOVER** — ship the final delta, then atomically: discard the
   moved entries at the source, install a fetch-forwarding tombstone
   there (in-flight fetches chase the state), rebind the
   :class:`SessionDirectory` with a bumped epoch, retire the source
   from upstream credit ledgers (stale grants rejected), and notify the
   client (``commit`` — it resumes sending, stamping the new epoch).
4. **DRAIN** — :data:`DRAIN_S` for stragglers; then the record closes.

**Fault recovery** is the headline: a *target* crash or a lost/timed-out
transfer aborts cleanly (nothing was mutated at the source — rollback
is free), notifies the client (``abort``), and retries after a bounded
deterministic backoff up to :data:`MAX_ATTEMPTS` before abandoning the
handover (the session stays at the source: graceful local fallback).
A *source* crash mid-transfer switches to forward recovery: the target
already holds every shipped chunk, so the session fails over to it and
only the un-shipped entries are counted lost.

``naive=True`` is the kill-and-reconnect baseline the benchmark
compares against: rebind instantly, tear the session state down at the
source (counted, never silent), no transfer, no forwarding, no client
notices.

Everything here runs only when a mobility experiment engages it — no
module-level hooks, no RNG, so mobility-off runs keep their golden
trace digests bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.net.addresses import Address
from repro.net.datagram import Datagram
from repro.net.rpc import RpcChannel, RpcServer, RpcTimeoutError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # The client handles HandoverNotice, and the orchestra package
    # (via placement) imports the client — so the coordinator binds to
    # the orchestrator at runtime only, never at import time.
    from repro.orchestra.orchestrator import Orchestrator

#: Wire size of one handover notice (small control packet).
NOTICE_WIRE_BYTES = 96

#: Port offset for per-replica state-transfer endpoints (sidecar RPC
#: uses +10000; keep clear of it).
TRANSFER_PORT_OFFSET = 20000

#: CPU time the target pays to deserialize one imported entry.
IMPORT_TIME_PER_ENTRY_S = 2e-4

#: Container start on a freshly deployed target replica.
WARMUP_S = 0.5
#: Straggler window after cutover before the record closes.
DRAIN_S = 0.5
#: Max payload bytes per transfer chunk.
CHUNK_BYTES = 32 * 1024 * 1024
#: Serialization overhead per entry on the wire.
ENTRY_OVERHEAD_BYTES = 256
#: Pre-copy rounds before the cutover delta ships regardless.
MAX_TRANSFER_ROUNDS = 3
#: Guard on each chunk RPC (beyond the RPC's own retransmissions).
TRANSFER_TIMEOUT_S = 2.0
#: Attempts before the handover is abandoned (session stays put).
MAX_ATTEMPTS = 3
#: Deterministic backoff before attempt ``k + 1``: ``RETRY_BACKOFF_S *
#: BACKOFF_MULTIPLIER ** (k - 1)`` — bounded, no jitter, so handover
#: schedules replay bit-identically.
RETRY_BACKOFF_S = 0.25
BACKOFF_MULTIPLIER = 2.0


class HandoverError(RuntimeError):
    """Raised for handover misuse (unknown client, no session)."""


@dataclass(frozen=True)
class HandoverNotice:
    """Control message to the client bracketing a handover window.

    ``phase`` is ``begin`` (window opens: degrade locally), ``commit``
    (cut over: adopt ``epoch``, resume sending) or ``abort`` (window
    closes, session stays put).  Epoch-stale notices are ignored by
    the client, so reordered control packets cannot roll a session
    backwards.
    """

    client_id: int
    service: str
    epoch: int
    phase: str
    site: str
    sent_s: float


@dataclass(frozen=True)
class _TransferChunk:
    """One chunk of exported state entries on the wire."""

    client_id: int
    generation: int
    entries: tuple
    final: bool


@dataclass
class SessionEntry:
    """Where one client's session lives, and its epoch."""

    instance: object
    epoch: int = 0


class SessionDirectory:
    """client -> serving replica of the stateful service.

    Consulted by upstream services (via ``StreamService.
    session_router``) before the registry's round-robin balancer, so a
    client's frames keep landing on the replica that holds its session
    state.  Falls back to the balancer (returns ``None``) when the
    pinned replica is gone — the normal recovery path.
    """

    def __init__(self, service: str):
        self.service = service
        self._sessions: Dict[int, SessionEntry] = {}

    def bind(self, client_id: int, instance, epoch: int = 0) -> None:
        self._sessions[client_id] = SessionEntry(instance=instance,
                                                 epoch=epoch)

    def entry(self, client_id: int) -> Optional[SessionEntry]:
        return self._sessions.get(client_id)

    def epoch(self, client_id: int) -> int:
        entry = self._sessions.get(client_id)
        return entry.epoch if entry is not None else 0

    def route(self, service: str, client_id: int) -> Optional[Address]:
        """The pinned replica's address, or ``None`` (use balancer)."""
        if service != self.service:
            return None
        entry = self._sessions.get(client_id)
        if entry is None or not entry.instance.is_running():
            return None
        return entry.instance.address


@dataclass
class HandoverRecord:
    """Timeline and accounting of one session handover."""

    client_id: int
    service: str
    from_site: str
    to_site: str
    epoch: int
    started_s: float
    source: str = ""
    target: str = ""
    naive: bool = False
    attempts: int = 0
    rounds: int = 0
    chunks: int = 0
    #: Entries shipped to (and imported at) the target.
    state_entries: int = 0
    state_bytes: float = 0.0
    #: Session entries that died instead of moving (source crashed
    #: mid-transfer, or the naive baseline tore the session down).
    entries_lost: int = 0
    warmed_s: Optional[float] = None
    cutover_s: Optional[float] = None
    completed_s: Optional[float] = None
    #: ``completed`` | ``failed-over`` | ``abandoned`` | ``superseded``
    #: | ``pending``
    outcome: str = "pending"
    abort_reasons: List[str] = field(default_factory=list)

    @property
    def latency_s(self) -> Optional[float]:
        """Window start to cutover — the client-visible outage bound."""
        if self.cutover_s is None:
            return None
        return self.cutover_s - self.started_s

    def as_dict(self) -> dict:
        return {
            "client_id": self.client_id,
            "service": self.service,
            "from_site": self.from_site,
            "to_site": self.to_site,
            "epoch": self.epoch,
            "started_s": self.started_s,
            "source": self.source,
            "target": self.target,
            "naive": self.naive,
            "attempts": self.attempts,
            "rounds": self.rounds,
            "chunks": self.chunks,
            "state_entries": self.state_entries,
            "state_bytes": self.state_bytes,
            "entries_lost": self.entries_lost,
            "warmed_s": self.warmed_s,
            "cutover_s": self.cutover_s,
            "completed_s": self.completed_s,
            "latency_s": self.latency_s,
            "outcome": self.outcome,
            "abort_reasons": list(self.abort_reasons),
        }


class HandoverCoordinator:
    """Runs stateful session handovers on an orchestrated deployment."""

    def __init__(self, orchestrator: "Orchestrator", *,
                 service: str = "sift", naive: bool = False):
        self.orchestrator = orchestrator
        self.sim = orchestrator.sim
        self.network = orchestrator.testbed.network
        self.service = service
        self.naive = naive
        self.directory = SessionDirectory(service)
        self.records: List[HandoverRecord] = []
        #: client_id -> ArClient-ish (address + epoch hooks).
        self._clients: Dict[int, object] = {}
        #: Handover generation per client: a newer handover supersedes
        #: any still in flight (its process sees the stale generation
        #: and stands down without touching shared state).
        self._generation: Dict[int, int] = {}
        #: Per-replica state-transfer endpoints (lazily bound).
        self._transfer_servers: Dict[Address, RpcServer] = {}

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def attach_client(self, client) -> None:
        """Register a client for notices and epoch bookkeeping."""
        self._clients[client.client_id] = client

    def bind_initial(self, client_id: int, site: str) -> None:
        """Pin a client's session to a replica at ``site`` (epoch 0)."""
        instance = self._ensure_replica(site)
        if instance is None:
            raise HandoverError(
                f"no capacity for {self.service!r} at {site!r}")
        self.directory.bind(client_id, instance, epoch=0)

    def _ensure_replica(self, site: str):
        """A running replica of the service at ``site`` (deploy one if
        none exists).  Returns ``(instance, fresh)``-style instance or
        ``None`` when the scheduler has no capacity there."""
        from repro.orchestra.scheduler import SchedulingError

        for instance in self.orchestrator.instances(self.service):
            if (instance.is_running()
                    and instance.container.machine.name == site):
                return instance
        try:
            return self.orchestrator.scale_up(self.service, machine=site)
        except SchedulingError:
            return None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def handover_session(self, client_id: int,
                         to_site: str) -> HandoverRecord:
        """Begin moving ``client_id``'s session to ``to_site``.

        Returns the live-updated :class:`HandoverRecord`; the protocol
        itself runs as a simulation process.  A handover already in
        flight for the client is superseded.
        """
        entry = self.directory.entry(client_id)
        if entry is None:
            raise HandoverError(f"client {client_id} has no session")
        source = entry.instance
        from_site = source.container.machine.name
        record = HandoverRecord(
            client_id=client_id, service=self.service,
            from_site=from_site, to_site=to_site,
            epoch=entry.epoch + 1, started_s=self.sim.now,
            source=str(source.address), naive=self.naive)
        self.records.append(record)
        generation = self._generation.get(client_id, 0) + 1
        self._generation[client_id] = generation
        if to_site == from_site and source.is_running():
            record.outcome = "completed"
            record.cutover_s = record.completed_s = self.sim.now
            return record
        runner = (self._run_naive if self.naive else self._run)
        self.sim.spawn(runner(client_id, to_site, record, generation),
                       name=f"handover-{self.service}-c{client_id}")
        return record

    # ------------------------------------------------------------------
    # The stateful protocol
    # ------------------------------------------------------------------
    def _superseded(self, client_id: int, generation: int) -> bool:
        return self._generation.get(client_id) != generation

    def _run(self, client_id: int, to_site: str,
             record: HandoverRecord, generation: int):
        for attempt in range(1, MAX_ATTEMPTS + 1):
            record.attempts = attempt
            outcome = yield from self._attempt(
                client_id, to_site, record, generation)
            if outcome in ("committed", "failed-over"):
                # Straggler drain, then the record closes.
                yield self.sim.timeout(DRAIN_S)
                record.completed_s = self.sim.now
                record.outcome = ("completed" if outcome == "committed"
                                  else "failed-over")
                return
            if outcome == "superseded":
                record.outcome = "superseded"
                return
            # Abort: roll back is implicit (the source was never
            # mutated); close the client's window so it resumes
            # sending at the source, then back off and retry.
            self._notify(client_id, record, "abort",
                         from_node=record.from_site)
            if attempt < MAX_ATTEMPTS:
                yield self.sim.timeout(
                    RETRY_BACKOFF_S * BACKOFF_MULTIPLIER ** (attempt - 1))
                if self._superseded(client_id, generation):
                    record.outcome = "superseded"
                    return
        # Budget exhausted: the session stays at the source and the
        # client keeps its graceful local fallback for windows to come.
        record.outcome = "abandoned"
        record.completed_s = self.sim.now

    def _attempt(self, client_id: int, to_site: str,
                 record: HandoverRecord, generation: int):
        entry = self.directory.entry(client_id)
        if entry is None:
            return "abort"
        source = entry.instance
        # Open the client's degradation window for this attempt.
        self._notify(client_id, record, "begin",
                     from_node=record.from_site)

        # -- WARM ------------------------------------------------------
        had_replica = any(
            i.is_running() and i.container.machine.name == to_site
            for i in self.orchestrator.instances(self.service))
        target = self._ensure_replica(to_site)
        if target is None:
            record.abort_reasons.append("no-capacity")
            return "abort"
        record.target = str(target.address)
        if not had_replica:
            yield self.sim.timeout(WARMUP_S)
        if record.warmed_s is None:
            record.warmed_s = self.sim.now
        if self._superseded(client_id, generation):
            return "superseded"
        if not target.is_running():
            record.abort_reasons.append("target-crashed")
            return "abort"

        # -- TRANSFER (iterative pre-copy) ------------------------------
        channel = RpcChannel(self.network, source.address.node)
        transfer_to = self._ensure_transfer_server(target)
        shipped: set = set()
        for __ in range(MAX_TRANSFER_ROUNDS):
            if not source.is_running():
                return self._fail_over(client_id, record, source,
                                       target, shipped, generation)
            snapshot = source.state.export_session(client_id,
                                                   exclude=shipped)
            if not snapshot:
                break
            record.rounds += 1
            outcome = yield from self._ship(
                channel, transfer_to, client_id, generation, snapshot,
                record, final=False)
            if outcome != "ok":
                if (outcome == "source-crashed"
                        or not source.is_running()):
                    return self._fail_over(client_id, record, source,
                                           target, shipped, generation)
                record.abort_reasons.append(outcome)
                return ("superseded" if outcome == "superseded"
                        else "abort")
            shipped.update(key for key, *__rest in snapshot)

        # -- CUTOVER -----------------------------------------------------
        if not source.is_running():
            return self._fail_over(client_id, record, source, target,
                                   shipped, generation)
        final_delta = source.state.export_session(client_id,
                                                  exclude=shipped)
        if final_delta:
            record.rounds += 1
            outcome = yield from self._ship(
                channel, transfer_to, client_id, generation,
                final_delta, record, final=True)
            if outcome != "ok":
                if (outcome == "source-crashed"
                        or not source.is_running()):
                    return self._fail_over(client_id, record, source,
                                           target, shipped, generation)
                record.abort_reasons.append(outcome)
                return ("superseded" if outcome == "superseded"
                        else "abort")
            shipped.update(key for key, *__rest in final_delta)
        if self._superseded(client_id, generation):
            return "superseded"
        if not target.is_running():
            record.abort_reasons.append("target-crashed")
            return "abort"
        self._commit(client_id, record, source, target, shipped)
        return "committed"

    def _ship(self, channel, transfer_to: Address, client_id: int,
              generation: int, entries, record: HandoverRecord,
              final: bool):
        """Ship one snapshot in bounded chunks; ``"ok"`` or a reason."""
        for chunk in _chunk_entries(entries):
            if self._superseded(client_id, generation):
                return "superseded"
            size = int(sum(entry[3] for entry in chunk)
                       + ENTRY_OVERHEAD_BYTES * len(chunk))
            payload = _TransferChunk(client_id=client_id,
                                     generation=generation,
                                     entries=tuple(chunk), final=final)
            call = channel.call(transfer_to, payload, size_bytes=size)
            guard = self.sim.timeout(TRANSFER_TIMEOUT_S)
            try:
                winner, value = yield self.sim.any_of([call, guard])
            except RpcTimeoutError:
                return "transfer-lost"
            if winner is guard:
                return "transfer-timeout"
            status, imported = value
            if status != "ok":
                return status
            record.chunks += 1
            record.state_entries += imported
            record.state_bytes += size
        return "ok"

    def _fail_over(self, client_id: int, record: HandoverRecord,
                   source, target, shipped: set,
                   generation: int) -> str:
        """Source died mid-transfer: forward recovery onto the target.

        Everything already shipped lives at the target; the rest died
        with the source (counted, never silent).  The directory moves
        forward — rolling back to a dead replica helps nobody.
        """
        if self._superseded(client_id, generation):
            return "superseded"
        if target is None or not target.is_running():
            record.abort_reasons.append("source-and-target-crashed")
            return "abort"
        dead = sum(1 for key in source.state.keys()
                   if isinstance(key, tuple) and key[0] == client_id
                   and key not in shipped)
        record.entries_lost += dead
        record.abort_reasons.append("source-crashed")
        self._commit(client_id, record, source, target, shipped,
                     source_alive=False)
        return "failed-over"

    def _commit(self, client_id: int, record: HandoverRecord,
                source, target, shipped: set, *,
                source_alive: bool = True) -> None:
        """The atomic cutover: one simulation instant, no yields."""
        if source_alive:
            # Moved entries leave the source (accounted as discarded —
            # their state lives on at the target); in-flight fetches
            # that still race here chase the forwarding tombstone.
            for key in shipped:
                source.state.discard(key)
            forward = getattr(source, "forward_table", None)
            if forward is not None:
                forward[client_id] = target.address
        target_forward = getattr(target, "forward_table", None)
        if target_forward is not None:
            # The new home must not forward its own session away (a
            # client bouncing back would otherwise chase a stale
            # tombstone from its previous stay).
            target_forward.pop(client_id, None)
        self.directory.bind(client_id, target, epoch=record.epoch)
        self._shift_credits(str(source.address), str(target.address))
        record.cutover_s = self.sim.now
        self._notify(client_id, record, "commit", from_node=record.to_site)

    def _shift_credits(self, source_addr: str, target_addr: str) -> None:
        """Epoch handoff in every upstream credit ledger: late grants
        from the old replica are dead; the new one is (re-)admitted."""
        for instance in self.orchestrator.all_instances():
            ledger = instance.credit_ledger(self.service)
            if ledger is not None:
                ledger.retire_instance(source_addr)
                ledger.restore_instance(target_addr)
        for client in self._clients.values():
            ledger = getattr(client, "ingress_credits", None)
            if ledger is not None and ledger.service == self.service:
                ledger.retire_instance(source_addr)
                ledger.restore_instance(target_addr)

    # ------------------------------------------------------------------
    # Naive kill-and-reconnect baseline
    # ------------------------------------------------------------------
    def _run_naive(self, client_id: int, to_site: str,
                   record: HandoverRecord, generation: int):
        """Break-before-make: tear the session down at the source and
        rebind — no transfer, no forwarding, no client notices.  The
        state (and every in-flight fetch against it) is lost; the
        count is honest."""
        entry = self.directory.entry(client_id)
        source = entry.instance if entry is not None else None
        record.attempts = 1
        target = self._ensure_replica(to_site)
        if target is None:
            record.outcome = "abandoned"
            record.completed_s = self.sim.now
            return
        record.target = str(target.address)
        if source is not None and source.is_running():
            session_keys = [key for key in source.state.keys()
                            if isinstance(key, tuple)
                            and key[0] == client_id]
            for key in session_keys:
                source.state.discard(key)
            record.entries_lost += len(session_keys)
        self.directory.bind(client_id, target, epoch=record.epoch)
        record.cutover_s = record.completed_s = self.sim.now
        record.outcome = "completed"
        if False:  # pragma: no cover - keeps this a generator process
            yield

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _ensure_transfer_server(self, target) -> Address:
        """Bind (once) the state-import endpoint next to ``target``."""
        address = Address(target.address.node,
                          target.address.port + TRANSFER_PORT_OFFSET)
        if address not in self._transfer_servers:
            self._transfer_servers[address] = RpcServer(
                self.network, address,
                self._import_handler(target))
        return address

    def _import_handler(self, target):
        def handler(chunk: _TransferChunk):
            # Stale generation: a newer handover superseded this
            # transfer mid-flight; the entries must not land.
            if self._generation.get(chunk.client_id) != chunk.generation:
                return ("superseded", 0)
            if not target.is_running():
                return ("target-crashed", 0)
            # Deserialization is real CPU at the target.
            yield from target.container.machine.execute_cpu(
                IMPORT_TIME_PER_ENTRY_S * len(chunk.entries))
            if not target.is_running():
                return ("target-crashed", 0)
            imported = target.state.import_entries(chunk.entries)
            return ("ok", imported)

        return handler

    def _notify(self, client_id: int, record: HandoverRecord,
                phase: str, *, from_node: str) -> None:
        client = self._clients.get(client_id)
        if client is None:
            return
        notice = HandoverNotice(
            client_id=client_id, service=self.service,
            epoch=record.epoch, phase=phase, site=record.to_site,
            sent_s=self.sim.now)
        datagram = Datagram(payload=notice,
                            size_bytes=NOTICE_WIRE_BYTES,
                            src=Address(from_node, 0),
                            dst=client.address)
        self.network.send(from_node, client.address, datagram,
                          NOTICE_WIRE_BYTES)


def _chunk_entries(entries):
    """Split exported entries into chunks of bounded wire size."""
    chunk: list = []
    used = 0
    for entry in entries:
        size = entry[3]
        if chunk and used + size > CHUNK_BYTES:
            yield chunk
            chunk, used = [], 0
        chunk.append(entry)
        used += size
    if chunk:
        yield chunk
