"""Frame-conservation bookkeeping and checks.

Every frame that reaches a sidecar must be accounted for exactly once:

* at ingress — admitted (``enqueued``), rejected by admission control,
  refused for a full queue (``dropped_overflow``), or refused because
  the sidecar was already detached;
* at egress — served (``dispatched``), dropped stale, lost to a failed
  dispatch (instance died mid-RPC), freed when the sidecar detached,
  still queued (``pending``), or in flight in the current dispatch
  round.

:func:`sidecar_ledger` snapshots both ledgers for one sidecar;
:func:`check_sidecar_conservation` asserts they balance *exactly* (the
in-flight term makes the equation an identity, not an inequality), and
:func:`check_result_conservation` audits every sidecar of a finished
experiment — the hook both the property suite and the capacity
benchmark call per probed cell.  Replicas retired mid-run (handover,
self-healing replacement) are audited too: retirement moves frames and
state around, it must not launder them.

Session handover extends the ledger family in two directions:

* :func:`check_client_conservation` — from the client's side of the
  wire, every sent frame ends in exactly one bucket (received,
  degraded, paced, or lost-with-reason); anything unresolved must be
  younger than the resolution budget, else it silently vanished.
* :func:`check_state_conservation` — every sift state entry that ever
  entered a store (stored or imported) left it through exactly one of
  fetch, expiry, handover discard, replacement, or replica stop —
  across live *and* retired replicas, so moving a session cannot
  invent or leak state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List


class ConservationError(AssertionError):
    """A sidecar's frame ledger failed to balance."""


@dataclass(frozen=True)
class SidecarLedger:
    """One sidecar's complete frame ledger at a point in time."""

    service: str
    instance: str
    enqueued: int
    rejected: int
    dropped_overflow: int
    detach_refused: int
    dispatched: int
    dropped_stale: int
    detach_drained: int
    pending: int
    in_flight: int

    @property
    def arrivals(self) -> int:
        """Every frame ever offered to the sidecar's ingress."""
        return (self.enqueued + self.rejected + self.dropped_overflow
                + self.detach_refused)

    @property
    def exits(self) -> int:
        """Admitted frames that have left (or still occupy) the queue."""
        return (self.dispatched + self.dropped_stale
                + self.detach_drained + self.pending + self.in_flight)

    @property
    def balance(self) -> int:
        """``enqueued - exits``; zero iff the ledger conserves frames."""
        return self.enqueued - self.exits

    def as_dict(self) -> Dict[str, int]:
        data = {key: value for key, value in asdict(self).items()
                if isinstance(value, int)}
        data["balance"] = self.balance
        return data


def sidecar_ledger(service) -> SidecarLedger:
    """Snapshot the conservation ledger of a sidecar-fronted service."""
    sidecar = service.sidecar
    stats = sidecar.stats
    return SidecarLedger(
        service=service.name,
        instance=str(service.address),
        enqueued=stats.enqueued,
        rejected=stats.rejected,
        dropped_overflow=stats.dropped_overflow,
        detach_refused=stats.detach_refused,
        dispatched=stats.dispatched,
        dropped_stale=stats.dropped_stale,
        detach_drained=stats.dropped_detach - stats.detach_refused,
        pending=sidecar.depth,
        in_flight=sidecar.in_flight)


def check_sidecar_conservation(service) -> SidecarLedger:
    """Assert one sidecar's ledger balances exactly; return it."""
    ledger = sidecar_ledger(service)
    if ledger.balance != 0:
        raise ConservationError(
            f"{ledger.service}@{ledger.instance}: frame ledger off by "
            f"{ledger.balance}: {ledger.as_dict()}")
    if ledger.detach_drained < 0:
        raise ConservationError(
            f"{ledger.service}@{ledger.instance}: negative detach "
            f"drain {ledger.detach_drained}")
    return ledger


def _result_instances(result, service_name: str,
                      include_retired: bool) -> List:
    instances = list(result.pipeline.instances(service_name))
    if include_retired:
        orchestrator = getattr(result.pipeline, "orchestrator", None)
        if orchestrator is not None:
            instances.extend(
                orchestrator.retired_instances(service_name))
    return instances


def check_result_conservation(result, *,
                              include_retired: bool = True
                              ) -> List[SidecarLedger]:
    """Audit every sidecar of a finished experiment result.

    Returns the per-instance ledgers (also useful as a serializable
    flow summary).  Raises :class:`ConservationError` on the first
    imbalance.  Services without sidecars (plain scAtteR) are skipped.
    ``include_retired`` extends the audit over replicas removed mid-run
    (handover, watchdog replacement): a retired replica's
    ledger must balance just like a live one's.
    """
    from repro.scatter.config import PIPELINE_ORDER

    ledgers: List[SidecarLedger] = []
    for service_name in PIPELINE_ORDER:
        for instance in _result_instances(result, service_name,
                                          include_retired):
            if not hasattr(instance, "sidecar"):
                continue
            ledgers.append(check_sidecar_conservation(instance))
    return ledgers


def check_client_conservation(stats, *, now: float,
                              budget_s: float) -> int:
    """Assert one client's send log accounts for every frame.

    The verdict buckets (received / degraded / lost) must be pairwise
    disjoint, every verdict must refer to a sent frame, and any frame
    still unresolved must be younger than ``budget_s`` — the bound on
    how long the resilience layer may take to reach a verdict (retry
    budget, breaker window, fallback latency).  Returns the number of
    in-budget unresolved frames (the tail still in flight at snapshot
    time).  Raises :class:`ConservationError` otherwise: a sent frame
    with no verdict and no excuse has silently vanished.
    """
    received = set(stats.received)
    degraded = set(stats.degraded)
    lost = set(stats.lost)
    sent = set(stats.sent)
    for name, bucket in (("received", received), ("degraded", degraded),
                         ("lost", lost), ("paced", set(stats.paced))):
        orphans = bucket - sent
        if orphans:
            raise ConservationError(
                f"client {stats.client_id}: {name} verdicts for frames "
                f"never sent: {sorted(orphans)[:5]}")
    for a_name, a in (("received", received), ("degraded", degraded)):
        for b_name, b in (("degraded", degraded), ("lost", lost)):
            if a is b:
                continue
            overlap = a & b
            if overlap:
                raise ConservationError(
                    f"client {stats.client_id}: frames in both "
                    f"{a_name} and {b_name}: {sorted(overlap)[:5]}")
    late = [frame for frame in stats.unresolved_frames()
            if now - stats.sent[frame] > budget_s]
    if late:
        raise ConservationError(
            f"client {stats.client_id}: {len(late)} frames unresolved "
            f"past the {budget_s:.3f}s budget (e.g. frame {late[0]} "
            f"sent {now - stats.sent[late[0]]:.3f}s ago): frames must "
            f"be served, degraded, paced, or lost-with-reason — never "
            f"silently vanished")
    return len(stats.unresolved_frames())


def check_state_conservation(result, *,
                             include_retired: bool = True
                             ) -> Dict[str, Dict[str, int]]:
    """Audit every state store of a finished experiment result.

    Covers live and (by default) retired replicas: an entry that ever
    entered a store — stored by the service or imported in a handover —
    must have left through exactly one of fetch, expiry, handover
    discard, same-key replacement, or replica stop.  Returns the
    per-instance counter snapshots; raises :class:`ConservationError`
    on the first imbalance.
    """
    from repro.scatter.config import PIPELINE_ORDER

    snapshots: Dict[str, Dict[str, int]] = {}
    for service_name in PIPELINE_ORDER:
        for instance in _result_instances(result, service_name,
                                          include_retired):
            state = getattr(instance, "state", None)
            if state is None or not hasattr(state,
                                            "conservation_balance"):
                continue
            balance = state.conservation_balance()
            snapshot = {
                "stored": state.stats_stored,
                "imported": state.stats_imported,
                "fetched": state.stats_fetched,
                "expired": state.stats_expired,
                "discarded": state.stats_discarded,
                "dropped_stop": state.stats_dropped_stop,
                "replaced": state.stats_replaced,
                "live": len(state),
                "balance": balance,
            }
            snapshots[f"{service_name}@{instance.address}"] = snapshot
            if balance != 0:
                raise ConservationError(
                    f"{service_name}@{instance.address}: state ledger "
                    f"off by {balance}: {snapshot}")
    return snapshots


def ledger_totals(ledgers: List[SidecarLedger]) -> Dict[str, Dict[str, int]]:
    """Sum per-instance ledgers into a per-service dict (JSON-ready)."""
    totals: Dict[str, Dict[str, int]] = {}
    for ledger in ledgers:
        bucket = totals.setdefault(ledger.service, {})
        for key, value in ledger.as_dict().items():
            bucket[key] = bucket.get(key, 0) + value
    return totals
