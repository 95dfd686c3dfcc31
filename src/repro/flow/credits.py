"""Credit-based backpressure primitives.

The sidecar advertises *credits* — queue slots it can still serve
within the staleness budget — upstream on an interval.  Senders keep a
:class:`CreditLedger` per downstream service and shed frames the
downstream would only drop as stale, before the bytes travel and the
queue entry is wasted.  :class:`TokenBucket` is the shared pacing
primitive (client send pacing, per-client admission fairness).

Everything here is pure state driven by simulation timestamps: no
events are scheduled, no RNG is consumed, so the primitives are usable
from both event handlers and processes without touching trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Wire size of one credit advertisement (a small control packet).
CREDIT_WIRE_BYTES = 64


@dataclass(frozen=True)
class CreditAdvertisement:
    """One sidecar's periodic credit grant to its upstreams.

    ``credits`` is never negative — the sidecar computes it as a
    clamped headroom (see :meth:`repro.scatterpp.sidecar.Sidecar.
    credits`) and :meth:`CreditLedger.update` rejects negatives
    outright, so the "credits never go negative" invariant holds by
    construction on both ends.
    """

    service: str
    instance: str
    credits: int
    seq: int
    sent_s: float


class TokenBucket:
    """A deterministic token bucket driven by caller-supplied time.

    Refill is computed lazily from elapsed virtual time, so the bucket
    never schedules events of its own.
    """

    def __init__(self, rate_per_s: float, burst: int):
        if rate_per_s <= 0:
            raise ValueError(
                f"rate_per_s must be positive, got {rate_per_s}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = rate_per_s
        self.burst = burst
        self._tokens = float(burst)
        self._last_s = 0.0
        self.granted = 0
        self.denied = 0

    def _refill(self, now: float) -> None:
        if now > self._last_s:
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._last_s) * self.rate_per_s)
            self._last_s = now

    def take(self, now: float) -> bool:
        """Consume one token if available."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.granted += 1
            return True
        self.denied += 1
        return False

    def take_many(self, now: float, count: int) -> int:
        """Consume up to ``count`` tokens in one pass; returns granted.

        The aggregate form a cohort engine uses: one refill and one
        subtraction instead of ``count`` :meth:`take` calls, with the
        same granted/denied accounting.  Equivalent to ``count``
        sequential takes at the same ``now``.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return 0
        self._refill(now)
        granted = min(count, int(self._tokens))
        self._tokens -= granted
        self.granted += granted
        self.denied += count - granted
        return granted


class CreditLedger:
    """A sender's view of one downstream service's credits.

    Updated by :class:`CreditAdvertisement`; consumed optimistically by
    :meth:`take` between advertisements.  The view can be *stale* (it
    refreshes every advertise interval) and is deliberately optimistic
    when several senders share a downstream — credit flow bounds waste,
    it does not promise exactness; the sidecar's own admission control
    is the authoritative gate.

    Invariants: the tracked credit for any instance is never negative,
    and entries expire after ``ttl_s`` so a silent downstream cannot
    wedge a sender at zero forever (expiry falls back to cold-start
    "no signal ⇒ send" behaviour).
    """

    def __init__(self, service: str, *, ttl_s: float = 0.5):
        if ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        self.service = service
        self.ttl_s = ttl_s
        #: instance -> (credits, seq, updated_s)
        self._entries: Dict[str, Tuple[int, int, float]] = {}
        #: Instances retired by a session handover: their credits are
        #: dropped and their late advertisements rejected until the
        #: instance is restored (epoch handoff — a stale grant from the
        #: old site must not admit frames it can no longer serve).
        self._retired: set = set()
        self.updates = 0
        self.takes = 0
        self.shortfalls = 0
        self.rejected_retired = 0

    def retire_instance(self, instance: str) -> None:
        """Epoch handoff: forget an instance and refuse its late
        advertisements (until :meth:`restore_instance`)."""
        self._entries.pop(instance, None)
        self._retired.add(instance)

    def restore_instance(self, instance: str) -> None:
        """Re-admit a previously retired instance (the session moved
        back to it)."""
        self._retired.discard(instance)

    def update(self, advertisement: CreditAdvertisement,
               now: float) -> None:
        """Fold one advertisement into the view."""
        if advertisement.service != self.service:
            return
        if advertisement.instance in self._retired:
            self.rejected_retired += 1
            return
        if advertisement.credits < 0:
            raise ValueError(
                f"negative credit advertisement "
                f"{advertisement.credits} from {advertisement.instance}")
        current = self._entries.get(advertisement.instance)
        if current is not None and advertisement.seq <= current[1]:
            return  # reordered/duplicate delivery: keep the newer view
        self._entries[advertisement.instance] = (
            advertisement.credits, advertisement.seq,
            advertisement.sent_s)
        self.updates += 1

    def _expire(self, now: float) -> None:
        stale = [instance for instance, (__, __s, at) in
                 self._entries.items() if now - at > self.ttl_s]
        for instance in stale:
            del self._entries[instance]

    def take(self, now: float) -> bool:
        """Spend one credit; ``True`` with no fresh signal (cold start).

        Decrements the instance with the most credits, never below
        zero.
        """
        self._expire(now)
        if not self._entries:
            return True
        self.takes += 1
        best, best_credits = None, 0
        for instance, (credits, __, __s) in self._entries.items():
            if credits > best_credits:
                best, best_credits = instance, credits
        if best is None:
            self.shortfalls += 1
            return False
        credits, seq, at = self._entries[best]
        self._entries[best] = (credits - 1, seq, at)
        return True

    def take_many(self, now: float, count: int) -> int:
        """Spend up to ``count`` credits in one pass; returns granted.

        The aggregate form a cohort engine uses.  With no fresh signal
        every request is granted (cold start, mirroring :meth:`take`);
        otherwise credits are drained richest-instance-first, never
        below zero, and the shortfall is counted.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return 0
        self._expire(now)
        if not self._entries:
            return count
        self.takes += count
        granted = 0
        by_credits = sorted(self._entries,
                            key=lambda name: -self._entries[name][0])
        for instance in by_credits:
            if granted >= count:
                break
            credits, seq, at = self._entries[instance]
            spend = min(credits, count - granted)
            if spend > 0:
                self._entries[instance] = (credits - spend, seq, at)
                granted += spend
        if granted < count:
            self.shortfalls += count - granted
        return granted
