"""Pluggable sidecar admission control.

The sidecar consults its policy *before* a frame enters the queue:
rejecting at ingress costs nothing downstream, whereas the staleness
filter only catches waste at dispatch, after the frame occupied memory
and a queue slot.  Three policies ship:

* ``always`` — admit everything (rejections then come only from queue
  overflow); it builds no policy object, so it is byte-identical to
  running without admission control.
* ``token-bucket`` — a per-client token bucket.  Fairness is the
  point: one hot client drains only its *own* bucket, so it cannot
  starve well-behaved clients out of the queue.
* ``queue-gradient`` — admit freely while the projected queue depth
  (current depth plus the recent gradient over a lookahead horizon)
  stays inside the serviceable window; under congestion fall back to
  the per-client buckets so shedding stays fair.

Policies are pure state machines over virtual timestamps: no events,
no RNG — admission decisions never perturb the event trajectory
beyond the frames they reject.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.flow.config import FlowConfig
from repro.flow.credits import TokenBucket


class AdmissionPolicy:
    """Base: decide whether an arriving frame may enter the queue."""

    name = "always"

    def admit(self, *, client_id: int, now: float, depth: int,
              target_depth: int) -> bool:
        """Whether to admit.  ``depth`` is the current queue depth and
        ``target_depth`` the sidecar's serviceable window (how many
        entries it can still serve inside the staleness budget)."""
        raise NotImplementedError


class _PerClientBuckets:
    """Shared fairness helper: one token bucket per client."""

    def __init__(self, rate_fps: float, burst: int):
        self.rate_fps = rate_fps
        self.burst = burst
        self._buckets: Dict[int, TokenBucket] = {}

    def take(self, client_id: int, now: float) -> bool:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(self.rate_fps, self.burst)
            self._buckets[client_id] = bucket
        return bucket.take(now)

    def clients(self) -> int:
        return len(self._buckets)


class TokenBucketAdmission(AdmissionPolicy):
    """Per-client rate limiting at ingress."""

    name = "token-bucket"

    def __init__(self, *, rate_fps: float = 45.0, burst: int = 12):
        self._buckets = _PerClientBuckets(rate_fps, burst)

    def admit(self, *, client_id: int, now: float, depth: int,
              target_depth: int) -> bool:
        return self._buckets.take(client_id, now)


class QueueGradientAdmission(AdmissionPolicy):
    """Gradient-aware shedding with per-client fairness under load.

    While the projected depth ``depth + slope × lookahead`` stays at or
    below the serviceable window, everything is admitted.  Once the
    projection breaks the window the policy degrades to the per-client
    token buckets, so the shed load is spread fairly across clients
    instead of punishing whoever arrives next.
    """

    name = "queue-gradient"

    def __init__(self, *, lookahead_s: float = 0.050,
                 rate_fps: float = 45.0, burst: int = 12):
        if lookahead_s < 0:
            raise ValueError(
                f"lookahead_s must be >= 0, got {lookahead_s}")
        self.lookahead_s = lookahead_s
        self._buckets = _PerClientBuckets(rate_fps, burst)
        self._last_now: Optional[float] = None
        self._last_depth = 0
        self._slope_per_s = 0.0

    def _observe(self, now: float, depth: int) -> None:
        if self._last_now is not None and now > self._last_now:
            instant = (depth - self._last_depth) / (now - self._last_now)
            # Light EWMA keeps one bursty arrival from dominating.
            self._slope_per_s = 0.5 * self._slope_per_s + 0.5 * instant
        self._last_now = now
        self._last_depth = depth

    def admit(self, *, client_id: int, now: float, depth: int,
              target_depth: int) -> bool:
        self._observe(now, depth)
        projected = depth + max(0.0, self._slope_per_s) * self.lookahead_s
        if projected <= target_depth:
            return True
        return self._buckets.take(client_id, now)


def build_admission(flow: FlowConfig) -> Optional[AdmissionPolicy]:
    """Instantiate the configured policy (``None`` for ``always``).

    ``always`` maps to ``None`` so the sidecar's hot path stays
    branch-free and byte-identical to the no-flow trajectory.
    """
    if flow.admission == "always":
        return None
    if flow.admission == "token-bucket":
        return TokenBucketAdmission(rate_fps=flow.admission_rate_fps,
                                    burst=flow.admission_burst)
    if flow.admission == "queue-gradient":
        return QueueGradientAdmission(
            lookahead_s=flow.gradient_lookahead_s,
            rate_fps=flow.admission_rate_fps,
            burst=flow.admission_burst)
    raise ValueError(f"unknown admission policy {flow.admission!r}")
