"""Client-side QoS accounting.

Definitions follow §3.2:

* **FPS** — successfully analyzed frames per second received back.
* **E2E latency** — delta between a frame's capture and the processed
  frame's arrival back at the client.
* **Success rate** — fraction of sent frames whose result returned.
* **Jitter** — variability of the inter-frame receive time (we report
  the standard deviation of inter-arrival deltas, the common
  operationalization of "Δ inter-frame receive time").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

import numpy as np


@dataclass
class ClientStats:
    """Per-client send/receive log with derived QoS metrics."""

    client_id: int
    sent: Dict[int, float] = field(default_factory=dict)
    received: Dict[int, float] = field(default_factory=dict)
    #: Frames answered by the *local* fallback tracker instead of the
    #: pipeline (graceful degradation while the circuit breaker is open).
    degraded: Dict[int, float] = field(default_factory=dict)
    #: Frames withheld at the client by flow-control pacing (the
    #: ingress sidecar's credits ran dry, or the client's own token
    #: bucket did).  Paced frames stay in ``sent`` — they count
    #: against the success rate like any other unanswered frame.
    paced: Dict[int, float] = field(default_factory=dict)
    #: Frames the client has given up on, with a reason (``"retry-
    #: exhausted"``, ``"no-fallback"``, ``"stale-epoch"``, ...).  A
    #: late pipeline result supersedes the verdict (the frame moves to
    #: ``received``) — loss is a claim, arrival is the fact.
    lost: Dict[int, str] = field(default_factory=dict)
    e2e_latencies_s: List[float] = field(default_factory=list)
    #: Resilience-layer counters (zero when the layer is disabled).
    retries: int = 0
    timeouts: int = 0
    #: Session-handover counters (zero when mobility is off).
    handover_windows: int = 0
    rejected_stale_results: int = 0

    def record_sent(self, frame_number: int, timestamp_s: float) -> None:
        if frame_number in self.sent:
            raise ValueError(f"frame {frame_number} sent twice")
        self.sent[frame_number] = timestamp_s

    def record_received(self, frame_number: int,
                        timestamp_s: float) -> None:
        sent_at = self.sent.get(frame_number)
        if sent_at is None:
            raise ValueError(
                f"result for unknown frame {frame_number}")
        if frame_number in self.received:
            return  # duplicate delivery: count once
        # A pipeline result beats a local fallback one for this frame,
        # and refutes an earlier loss verdict.
        self.degraded.pop(frame_number, None)
        self.lost.pop(frame_number, None)
        self.received[frame_number] = timestamp_s
        self.e2e_latencies_s.append(timestamp_s - sent_at)

    def record_degraded(self, frame_number: int,
                        timestamp_s: float) -> None:
        """A frame handled by local fallback tracking.

        Degraded frames keep the augmentation alive but do not count as
        pipeline successes: they appear in :meth:`availability` and
        :meth:`degraded_rate`, never in :meth:`success_rate` or the E2E
        latency distribution.  A late pipeline result supersedes the
        local one (the frame moves to ``received``).
        """
        if frame_number not in self.sent:
            raise ValueError(
                f"degraded result for unknown frame {frame_number}")
        if (frame_number in self.received
                or frame_number in self.degraded):
            return
        # A local answer supersedes an earlier loss verdict the same
        # way a late pipeline result does: the user saw augmentation.
        self.lost.pop(frame_number, None)
        self.degraded[frame_number] = timestamp_s

    def record_paced(self, frame_number: int,
                     timestamp_s: float) -> None:
        """A frame withheld by client-side flow-control pacing."""
        if frame_number not in self.sent:
            raise ValueError(
                f"paced mark for unknown frame {frame_number}")
        if frame_number in self.paced:
            return
        self.paced[frame_number] = timestamp_s

    def record_lost(self, frame_number: int, reason: str) -> None:
        """A frame the client has given up on, with the reason why.

        Never overrides an answer: a frame already received or
        degraded stays answered.  The first reason sticks (the retry
        budget can exhaust only once per frame; later verdicts would
        just restate it).
        """
        if frame_number not in self.sent:
            raise ValueError(
                f"loss verdict for unknown frame {frame_number}")
        if (frame_number in self.received
                or frame_number in self.degraded
                or frame_number in self.lost):
            return
        self.lost[frame_number] = reason

    def lost_by_reason(self) -> Dict[str, int]:
        """Loss counts keyed by reason (JSON-ready)."""
        counts: Dict[str, int] = {}
        for reason in self.lost.values():
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    def unresolved_frames(self) -> List[int]:
        """Sent frames with no verdict yet — not received, degraded,
        paced, or lost.  With the resilience layer attached every one
        of these must be younger than the retry budget; anything older
        has silently vanished (a conservation violation)."""
        return [frame for frame in self.sent
                if frame not in self.received
                and frame not in self.degraded
                and frame not in self.paced
                and frame not in self.lost]

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def frames_sent(self) -> int:
        return len(self.sent)

    @property
    def frames_received(self) -> int:
        return len(self.received)

    @property
    def frames_degraded(self) -> int:
        return len(self.degraded)

    @property
    def frames_paced(self) -> int:
        return len(self.paced)

    @property
    def frames_lost(self) -> int:
        return len(self.lost)

    def success_rate(self) -> float:
        if not self.sent:
            return 0.0
        return self.frames_received / self.frames_sent

    def degraded_rate(self) -> float:
        if not self.sent:
            return 0.0
        return self.frames_degraded / self.frames_sent

    def availability(self) -> float:
        """Fraction of frames answered by *anything* — the pipeline or
        the local fallback.  The user-facing "did the augmentation keep
        moving" number, as opposed to :meth:`success_rate`'s "did the
        pipeline answer"."""
        if not self.sent:
            return 0.0
        return (self.frames_received
                + self.frames_degraded) / self.frames_sent

    def fps(self, duration_s: Optional[float] = None) -> float:
        """Received frames per second over ``duration_s`` (defaults to
        the send-log span)."""
        if duration_s is None:
            if len(self.sent) < 2:
                return 0.0
            times = list(self.sent.values())
            duration_s = max(times) - min(times)
        if duration_s <= 0:
            return 0.0
        return self.frames_received / duration_s

    def inter_arrival_deltas_s(self) -> List[float]:
        """Receive-time deltas between *consecutive* frame numbers.

        Restricting to consecutive frames measures delivery-timing
        variability (what the paper's Δ inter-frame receive time
        captures) rather than the gaps introduced by dropped frames.
        """
        deltas = []
        for frame_number, arrival in self.received.items():
            next_arrival = self.received.get(frame_number + 1)
            if next_arrival is not None:
                deltas.append(next_arrival - arrival)
        return deltas

    def jitter_s(self) -> float:
        """Standard deviation of the inter-frame receive time."""
        deltas = self.inter_arrival_deltas_s()
        if len(deltas) < 2:
            return 0.0
        return float(np.std(deltas))

    def fps_series(self, bucket_s: float = 1.0) -> List[float]:
        """Received FPS per time bucket (for time-series plots)."""
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be positive, got {bucket_s}")
        if not self.received:
            return []
        arrivals = sorted(self.received.values())
        start = min(self.sent.values()) if self.sent else arrivals[0]
        end = arrivals[-1]
        n_buckets = int(np.ceil((end - start) / bucket_s)) + 1
        series = [0.0] * n_buckets
        for t in arrivals:
            series[int((t - start) / bucket_s)] += 1
        return [count / bucket_s for count in series]


def outcome_digest(clients: Iterable[ClientStats], tracer=None) -> str:
    """Hex fingerprint of every frame's fate, blind to event bookkeeping.

    Folds, per client and frame (in frame-number order), the send time
    and the frame's outcome: received or degraded at a time, paced at
    a time, lost with a reason, or none of these (unanswered).  With a
    :class:`~repro.metrics.tracing.Tracer` it also folds every span of
    the frame — stage, kind, instance, start and end — and its
    delivery time.  Unlike the kernel's trace digest it does not hash
    event sequence numbers, so a change that only removes
    same-instant bookkeeping events keeps it, while any change to when
    or where a frame was served, or how it ended, moves it.
    """
    digest = hashlib.blake2b(digest_size=16)
    for stats in clients:
        for frame in sorted(stats.sent):
            fate = (stats.client_id, frame, stats.sent[frame],
                    stats.received.get(frame), stats.degraded.get(frame),
                    stats.paced.get(frame), stats.lost.get(frame))
            trace = (tracer.trace((stats.client_id, frame))
                     if tracer is not None else None)
            if trace is not None:
                fate += (trace.delivered_s, [
                    (span.name, span.kind, span.instance, span.start_s,
                     span.end_s) for span in trace.spans])
            digest.update(repr(fate).encode())
            digest.update(b"\n")
    return digest.hexdigest()
