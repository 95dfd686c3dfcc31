"""Client-side resilience: retries, circuit breaking, degradation.

The edge pipeline can fail the client in three ways — a replica
crashes (silence), the network partitions (silence), or a replica
grays out (answers, but too late).  The server side heals the first
through the heartbeat detector, but the client still experiences the
detection window; the third the detector never sees at all.  This
module gives the client the standard three-layer answer:

* :class:`RetryPolicy` — per-frame retransmission with exponential
  backoff and jitter, bounded by the attempt budget.
* :class:`CircuitBreaker` — classic closed/open/half-open breaker over
  consecutive request failures: once the pipeline looks down, stop
  wasting uplink on it and fail fast.
* :class:`LocalFallbackTracker` — graceful degradation while the
  breaker is open: track the last known objects locally with FAST
  corners + BRIEF matching (:mod:`repro.vision.fast_features`) and a
  constant-velocity :class:`~repro.vision.tracker.ObjectTracker`.  The
  augmentation keeps moving, at reduced fidelity, instead of freezing.

:class:`ResilienceConfig` bundles the knobs;
:class:`~repro.scatter.client.ArClient` accepts one and wires the
layers into its send path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.kernel import Simulator
from repro.vision.fast_features import (
    BriefDescriptor,
    FastKeypoint,
    detect_fast,
    match_binary,
)
from repro.vision.recognizer import Recognition
from repro.vision.tracker import ObjectTracker, TrackedObject


# ----------------------------------------------------------------------
# Retry with exponential backoff
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with jitter.

    Attempt ``k`` (0-based; attempt 0 is the original send) retries
    after ``base_delay_s * multiplier**(k-1)``, capped at
    ``max_delay_s``, with a uniform ±``jitter`` fraction on top so
    synchronized clients do not retry in lockstep.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s <= 0 or self.max_delay_s <= 0:
            raise ValueError("delays must be positive")
        if self.multiplier < 1.0:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(
                f"jitter must be in [0, 1), got {self.jitter}")

    def delay_s(self, attempt: int,
                rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retry number ``attempt`` (>= 1)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                    self.max_delay_s)
        if rng is not None and self.jitter > 0:
            delay *= 1.0 + self.jitter * float(rng.uniform(-1.0, 1.0))
        return delay


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-service breaker over consecutive request failures.

    * **CLOSED** — requests flow; ``failure_threshold`` consecutive
      failures trip the breaker.
    * **OPEN** — requests are refused locally (fail fast) until
      ``recovery_timeout_s`` has passed.
    * **HALF_OPEN** — up to ``half_open_probes`` trial requests are let
      through; one success closes the breaker, one failure re-opens it
      (and restarts the recovery clock).

    Every transition is logged to :attr:`timeline` for the resilience
    report's breaker-state timeline.
    """

    def __init__(self, sim: Simulator, *,
                 failure_threshold: int = 5,
                 recovery_timeout_s: float = 1.0,
                 half_open_probes: int = 1):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {failure_threshold}")
        if recovery_timeout_s <= 0:
            raise ValueError(
                f"recovery_timeout_s must be positive, got "
                f"{recovery_timeout_s}")
        if half_open_probes < 1:
            raise ValueError(
                f"half_open_probes must be >= 1, got {half_open_probes}")
        self.sim = sim
        self.failure_threshold = failure_threshold
        self.recovery_timeout_s = recovery_timeout_s
        self.half_open_probes = half_open_probes
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: Optional[float] = None
        self._probes_in_flight = 0
        self.trips = 0
        #: (timestamp, state) transition log.
        self.timeline: List[Tuple[float, BreakerState]] = [
            (sim.now, BreakerState.CLOSED)]

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """May a request go over the network right now?"""
        if self.state is BreakerState.OPEN:
            assert self.opened_at_s is not None
            if self.sim.now - self.opened_at_s >= self.recovery_timeout_s:
                self._transition(BreakerState.HALF_OPEN)
                self._probes_in_flight = 0
            else:
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_in_flight >= self.half_open_probes:
                return False
            self._probes_in_flight += 1
            return True
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state is BreakerState.HALF_OPEN:
            self._transition(BreakerState.CLOSED)

    def record_failure(self) -> None:
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            # The trial request failed: back to OPEN, clock restarts.
            self._trip()
        elif (self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold):
            self._trip()

    def _trip(self) -> None:
        self.trips += 1
        self.opened_at_s = self.sim.now
        self._transition(BreakerState.OPEN)

    def _transition(self, state: BreakerState) -> None:
        if state is self.state:
            return
        self.state = state
        self.timeline.append((self.sim.now, state))

    # ------------------------------------------------------------------
    def open_time_s(self, until_s: Optional[float] = None) -> float:
        """Total time spent not-CLOSED (OPEN or HALF_OPEN)."""
        until = self.sim.now if until_s is None else until_s
        total = 0.0
        for (start, state), (end, __) in zip(
                self.timeline, self.timeline[1:] + [(until, None)]):
            if state is not BreakerState.CLOSED:
                total += max(0.0, min(end, until) - start)
        return total


# ----------------------------------------------------------------------
# Graceful degradation: local fast-feature tracking
# ----------------------------------------------------------------------
class LocalFallbackTracker:
    """Keeps the augmentation alive locally while the pipeline is down.

    The client cannot run the full SIFT recognizer, but it *can* run
    the cheap model: FAST corners + BRIEF descriptors on consecutive
    frames, matched under Hamming distance.  The median displacement of
    the matches estimates the camera-induced inter-frame shift; the
    last known-good recognitions (seeded from the final pipeline result
    before the outage) are advected by that shift and smoothed through
    the standard :class:`~repro.vision.tracker.ObjectTracker`.
    """

    def __init__(self, *, max_keypoints: int = 150,
                 threshold: float = 0.06,
                 max_coast_frames: int = 120, seed: int = 0,
                 feature_cache=None):
        self.max_keypoints = max_keypoints
        self.threshold = threshold
        self._brief = BriefDescriptor(seed=seed)
        # Content-addressed FAST+BRIEF cache: looped replay videos
        # re-degrade the same frames, so corner detection and binary
        # description are lookups after the first outage loop.  Cached
        # results are bit-identical to recomputes (no trajectory
        # impact).
        if feature_cache is None:
            from repro.vision.cache import default_feature_cache

            feature_cache = default_feature_cache()
        self._feature_cache = feature_cache
        self._fast_fingerprint = ("fast-brief", max_keypoints,
                                  threshold, seed)
        self.tracker = ObjectTracker(max_misses=max_coast_frames,
                                     min_hits=1)
        self._anchors: List[Recognition] = []
        self._prev_descriptors: Optional[np.ndarray] = None
        self._prev_keypoints: List[FastKeypoint] = []
        self.frames_tracked = 0
        self._last_frame_index: Optional[int] = None

    def seed(self, recognitions: Sequence[Recognition]) -> None:
        """Remember the last known-good pipeline result."""
        self._anchors = list(recognitions)

    def reset(self) -> None:
        """Drop tracking state when the pipeline comes back."""
        self._prev_descriptors = None
        self._prev_keypoints = []

    # ------------------------------------------------------------------
    def _fast_features(self, image: np.ndarray):
        from repro.vision.cache import array_digest

        key = self._fast_fingerprint + (array_digest(image),)
        keypoints, descriptors = self._feature_cache.get_or_compute(
            key, lambda: self._fast_features_uncached(image))
        return list(keypoints), descriptors

    def _fast_features_uncached(self, image: np.ndarray):
        keypoints = detect_fast(image, threshold=self.threshold,
                                max_keypoints=self.max_keypoints)
        descriptors = self._brief.describe(image, keypoints)
        return tuple(keypoints), descriptors

    def estimate_shift(self, image: np.ndarray) -> Tuple[float, float]:
        """Median (dx, dy) of BRIEF matches against the previous frame."""
        keypoints, descriptors = self._fast_features(image)
        shift = (0.0, 0.0)
        if self._prev_descriptors is not None and len(keypoints) > 0:
            matches = match_binary(descriptors, self._prev_descriptors)
            if len(matches) >= 3:
                deltas = np.array([
                    (keypoints[m.query_index].x
                     - self._prev_keypoints[m.reference_index].x,
                     keypoints[m.query_index].y
                     - self._prev_keypoints[m.reference_index].y)
                    for m in matches], dtype=float)
                shift = (float(np.median(deltas[:, 0])),
                         float(np.median(deltas[:, 1])))
        self._prev_descriptors = descriptors
        self._prev_keypoints = keypoints
        return shift

    def track(self, frame_index: int,
              image: np.ndarray) -> List[TrackedObject]:
        """Advance the local augmentation by one degraded frame."""
        if (self._last_frame_index is not None
                and frame_index <= self._last_frame_index):
            # A late-retried frame degraded after a newer one already
            # advanced the tracker: count it, but do not rewind time.
            self.frames_tracked += 1
            return self.tracker.confirmed_tracks()
        self._last_frame_index = frame_index
        dx, dy = self.estimate_shift(image)
        shifted = [
            Recognition(name=a.name,
                        corners=np.asarray(a.corners, dtype=float)
                        + np.array([dx, dy]),
                        num_inliers=a.num_inliers,
                        similarity=a.similarity,
                        mean_error=a.mean_error)
            for a in self._anchors]
        self._anchors = shifted
        self.frames_tracked += 1
        return self.tracker.update(frame_index, shifted)


# ----------------------------------------------------------------------
# Configuration bundle
# ----------------------------------------------------------------------
@dataclass
class ResilienceConfig:
    """Everything the client's resilience layer needs, in one place."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: A frame with no result after this long counts as failed.
    request_timeout_s: float = 0.25
    failure_threshold: int = 5
    recovery_timeout_s: float = 1.0
    half_open_probes: int = 1
    #: Engage local fast-feature tracking while the breaker is open.
    fallback: bool = True
    #: Sim-time cost of one local fallback frame (FAST+BRIEF+track is
    #: roughly an order of magnitude cheaper than the remote pipeline).
    fallback_latency_s: float = 0.012
    #: Optional real video source: when set, degraded frames run the
    #: actual FAST/BRIEF tracker on the replay frames instead of only
    #: charging ``fallback_latency_s``.
    fallback_video: Optional[object] = None

    def __post_init__(self) -> None:
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be positive, got "
                f"{self.request_timeout_s}")

    def build_breaker(self, sim: Simulator) -> CircuitBreaker:
        return CircuitBreaker(
            sim,
            failure_threshold=self.failure_threshold,
            recovery_timeout_s=self.recovery_timeout_s,
            half_open_probes=self.half_open_probes)
