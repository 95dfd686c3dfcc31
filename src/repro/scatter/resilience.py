"""Client-side resilience: retries, circuit breaking, degradation.

The edge pipeline can fail the client in three ways — a replica
crashes (silence), the network partitions (silence), or a replica
grays out (answers, but too late).  The server side heals the first
through the heartbeat detector, but the client still experiences the
detection window; the third the detector never sees at all.  This
module gives the client the standard three-layer answer, at one fixed
setting:

* **retry** — a frame with no result after :data:`REQUEST_TIMEOUT_S`
  is resent with exponential backoff and jitter, up to
  :data:`MAX_ATTEMPTS` attempts;
* :class:`CircuitBreaker` — classic closed/open/half-open breaker over
  consecutive request failures: once the pipeline looks down, stop
  wasting uplink on it and fail fast;
* **degradation** — while the breaker is open, a frame is answered
  locally after :data:`FALLBACK_LATENCY_S` of virtual time, the cost
  of cheap on-device tracking.  No vision runs in a simulation.

:class:`~repro.scatter.client.ArClient` wires the layers into its
send path.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

from repro.sim.kernel import Simulator

#: A frame with no result after this long counts as failed.
REQUEST_TIMEOUT_S = 0.25
#: Sends per frame, the original included.
MAX_ATTEMPTS = 3
#: Retry ``k`` (>= 1) waits ``RETRY_BASE_DELAY_S * RETRY_MULTIPLIER **
#: (k - 1)``, capped at ``RETRY_MAX_DELAY_S``, with a uniform
#: ±``RETRY_JITTER`` fraction on top so synchronized clients do not
#: retry in lockstep.
RETRY_BASE_DELAY_S = 0.05
RETRY_MULTIPLIER = 2.0
RETRY_MAX_DELAY_S = 1.0
RETRY_JITTER = 0.5
#: Consecutive failures that trip the breaker.
FAILURE_THRESHOLD = 5
#: How long a tripped breaker refuses requests before probing.
RECOVERY_TIMEOUT_S = 1.0
#: Trial requests a half-open breaker lets through.
HALF_OPEN_PROBES = 1
#: Virtual-time cost of one locally answered frame (FAST+BRIEF+track
#: is roughly an order of magnitude cheaper than the remote pipeline).
FALLBACK_LATENCY_S = 0.012


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class CircuitBreaker:
    """Per-client breaker over consecutive request failures.

    * **CLOSED** — requests flow; :data:`FAILURE_THRESHOLD` consecutive
      failures trip the breaker.
    * **OPEN** — requests are refused locally (fail fast) until
      :data:`RECOVERY_TIMEOUT_S` has passed.
    * **HALF_OPEN** — up to :data:`HALF_OPEN_PROBES` trial requests are
      let through; one success closes the breaker, one failure re-opens
      it (and restarts the recovery clock).

    Every transition is logged to :attr:`timeline` for the resilience
    report's breaker-state timeline.
    """

    def __init__(self, sim: Simulator):
        self.sim = sim
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
            if self.sim.now - self.opened_at_s >= RECOVERY_TIMEOUT_S:
                self._transition(BreakerState.HALF_OPEN)
                self._probes_in_flight = 0
            else:
                return False
        if self.state is BreakerState.HALF_OPEN:
            if self._probes_in_flight >= HALF_OPEN_PROBES:
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
                and self.consecutive_failures >= FAILURE_THRESHOLD):
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
