"""The hybrid macro/micro cohort engine.

One :class:`CohortEngine` rides alongside the tracer clients of a
scAtteR++ run and models the remaining ``size - tracers`` clients as a
fluid population:

* every ``tick_s`` of virtual time the :class:`~repro.cohort.
  population.LoadProcess` emits the frames the macro membership
  offered (integer frames; the fractional remainder carries to the
  next tick, so the ledger stays exact);
* offered frames pass the *same flow machinery* microscopic frames
  do, in aggregate form — the primary sidecars' **live advertised
  credits** (folded into a :class:`~repro.flow.credits.CreditLedger`
  and spent with ``take_many``), an aggregate client-pacing
  :class:`~repro.flow.credits.TokenBucket`, and an aggregate admission
  bucket scaled to the membership, at the constants of
  :mod:`repro.flow.config`;
* admitted frames enter a virtual FIFO whose drain rate is the
  pipeline's analytic bottleneck capacity
  (:func:`~repro.orchestra.placement.pipeline_capacity`: device-scaled
  replica times, batching and hand-off amortized over
  :data:`~repro.flow.config.BATCH_MAX`, GPU sharing between co-located
  replicas),
  **minus the capacity the tracer clients are observably consuming**
  (measured from the live sidecars' dispatch counters each tick, so
  macro and micro load contend for the same modeled hardware);
* served frames record an analytic latency (pipeline base time plus
  virtual queueing delay) into mergeable
  :class:`~repro.metrics.sketch.PercentileSketch` es by weighted
  insert — one O(1) update per tick regardless of population size;
* frames that would out-wait the staleness threshold drop from the
  virtual queue, mirroring the sidecar's 100 ms XR-budget filter.

Determinism contract: with ``macro_members == 0`` the engine spawns
**no** simulation process and draws **no** RNG, so an all-tracer
cohort run is bit-identical to the plain microscopic run — the
equivalence witness ``tests/test_cohort_equivalence.py`` pins.  With
macro members the engine adds exactly one tick process whose
trajectory is fully determined by the seed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cohort.population import CohortSpec
from repro.cohort.report import CohortLedger, CohortReport
from repro.flow.config import (ADMISSION_BURST, ADMISSION_RATE_FPS,
                               CLIENT_BURST, CLIENT_RATE_FPS, CREDIT_TTL_S)
from repro.flow.credits import (CreditAdvertisement, CreditLedger,
                                TokenBucket)
from repro.metrics.sketch import PercentileSketch
from repro.orchestra.placement import pipeline_capacity
from repro.sim.kernel import Simulator


class CohortEngine:
    """Drives one cohort's macro membership through the flow substrate."""

    #: Synthetic instance label for the engine's credit view entries.
    CREDIT_VIEW = "cohort-view"

    def __init__(self, sim: Simulator, spec: CohortSpec, pipeline, *,
                 flow: bool = False,
                 threshold_s: float = 0.100,
                 rng: Optional[np.random.Generator] = None):
        if threshold_s <= 0:
            raise ValueError(
                f"threshold_s must be positive, got {threshold_s}")
        self.sim = sim
        self.spec = spec
        self.pipeline = pipeline
        self.threshold_s = threshold_s
        self.rng = rng
        self.load = spec.build_load()
        if self.load.uses_rng and rng is None and spec.macro_members:
            raise ValueError(
                f"load process {spec.load!r} needs an RNG stream")
        self.ledger = CohortLedger()
        self.latency = PercentileSketch()
        self.queue_wait = PercentileSketch()
        self.capacity = pipeline_capacity(pipeline, flow=flow)
        members = spec.macro_members
        self.pacer: Optional[TokenBucket] = None
        self.admission: Optional[TokenBucket] = None
        self.credits: Optional[CreditLedger] = None
        if flow and members > 0:
            self.pacer = TokenBucket(CLIENT_RATE_FPS * members,
                                     CLIENT_BURST * members)
            self.credits = CreditLedger("primary", ttl_s=CREDIT_TTL_S)
            self.admission = TokenBucket(ADMISSION_RATE_FPS * members,
                                         ADMISSION_BURST * members)
        #: Virtual FIFO backlog (whole frames).
        self.backlog = 0
        self._offer_carry = 0.0
        self._serve_carry = 0.0
        self._credit_seq = 0
        self._started = False
        self._horizon_s = 0.0
        #: Primary sidecars (live credit signal + tracer-load probes).
        self._primary_sidecars = [
            instance.sidecar
            for instance in pipeline.instances("primary")
            if hasattr(instance, "sidecar")]
        #: Bottleneck-service instances, for measuring the capacity
        #: the tracers are actually consuming.
        self._bottleneck_instances = list(
            pipeline.instances(self.capacity.bottleneck_service))
        self._last_tracer_dispatched = self._tracer_dispatched()

    # ------------------------------------------------------------------
    def _tracer_dispatched(self) -> int:
        """Frames the micro layer pushed through the bottleneck so far."""
        total = 0
        for instance in self._bottleneck_instances:
            sidecar = getattr(instance, "sidecar", None)
            if sidecar is not None:
                total += sidecar.stats.dispatched
            else:
                total += instance.stats.processed
        return total

    def start(self, duration_s: float) -> None:
        """Begin macro ticking for ``duration_s`` virtual seconds.

        A no-op when the cohort has no macro members: zero events,
        zero RNG draws — the all-tracer equivalence contract.
        """
        if duration_s <= 0:
            raise ValueError(
                f"duration_s must be positive, got {duration_s}")
        if self._started:
            raise RuntimeError("cohort engine already started")
        self._started = True
        self._horizon_s = self.sim.now + duration_s
        if self.spec.macro_members == 0:
            return
        # Pre-schedule the whole tick train instead of spawning a
        # generator process: one kernel event per tick instead of
        # three (expire + wake + resume) — the cohort engine is the
        # hottest periodic producer in a city-scale cell.  Fire times
        # follow the ``w += tick`` float recurrence; ``run_experiment``
        # starts the engine at ``now == 0.0``, where
        # ``now + (when - now)`` is ``when`` bit for bit (the cohort
        # goldens pin this).
        sim = self.sim
        tick = self.spec.tick_s
        horizon = self._horizon_s + 1e-12
        now = sim.now
        when = now
        while when + tick <= horizon:
            when = when + tick
            sim.schedule(when - now, self._tick, tick)

    # ------------------------------------------------------------------
    def _tick(self, tick_s: float) -> None:
        now = self.sim.now
        ledger = self.ledger

        # 1. What did the membership offer this tick?  Integer frames;
        #    the fractional remainder carries (the ledger is exact).
        offered_f = self.load.offered_frames(
            now=now, tick_s=tick_s, members=self.spec.macro_members,
            fps=self.spec.member_fps, rng=self.rng) + self._offer_carry
        offered = int(offered_f)
        self._offer_carry = offered_f - offered
        ledger.offered += offered
        remaining = offered

        # 2. Credit backpressure: fold the primary sidecars' *live*
        #    advertised credits into the ledger view, then spend.
        #    Mirrors ArClient._pace (credits first, then the bucket).
        if self.credits is not None:
            self._refresh_credit_view(now)
            granted = self.credits.take_many(now, remaining)
            ledger.shed_credits += remaining - granted
            remaining = granted

        # 3. Aggregate send pacing.
        if self.pacer is not None:
            granted = self.pacer.take_many(now, remaining)
            ledger.paced += remaining - granted
            remaining = granted

        # 4. Aggregate admission control (the sidecar-side gate).
        if self.admission is not None:
            granted = self.admission.take_many(now, remaining)
            ledger.rejected += remaining - granted
            remaining = granted

        self.backlog += remaining

        # 5. Fluid service: the bottleneck's rate, minus whatever the
        #    tracer clients measurably consumed this tick.
        tracer_now = self._tracer_dispatched()
        tracer_fps = (tracer_now - self._last_tracer_dispatched) / tick_s
        self._last_tracer_dispatched = tracer_now
        capacity_fps = max(0.0,
                           self.capacity.bottleneck_fps - tracer_fps)
        backlog_before = self.backlog
        budget_f = capacity_fps * tick_s + self._serve_carry
        budget = int(budget_f)
        served = min(self.backlog, budget)
        # Idle capacity does not bank: the carry only persists while
        # the queue is actually draining at full rate.
        self._serve_carry = (budget_f - budget
                             if served == budget else 0.0)
        self.backlog -= served
        ledger.served += served
        if served > 0:
            wait_s = (min(self.threshold_s,
                          backlog_before / capacity_fps)
                      if capacity_fps > 0 else 0.0)
            self.queue_wait.insert(wait_s, served)
            self.latency.insert(
                self.capacity.base_latency_s + wait_s, served)

        # 6. Staleness: backlog beyond what the pipeline can clear
        #    within the threshold will out-wait the XR budget.
        max_backlog = int(capacity_fps * self.threshold_s)
        if self.backlog > max_backlog:
            dropped = self.backlog - max_backlog
            ledger.dropped_stale += dropped
            self.backlog = max_backlog

        ledger.pending = self.backlog

    def _refresh_credit_view(self, now: float) -> None:
        """Synthesize advertisements from the live sidecars' credits.

        The micro layer receives these over the network; the macro
        layer reads the same :meth:`Sidecar.credits` headroom
        directly (zero events), one monotone sequence per instance.
        """
        assert self.credits is not None
        self._credit_seq += 1
        for index, sidecar in enumerate(self._primary_sidecars):
            self.credits.update(CreditAdvertisement(
                service="primary",
                instance=f"{self.CREDIT_VIEW}-{index}",
                credits=sidecar.credits(),
                seq=self._credit_seq, sent_s=now), now)

    # ------------------------------------------------------------------
    def report(self, *, duration_s: float,
               tracer_mean_fps: float) -> CohortReport:
        return CohortReport(
            spec=self.spec.as_dict(),
            ledger=self.ledger,
            duration_s=duration_s,
            bottleneck_service=self.capacity.bottleneck_service,
            bottleneck_capacity_fps=self.capacity.bottleneck_fps,
            tracer_mean_fps=tracer_mean_fps,
            latency=self.latency,
            queue_wait=self.queue_wait)
