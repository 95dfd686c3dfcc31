"""Per-frame distributed tracing.

Each frame's journey through the pipeline is recorded as a list of
spans — service processing, sidecar queueing, terminal delivery — keyed
by the frame's ``(client_id, frame_number)`` identity.  The tracer
answers the questions the paper's measurements raise: where does the
end-to-end time go, and how does the split between compute, queueing
and network shift with load?

Attach a :class:`Tracer` through the experiment runner
(``ExperimentSpec(..., tracing=True)``) or set the ``tracer``
attribute on individual services.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Span:
    """One timed segment of a frame's journey."""

    name: str          # service or stage name
    kind: str          # "service" | "queue" | "delivery"
    instance: str      # replica address (or client id)
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


@dataclass
class FrameTrace:
    """All spans of one frame, plus its client-side endpoints."""

    key: Tuple[int, int]
    created_s: float
    spans: List[Span] = field(default_factory=list)
    delivered_s: Optional[float] = None

    @property
    def completed(self) -> bool:
        return self.delivered_s is not None

    @property
    def e2e_s(self) -> Optional[float]:
        if self.delivered_s is None:
            return None
        return self.delivered_s - self.created_s

    def total_s(self, kind: str) -> float:
        """Summed duration of spans of one kind."""
        return sum(span.duration_s for span in self.spans
                   if span.kind == kind)

    @property
    def network_s(self) -> Optional[float]:
        """E2E time not accounted to any span: wire time."""
        if self.delivered_s is None:
            return None
        accounted = self.total_s("service") + self.total_s("queue")
        return max(0.0, self.e2e_s - accounted)

    def ordered_spans(self) -> List[Span]:
        return sorted(self.spans, key=lambda span: span.start_s)


class Tracer:
    """Collects frame traces across the whole deployment."""

    def __init__(self):
        self._traces: Dict[Tuple[int, int], FrameTrace] = {}

    def __len__(self) -> int:
        return len(self._traces)

    def _trace_for(self, key: Tuple[int, int],
                   created_s: float) -> FrameTrace:
        trace = self._traces.get(key)
        if trace is None:
            trace = FrameTrace(key=key, created_s=created_s)
            self._traces[key] = trace
        return trace

    def ensure(self, key: Tuple[int, int], created_s: float) -> None:
        """Open a trace for a frame at send time (so frames lost
        before their first span still show up as losses)."""
        self._trace_for(key, created_s)

    def record_span(self, key: Tuple[int, int], created_s: float, *,
                    name: str, kind: str, instance: str,
                    start_s: float, end_s: float) -> None:
        if end_s < start_s:
            raise ValueError(f"span ends before it starts: "
                             f"{start_s} -> {end_s}")
        self._trace_for(key, created_s).spans.append(Span(
            name=name, kind=kind, instance=instance, start_s=start_s,
            end_s=end_s))

    def record_delivery(self, key: Tuple[int, int], created_s: float,
                        delivered_s: float) -> None:
        self._trace_for(key, created_s).delivered_s = delivered_s

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def trace(self, key: Tuple[int, int]) -> Optional[FrameTrace]:
        return self._traces.get(key)

    def completed_traces(self) -> List[FrameTrace]:
        return [trace for trace in self._traces.values()
                if trace.completed]

    def incomplete_traces(self) -> List[FrameTrace]:
        """Frames that never made it back: where did they die?"""
        return [trace for trace in self._traces.values()
                if not trace.completed]

    def last_stage_reached(self, trace: FrameTrace) -> Optional[str]:
        """The final span a (lost) frame recorded."""
        spans = trace.ordered_spans()
        return spans[-1].name if spans else None

    def loss_by_stage(self) -> Dict[str, int]:
        """Lost-frame counts keyed by the last stage they reached."""
        counts: Dict[str, int] = {}
        for trace in self.incomplete_traces():
            stage = self.last_stage_reached(trace) or "(ingress)"
            counts[stage] = counts.get(stage, 0) + 1
        return counts

    def mean_breakdown_ms(self) -> Dict[str, float]:
        """Mean per-completed-frame milliseconds by component.

        Keys: each service name, plus ``queue`` (summed sidecar
        queueing) and ``network`` (unaccounted wire time).
        """
        completed = self.completed_traces()
        if not completed:
            return {}
        services: Dict[str, List[float]] = {}
        queues: List[float] = []
        networks: List[float] = []
        for trace in completed:
            per_service: Dict[str, float] = {}
            for span in trace.spans:
                if span.kind == "service":
                    per_service[span.name] = (
                        per_service.get(span.name, 0.0)
                        + span.duration_s)
            for name, value in per_service.items():
                services.setdefault(name, []).append(value)
            queues.append(trace.total_s("queue"))
            networks.append(trace.network_s)
        breakdown = {name: 1000.0 * float(np.mean(values))
                     for name, values in services.items()}
        breakdown["queue"] = 1000.0 * float(np.mean(queues))
        breakdown["network"] = 1000.0 * float(np.mean(networks))
        return breakdown
