"""Spans, counters and per-package self time for the traced run.

Everything here observes the program from the outside: :func:`install`
wraps public functions and methods of ``repro`` in place (and
:meth:`Recorder.uninstall` puts them back), so nothing under ``src/``
changes.  A wrapper records a span — name, start, end, parent — and,
where the program already returns a count (the flow summary, the
cohort ledger, the mobility report, ``wheel_stats()``), folds it into a
counter.

Worker processes are forked after the wrappers are installed, so they
inherit them.  A worker keeps its own spans and counters, profiles each
``run_cell_task`` with :mod:`cProfile`, and rewrites
``spans-<pid>.jsonl`` / ``counters-<pid>.json`` / ``prof-<pid>.pstats``
in the trace directory whenever its outermost span closes;
:meth:`Recorder.merge_workers` folds them back in the parent.

Per-package self time comes from a :mod:`cProfile` profile: functions
under ``repro/<package>/`` keep their own time; time in code outside
``repro`` (NumPy, the standard library, C builtins) is charged to the
``repro`` callers that led to it, split by the profile's per-caller
times; lock waits are kept apart as ``wait``.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import gc
import json
import os
import pathlib
import pstats
import time
from collections import defaultdict
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

Func = Tuple[str, int, str]


class Recorder:
    """Spans and counters of one process (and, merged, its workers)."""

    def __init__(self, directory: pathlib.Path):
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.root_pid = os.getpid()
        self._pid = self.root_pid
        self.spans: List[Dict] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[Tuple[str, Optional[str], str, int]] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []
        self._profile: Optional[cProfile.Profile] = None
        self._gc_started: Optional[int] = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _own_process(self) -> None:
        """Forget state inherited through fork on first use in a worker."""
        pid = os.getpid()
        if pid != self._pid:
            self._pid = pid
            self.spans = []
            self.counters = defaultdict(float)
            self._stack = []
            self._profile = cProfile.Profile()
            self._gc_started = None

    def open(self, name: str) -> None:
        self._own_process()
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        if not self._stack and self._profile is not None:
            self._profile.enable()
        self._stack.append((f"{self._pid}.{self._next_id}", parent, name,
                            time.perf_counter_ns()))

    def close(self) -> None:
        end = time.perf_counter_ns()
        span_id, parent, name, start = self._stack.pop()
        self.spans.append({"id": span_id, "parent": parent, "name": name,
                           "start": start, "end": end, "pid": self._pid})
        if not self._stack and self._pid != self.root_pid:
            self._profile.disable()
            self._flush_worker()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def count(self, name: str, value: float = 1) -> None:
        self._own_process()
        self.counters[name] += value

    def _flush_worker(self) -> None:
        pid = self._pid
        with open(self.directory / f"spans-{pid}.jsonl", "a") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
        self.spans = []
        (self.directory / f"counters-{pid}.json").write_text(
            json.dumps(self.counters))
        self._profile.dump_stats(str(self.directory / f"prof-{pid}.pstats"))

    def merge_workers(self) -> Dict[str, Dict]:
        """Fold worker spans and counters in; return worker profile stats."""
        for path in sorted(self.directory.glob("spans-*.jsonl")):
            with open(path) as lines:
                self.spans.extend(json.loads(line) for line in lines)
        for path in sorted(self.directory.glob("counters-*.json")):
            for name, value in json.loads(path.read_text()).items():
                self.counters[name] += value
        files = sorted(str(p) for p in self.directory.glob("prof-*.pstats"))
        return pstats.Stats(*files).stats if files else {}

    # ------------------------------------------------------------------
    # Garbage-collector pauses
    # ------------------------------------------------------------------
    def _on_gc(self, phase: str, info: Dict) -> None:
        self._own_process()
        if phase == "start":
            self._gc_started = time.perf_counter_ns()
        elif self._gc_started is not None:
            self.counters["gc.pause_s"] += \
                (time.perf_counter_ns() - self._gc_started) / 1e9
            self._gc_started = None

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             after: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(args, result)`` runs once the call returned, outside
        the span, to harvest counts from the result.
        """
        original = _get(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            recorder.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.close()
            if after is not None:
                after(args, result)
            return result

        self._patches.append((owner, attr, original))
        _set(owner, attr, wrapper)

    def tally(self, owner, attr: str, counter: str) -> None:
        """Replace ``owner.attr`` with a call-counting wrapper (no span)."""
        original = _get(owner, attr)
        counters = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counters.counters[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        _set(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            _set(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)


def _get(owner, attr: str):
    """The attribute itself: a dict item, a class's own function, or a
    module global."""
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def install(recorder: Recorder) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from repro.experiments import cache, campaign, parallel, store
    from repro.net.rpc import RpcChannel
    from repro.net.topology import Network
    from repro.orchestra.optimize import CampaignOracle
    from repro.sim.kernel import Simulator
    from repro.vision.recognizer import ObjectRecognizer

    recorder.wrap(parallel, "run_cell_task", "run_cell_task")
    for pipeline in list(campaign.RUNNERS):
        recorder.wrap(campaign.RUNNERS, pipeline, "runner",
                      after=lambda args, result: _harvest(recorder, result))
    recorder.wrap(store, "summarize_result", "summarize_result")
    # campaign.py binds run_tasks at import, so both names are wrapped.
    for module in (parallel, campaign):
        recorder.wrap(module, "run_tasks", "run_tasks",
                      after=lambda args, result: recorder.count(
                          "parallel.tasks", len(result)))
    recorder.wrap(cache.CampaignCellCache, "get", "cache.get")
    recorder.wrap(cache.CampaignCellCache, "put", "cache.put")
    recorder.wrap(cache, "code_fingerprint", "code_fingerprint")
    recorder.wrap(CampaignOracle, "evaluate", "oracle.evaluate")
    _wrap_simulator_run(recorder, Simulator)
    recorder.tally(Network, "send", "net.datagrams")
    recorder.tally(RpcChannel, "call", "net.rpc_calls")
    for method in ("preprocess", "extract", "encode",
                   "nearest_neighbours", "match_and_pose"):
        recorder.wrap(ObjectRecognizer, method, f"recognizer.{method}")
    gc.callbacks.append(recorder._on_gc)


def _wrap_simulator_run(recorder: Recorder, simulator: type) -> None:
    original = simulator.__dict__["run"]

    @functools.wraps(original)
    def run(sim, until=None):
        events = sim.digest.events if sim.digest is not None else 0
        resizes = sim.wheel_stats().get("resizes", 0)
        recorder.open("sim.run")
        try:
            return original(sim, until)
        finally:
            recorder.close()
            if sim.digest is not None:
                recorder.count("sim.events", sim.digest.events - events)
            recorder.count("sim.wheel_resizes",
                           sim.wheel_stats().get("resizes", 0) - resizes)

    recorder._patches.append((simulator, "run", original))
    simulator.run = run


def _harvest(recorder: Recorder, result) -> None:
    """Counts the runners already return: flow, cohort, mobility."""
    if isinstance(result, dict):
        return
    flow = result.flow
    if flow:
        services = flow["services"]
        first = services["primary"]
        recorder.count("flow.offered", first["enqueued"] + first["rejected"]
                       + first["dropped_overflow"] + first["detach_refused"])
        recorder.count("flow.served", services["matching"]["dispatched"])
    if result.cohort:
        spec = result.cohort["spec"]
        recorder.count("cohort.ticks",
                       round(result.cohort["duration_s"] / spec["tick_s"]))
    if result.mobility:
        recorder.count("mobility.handovers",
                       len(result.mobility["handovers"]))


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def total_s(spans: Iterable[Dict], name: str) -> float:
    return sum(s["end"] - s["start"] for s in spans
               if s["name"] == name) / 1e9


def runner_phases(spans: List[Dict]) -> Dict[str, float]:
    """Split runner time into build / ``Simulator.run`` / assemble.

    build is runner entry to the first ``Simulator.run``; run is the
    time inside ``Simulator.run``; assemble is the rest of the runner
    after the last run plus ``summarize_result``.
    """
    runs: Dict[str, List[Dict]] = defaultdict(list)
    for span in spans:
        if span["name"] == "sim.run" and span["parent"] is not None:
            runs[span["parent"]].append(span)
    build = run = assemble = 0
    for span in spans:
        if span["name"] != "runner":
            continue
        inner = sorted(runs.get(span["id"], []), key=lambda s: s["start"])
        if not inner:
            assemble += span["end"] - span["start"]
            continue
        build += inner[0]["start"] - span["start"]
        run += sum(s["end"] - s["start"] for s in inner)
        assemble += span["end"] - inner[-1]["end"]
    assemble += sum(s["end"] - s["start"] for s in spans
                    if s["name"] == "summarize_result")
    return {"runner.build_s": build / 1e9, "runner.run_s": run / 1e9,
            "runner.assemble_s": assemble / 1e9}


# ----------------------------------------------------------------------
# Per-package self time
# ----------------------------------------------------------------------
def _is_wait(func: Func) -> bool:
    filename, __, name = func
    return filename == "~" and ("acquire" in name or "poll" in name
                                or "select" in name)


def package_self_times(stats: Dict, repro_dir: pathlib.Path
                       ) -> Dict[str, float]:
    """Seconds of self time per ``repro`` package (plus wait/other).

    ``stats`` is a :attr:`pstats.Stats.stats` mapping.  Time spent in a
    function outside ``repro`` goes to its callers in proportion to the
    time each caller spent in it, walking up the profile's caller graph
    until a ``repro`` function owns it; what no ``repro`` function
    reaches is ``other``.
    """
    prefix = str(repro_dir) + os.sep

    def owner(func: Func) -> Optional[str]:
        if _is_wait(func):
            return "wait"
        if func[0].startswith(prefix):
            head = func[0][len(prefix):].split(os.sep, 1)
            return head[0] if len(head) == 2 else "repro"
        return None

    memo: Dict[Func, Dict[str, float]] = {}

    def split(func: Func, weight_index: int,
              visiting: set) -> Dict[str, float]:
        callers = stats[func][4] if func in stats else {}
        weights = {c: v[weight_index] for c, v in callers.items()
                   if c not in visiting}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: v[1] for c, v in callers.items()
                       if c not in visiting}
            total = sum(weights.values())
        if total <= 0:
            return {"other": 1.0}
        out: Dict[str, float] = defaultdict(float)
        for caller, weight in weights.items():
            for package, share in cumulative(caller, visiting).items():
                out[package] += share * weight / total
        return out

    def cumulative(func: Func, visiting: set) -> Dict[str, float]:
        package = owner(func)
        if package is not None:
            return {package: 1.0}
        if func in memo:
            return memo[func]
        visiting.add(func)
        shares = split(func, 3, visiting)
        visiting.discard(func)
        memo[func] = shares
        return shares

    totals: Dict[str, float] = defaultdict(float)
    for func, (__, __, tottime, __, __) in stats.items():
        package = owner(func)
        if package is not None:
            totals[package] += tottime
            continue
        for package, share in split(func, 2, {func}).items():
            totals[package] += tottime * share
    return dict(totals)
