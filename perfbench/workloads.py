"""The three workloads: ``cells``, ``search`` and ``vision``.

Each workload derives its inputs from the seed alone, sets itself up
(repeatably, so set-up time can be reported as a median), runs timed
passes, and checks every output it produces.  The timed loops call only
public ``repro`` functions; nothing here changes the program.
"""

from __future__ import annotations

import functools
import os
import pathlib
import random
import resource
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import checks, tracing
from perfbench.hostspeed import POOL_PROBE_REFERENCE_MS, HostSpeed

Span = Tuple[float, float]


@dataclass
class Outcome:
    """What the timed part of one workload run measured and checked."""

    #: (start, end) host times of every timed operation ...
    op_spans: List[Span] = field(default_factory=list)
    #: ... and of the parts of each timed pass.
    pass_spans: List[List[Span]] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Headline metric name -> value (units in ``spec.NAMED_METRICS``).
    named: Dict[str, float] = field(default_factory=dict)
    #: Extra report lines: digests, sample counts.
    notes: List[str] = field(default_factory=list)

    @property
    def op_ms(self) -> List[float]:
        """Raw host time of every timed operation, in ms."""
        return [(end - start) * 1000.0 for start, end in self.op_spans]

    @property
    def pass_s(self) -> List[float]:
        """Raw host time of every timed pass, in s."""
        return [sum(end - start for start, end in spans)
                for spans in self.pass_spans]

    def check(self, ok: bool, failure: str) -> None:
        """Count one correctness check, recording it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(failure)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def repeat(step, seconds: float, enough=lambda: True) -> List[float]:
    """Call ``step`` until ``enough()`` holds and another call would
    likely end more than half a call past ``seconds`` (judged by the
    last call); return each call's result."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - began) / 2 > seconds and enough():
            return results


class Workload:
    """Set-up, timed passes and checks shared by every workload."""

    #: Fewest operations a run measures, whatever ``--seconds`` says,
    #: so the p90 has ten samples beyond it.
    min_ops = 100

    def __init__(self, seed: int, workdir: pathlib.Path):
        self.seed = seed
        self.workdir = workdir
        self.outcome = Outcome()
        #: Probes host speed between timed operations (untraced runs).
        self.host: Optional[HostSpeed] = None

    def timed(self, call):
        """Run ``call`` as one timed operation; return (result, span)."""
        if self.host is not None:
            self.host.between_ops()
        start = time.perf_counter()
        result = call()
        span = (start, time.perf_counter())
        self.outcome.op_spans.append(span)
        return result, span

    def setup(self) -> None:
        """One repetition of the untimed set-up (idempotent)."""

    def run_pass(self) -> float:
        """One timed pass; records its spans, returns its host time."""
        raise NotImplementedError

    def pass_host(self) -> HostSpeed:
        """The probes that scale the passes' spans."""
        return self.host

    def measure(self, seconds: float) -> None:
        """Timed passes for ``seconds`` (at least one pass and at least
        :attr:`min_ops` operations)."""
        repeat(self.run_pass, seconds,
               lambda: len(self.outcome.op_spans) >= self.min_ops)

    def prepare_trace(self) -> None:
        """Runs once the wrappers are installed, before profiling."""

    def traced_pass(self, recorder: tracing.Recorder) -> float:
        """The pass the traced run profiles; returns the wall time of
        the part comparable to an untraced :meth:`run_pass`."""
        return self.run_pass()

    def layer_metrics(self, recorder: tracing.Recorder) -> Dict[str, float]:
        """Workload-specific per-layer metrics of the traced pass."""
        return {}

    def finish(self) -> None:
        """Untimed checks and clean-up after the timed region."""

    def summarize(self, metrics: Dict[str, float]) -> None:
        """Fill :attr:`Outcome.named` from the end-to-end metrics."""


# ----------------------------------------------------------------------
# cells
# ----------------------------------------------------------------------
#: One cell of every pipeline in ``RUNNERS``: (pipeline, placement,
#: clients).
CELL_LIST = (("scatter", "C12", 4), ("scatterpp", "C2", 3),
             ("scatterpp-flow", "C1", 3), ("mobility", "C1", 3),
             ("cohort", "C1", 2), ("optimize", "C21", 2))
CELL_DURATION_S = 30.0
WARMUP_CELL = ("scatterpp", "C1", 1)
WARMUP_DURATION_S = 2.0


class FrameCounter:
    """Counts simulated client frames sent by every runner call."""

    def __init__(self):
        from repro.experiments.campaign import RUNNERS

        self.frames = 0
        self._runners = RUNNERS
        self._originals = dict(RUNNERS)
        for pipeline, runner in self._originals.items():
            RUNNERS[pipeline] = self._counting(runner)

    def _counting(self, runner):
        def counted(*args, **kwargs):
            result = runner(*args, **kwargs)
            if not isinstance(result, dict):
                self.frames += sum(c.frames_sent for c in result.clients)
            return result

        return counted

    def close(self) -> None:
        self._runners.update(self._originals)


class Cells(Workload):
    """One cell per pipeline, serially, in-process."""

    min_ops = 1

    def __init__(self, seed: int, workdir: pathlib.Path,
                 cells=CELL_LIST, duration_s: float = CELL_DURATION_S):
        super().__init__(seed, workdir)
        from repro.experiments.parallel import CellTask

        self.tasks = [CellTask(pipeline, placement, clients, seed,
                               duration_s)
                      for pipeline, placement, clients in cells]
        self.warmup = CellTask(*WARMUP_CELL, seed, WARMUP_DURATION_S)
        self.counter = FrameCounter()
        self.frames_per_pass: Optional[int] = None
        self.reference: Optional[List[Optional[str]]] = None

    def setup(self) -> None:
        from repro.experiments.parallel import run_cell_task

        run_cell_task(self.warmup)

    def run_pass(self) -> float:
        from repro.experiments import parallel

        def cell(task):
            try:
                return parallel.run_cell_task(task)
            except Exception as exc:  # a raising cell is a failed op
                return exc

        summaries, spans = [], []
        frames = self.counter.frames
        for task in self.tasks:
            summary, span = self.timed(functools.partial(cell, task))
            summaries.append(summary)
            spans.append(span)
        self.outcome.pass_spans.append(spans)
        self._check(summaries, self.counter.frames - frames)
        return sum(end - start for start, end in spans)

    def _check(self, summaries, frames: int) -> None:
        digests = []
        for task, summary in zip(self.tasks, summaries):
            ok = isinstance(summary, dict) and bool(
                summary.get("trace_digest"))
            self.outcome.check(ok, f"cell {task}: {summary!r:.200}")
            digests.append(checks.summary_digest(summary) if ok else None)
        if self.reference is None:
            self.reference = digests
            self.frames_per_pass = frames
        for task, first, again in zip(self.tasks, self.reference, digests):
            self.outcome.check(
                first == again,
                f"cell {task}: summary digest {again} differs from the "
                f"first pass ({first})")
        self.outcome.check(frames == self.frames_per_pass and frames > 0,
                           f"cells sent {frames} frames, first pass "
                           f"{self.frames_per_pass}")

    def summarize(self, metrics: Dict[str, float]) -> None:
        wall = metrics["pass_s"]
        self.outcome.named["cells_wall_s"] = wall
        self.outcome.named["sim_frames_per_host_s"] = \
            self.frames_per_pass / wall
        self.outcome.notes.append(
            "cells digest " + checks.combined_digest(
                str(d) for d in self.reference))
        for task, cell_digest in zip(self.tasks, self.reference):
            self.outcome.notes.append(f"  {task}: {cell_digest}")
        self.outcome.notes.append(
            f"cells: {len(self.outcome.pass_s)} passes x "
            f"{len(self.tasks)} cells, {self.frames_per_pass} simulated "
            "frames per pass")

    def finish(self) -> None:
        self.counter.close()


# ----------------------------------------------------------------------
# search
# ----------------------------------------------------------------------
SEARCH_POPULATION = 6
SEARCH_GENERATIONS = 12
#: Distinct genomes per search (7 statics, the rest bred).  The budget,
#: not the generation cap, ends the search, so every seed evaluates the
#: same number of genomes whatever path the GA takes.
SEARCH_BUDGET = 16
SEARCH_LADDER = (1, 2, 3, 4)
SEARCH_CELL_S = 3.0
#: Share of ``--seconds`` spent on cold searches; reruns fill the rest.
COLD_SHARE = 0.7
TRACED_RERUNS = 20
#: Rounds of pool probes before and after each cold search.
POOL_PROBES = 3


def start_pool(workers: int) -> float:
    """(Re)start the shared worker pool with every worker running;
    returns the seconds it took."""
    from concurrent.futures import wait

    from repro.experiments.parallel import shutdown_pool, warm_pool

    shutdown_pool()
    start = time.perf_counter()
    pool = warm_pool(workers)
    wait([pool.submit(os.getpid) for __ in range(2 * workers)])
    return time.perf_counter() - start


class Search(Workload):
    """Cold ``run_search`` on the pool, then warm same-seed reruns."""

    def __init__(self, seed: int, workdir: pathlib.Path, workers: int,
                 population: int = SEARCH_POPULATION,
                 generations: int = SEARCH_GENERATIONS,
                 budget: int = SEARCH_BUDGET,
                 ladder=SEARCH_LADDER, cell_s: float = SEARCH_CELL_S):
        super().__init__(seed, workdir)
        from repro.orchestra.optimize import OptimizeConfig

        self.workers = workers
        self.config = OptimizeConfig(
            name="perfbench", seed=seed, population=population,
            generations=generations, budget=budget, ladder=tuple(ladder),
            duration_s=cell_s, oracle_seed=seed, workers=workers)
        self.cache_dir: Optional[pathlib.Path] = None
        self.front: Optional[str] = None
        self.cells = 0
        self.evaluations = 0
        self.pool_start_s = 0.0
        self.reports: List[Dict] = []
        #: Probes run on the worker pool: a cold search runs there, on
        #: every core, while the parent's probes measure one.
        self.pool_host: Optional[HostSpeed] = None

    def setup(self) -> None:
        self.pool_start_s = start_pool(self.workers)

    def _fresh_cache(self):
        from repro.experiments.cache import CampaignCellCache

        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = pathlib.Path(
            tempfile.mkdtemp(prefix="cells-", dir=self.workdir))
        return CampaignCellCache(self.cache_dir)

    def _search(self, cache):
        from repro.orchestra.optimize import run_search

        try:
            return run_search(self.config, cache=cache)
        except Exception as exc:  # a failed search is a failed op
            self.outcome.check(False, f"run_search raised "
                                      f"{type(exc).__name__}: {exc}")
            return None

    def run_pass(self) -> float:
        """One cold search on an empty cell cache."""
        cache = self._fresh_cache()
        self._probe_pool()
        start = time.perf_counter()
        report = self._search(cache)
        end = time.perf_counter()
        self._probe_pool()
        self.outcome.pass_spans.append([(start, end)])
        if report is not None:
            self.reports.append(report.cache)
            cells = len(report.oracle_calls)
            self.outcome.check(
                report.cache["misses"] == report.cache["stored"] == cells
                and cells > 0,
                f"cold search: cache {report.cache}, {cells} cells")
            self.evaluations = report.evaluations
            front = report.front_digest()
            if self.front is None:
                self.front, self.cells = front, cells
            self.outcome.check(front == self.front and cells == self.cells,
                               f"cold search front {front} / {cells} cells "
                               f"differs from the first ({self.front} / "
                               f"{self.cells})")
        return end - start

    def _probe_pool(self) -> None:
        if self.host is None:
            return
        from repro.experiments.parallel import warm_pool

        if self.pool_host is None:
            self.pool_host = HostSpeed(POOL_PROBE_REFERENCE_MS)
        for __ in range(POOL_PROBES):
            self.pool_host.probe_pool(warm_pool(self.workers), self.workers)

    def pass_host(self) -> HostSpeed:
        return self.pool_host

    def rerun(self) -> None:
        """One same-seed search replayed from the warm cache."""
        from repro.experiments.cache import CampaignCellCache

        cache = CampaignCellCache(self.cache_dir)
        report, __ = self.timed(functools.partial(self._search, cache))
        if report is None:
            return
        self.reports.append(report.cache)
        self.outcome.check(
            report.front_digest() == self.front
            and report.cache["hits"] == self.cells
            and report.cache["misses"] == 0,
            f"warm rerun: front {report.front_digest()} (cold "
            f"{self.front}), cache {report.cache}")

    def measure(self, seconds: float) -> None:
        # Each cold search is followed by its share of reruns, so both
        # kinds of operation sample the whole run, not one end of it.
        def cold_then_reruns() -> float:
            wall = self.run_pass()
            repeat(self.rerun, wall * (1 - COLD_SHARE) / COLD_SHARE)
            return wall

        repeat(cold_then_reruns, seconds,
               lambda: len(self.outcome.op_spans) >= self.min_ops)

    def prepare_trace(self) -> None:
        # Workers fork after the wrappers are installed, so they
        # inherit them.
        self.pool_start_s = start_pool(self.workers)
        self.reports = []

    def traced_pass(self, recorder: tracing.Recorder) -> float:
        low = time.perf_counter_ns()
        with recorder.span("run_search"):
            self.run_pass()
        high = time.perf_counter_ns()
        self.cold_window = (low, high)
        for __ in range(TRACED_RERUNS):
            with recorder.span("run_search"):
                self.rerun()
        return (high - low) / 1e9

    def layer_metrics(self, recorder: tracing.Recorder) -> Dict[str, float]:
        spans = recorder.spans
        low, high = self.cold_window
        cold = [s for s in spans
                if s["start"] >= low and s["end"] <= high]
        run_tasks_s = tracing.total_s(
            (s for s in cold if s["pid"] == recorder.root_pid),
            "run_tasks")
        busy_s = tracing.total_s(
            (s for s in cold if s["pid"] != recorder.root_pid),
            "run_cell_task")
        hits = sum(r["hits"] for r in self.reports)
        misses = sum(r["misses"] for r in self.reports)
        return {
            "parallel.pool_start_s": self.pool_start_s,
            "parallel.busy_ratio":
                busy_s / (self.workers * run_tasks_s) if run_tasks_s else 0,
            "parallel.overhead_s": run_tasks_s - busy_s / self.workers,
            "cache.hits": hits,
            "cache.misses": misses,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0,
            "cache.get_s": tracing.total_s(spans, "cache.get"),
            "cache.put_s": tracing.total_s(spans, "cache.put"),
            "cache.code_fingerprint_s":
                tracing.total_s(spans, "code_fingerprint"),
            "optimize.evaluations": self.evaluations,
            "optimize.self_s": tracing.total_s(spans, "run_search")
            - tracing.total_s(spans, "oracle.evaluate"),
        }

    def summarize(self, metrics: Dict[str, float]) -> None:
        self.outcome.named["search_s"] = metrics["pass_s"]
        self.outcome.named["rerun_s"] = metrics["op_ms_p50"] / 1000.0
        self.outcome.notes.append(
            f"search: {len(self.outcome.pass_s)} cold searches x "
            f"{self.cells} cells, {len(self.outcome.op_ms)} warm reruns, "
            f"front digest {self.front}")

    def finish(self) -> None:
        from repro.experiments.parallel import shutdown_pool

        shutdown_pool()
        self.outcome.named["worker_peak_rss_mb"] = \
            peak_rss_mb(resource.RUSAGE_CHILDREN)
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# vision
# ----------------------------------------------------------------------
#: Frames in one loop of the replay video (10 s at 30 FPS).
VIDEO_FRAMES = 300
#: Distinct frames every pass replays: the middle frame of each of 12
#: equal stretches of the video, so the pool follows the whole camera
#: path.  The pool is the same for every seed; the seed orders the
#: replay.  Frames cost different amounts to recognise, so a pool drawn
#: from the seed would change the work a run measures with the seed.
POOL_FRAMES = 12
#: A pass plays the pool three times, each play in its own seeded
#: order, so two thirds of its frames repeat an earlier one.  (With two
#: plays, misses and hits split 50/50 and the median frame time falls in
#: the gap between the two latency modes, where it is least stable.)
POOL_PLAYS = 3
#: Distinct frames re-checked without the feature cache after timing.
UNCACHED_SAMPLE = 4


class Vision(Workload):
    """``process_frame`` with a ``FeatureCache`` over a replayed pool."""

    def __init__(self, seed: int, workdir: pathlib.Path,
                 pool_frames: int = POOL_FRAMES):
        super().__init__(seed, workdir)
        stretch = VIDEO_FRAMES // pool_frames
        self.pool = [k * stretch + stretch // 2 for k in range(pool_frames)]
        rng = random.Random(seed)
        #: The frame indices of one pass, in replay order.
        self.order: List[int] = []
        for __ in range(POOL_PLAYS):
            self.order += rng.sample(self.pool, len(self.pool))
        self.reference: Dict[int, str] = {}

    def setup(self) -> None:
        from repro.vision.dataset import WorkplaceDataset
        from repro.vision.recognizer import RecognizerTrainer
        from repro.vision.sift import SiftExtractor
        from repro.vision.video import SyntheticVideo

        dataset = WorkplaceDataset(seed=0)
        extractor = SiftExtractor(contrast_threshold=0.01,
                                  max_keypoints=300)
        self.trained = RecognizerTrainer(seed=0).train(dataset, extractor)
        video = SyntheticVideo(seed=0, dataset=dataset)
        self.images = {index: video.frame(index).image
                       for index in self.pool}

    def recognizer(self, feature_cache=None, profiler=None):
        from repro.vision.recognizer import ObjectRecognizer

        trained = self.trained
        return ObjectRecognizer(
            dataset=trained.dataset, extractor=trained.extractor,
            pca=trained.pca, encoder=trained.encoder, index=trained.index,
            feature_cache=feature_cache, profiler=profiler)

    def run_pass(self, profiler=None) -> float:
        from repro.vision.cache import FeatureCache

        self.feature_cache = FeatureCache()
        recognizer = self.recognizer(self.feature_cache, profiler)
        results, spans = [], []
        for index in self.order:
            result, span = self.timed(functools.partial(
                recognizer.process_frame, self.images[index]))
            results.append(result)
            spans.append(span)
        self.outcome.pass_spans.append(spans)
        for index, result in zip(self.order, results):
            got = checks.frame_digest(result)
            first = self.reference.setdefault(index, got)
            self.outcome.check(got == first,
                               f"frame {index}: result {got} differs from "
                               f"its first computation {first}")
        return sum(end - start for start, end in spans)

    def traced_pass(self, recorder: tracing.Recorder) -> float:
        from repro.metrics.profiling import StageProfiler

        self.profiler = StageProfiler()
        return self.run_pass(self.profiler)

    def layer_metrics(self, recorder: tracing.Recorder) -> Dict[str, float]:
        stages = self.profiler.snapshot()
        metrics = {}
        for stage in ("preprocess", "extract", "encode", "lsh", "match"):
            record = stages.get(f"recognizer.{stage}")
            metrics[f"vision.{stage}_ms"] = \
                record.total_ns / record.calls / 1e6 if record else 0.0
        stats = self.feature_cache.stats()
        metrics["vision.cache_hit_ratio"] = \
            stats.hits / stats.lookups if stats.lookups else 0.0
        metrics["vision.cache_bytes"] = stats.size_bytes
        return metrics

    def finish(self) -> None:
        uncached = self.recognizer()
        for index in self.pool[:UNCACHED_SAMPLE]:
            got = checks.frame_digest(
                uncached.process_frame(self.images[index]))
            self.outcome.check(got == self.reference.get(index),
                               f"frame {index}: uncached result {got} "
                               f"differs from the cached run "
                               f"{self.reference.get(index)}")

    def summarize(self, metrics: Dict[str, float]) -> None:
        frames = len(self.outcome.op_ms)
        self.outcome.named["frames_per_s"] = \
            len(self.order) / metrics["pass_s"]
        self.outcome.named["frame_ms_p50"] = metrics["op_ms_p50"]
        self.outcome.named["frame_ms_p90"] = metrics["op_ms_p90"]
        self.outcome.notes.append(
            f"vision: {len(self.outcome.pass_s)} passes, {frames} frames "
            f"({len(self.pool)} distinct, {POOL_PLAYS} plays per pass)")


WORKLOADS = {"cells": Cells, "search": Search, "vision": Vision}
