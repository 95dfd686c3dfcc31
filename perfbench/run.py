"""The repository benchmark: ``cells``, ``search`` and ``vision``.

Run from the repository root::

    python3 perfbench/run.py                      # all three workloads
    python3 perfbench/run.py --workload cells --seed 3 --seconds 20
    python3 perfbench/run.py --workload search --trace 1   # per layer

With ``--trace 0`` (the default) the end-to-end metrics are measured
with nothing installed in the program but a frame counter on the cell
runners.  ``--trace 1`` runs one untraced pass, then installs span
wrappers and a profiler (see :mod:`perfbench.tracing`) and runs one
traced pass; it reports the per-layer metrics, the per-package
self-time shares and the tracing overhead.

Every invocation checks the program's outputs (see
:mod:`perfbench.checks`) and replays the committed golden cells once,
outside the timed region.  Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit status is 0 only
if every check passed.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Thread-count variables of the BLAS/OpenMP runtimes NumPy may load.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")
#: Modules every workload may need, imported before set-up is timed so
#: that their cost lands in ``setup_s`` and not in a timed pass.
PROGRAM_MODULES = ("repro.experiments.campaign", "repro.experiments.cache",
                   "repro.orchestra.optimize", "repro.vision.recognizer",
                   "repro.vision.video", "repro.metrics.profiling")
PACKAGES = ("sim", "net", "scatter", "scatterpp", "dsp", "cluster",
            "orchestra", "metrics", "flow", "cohort", "mobility",
            "experiments", "vision")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_threads(limit: int) -> None:
    """Keep BLAS/OpenMP pools within the core budget (before NumPy loads)."""
    for variable in THREAD_VARIABLES:
        current = os.environ.get(variable, "")
        if not current.isdigit() or int(current) > limit:
            os.environ[variable] = str(limit)


def missing_program() -> List[str]:
    from perfbench.checks import GOLDEN_FILES

    needed = [SRC / "repro" / "__init__.py"] + [ROOT / g
                                                 for g in GOLDEN_FILES]
    return [str(path.relative_to(ROOT)) for path in needed
            if not path.is_file()]


def environment(workers: int) -> Dict:
    import numpy

    from repro.sim import kernel

    return {"kernel_backend": kernel.active_backend(),
            "kernel_requested": kernel.requested_backend(),
            "nproc": nproc(), "workers": workers,
            "blas_threads": os.environ["OMP_NUM_THREADS"],
            "python": platform.python_version(),
            "numpy": numpy.__version__}


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
class Run:
    """One workload measured end to end (and, traced, per layer)."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool,
                 workdir: pathlib.Path, workers: int, imported: float):
        from perfbench import spec, workloads

        self.spec = spec
        kwargs = {"workers": workers} if name == "search" else {}
        self.workload = workloads.WORKLOADS[name](seed, workdir, **kwargs)
        self.name = name
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        #: ``time.perf_counter()`` when the imports ended.
        self.imported = imported
        self.metrics: Dict[str, float] = {}
        #: The end-to-end metrics before host-speed scaling.
        self.raw: Dict[str, float] = {}
        self.lines: List[str] = []

    def execute(self) -> None:
        from perfbench.hostspeed import PROBE_REFERENCE_MS, HostSpeed
        from perfbench.workloads import peak_rss_mb

        workload = self.workload
        # Tracing runs no probes: they would count as untraced time.
        host = workload.host = None if self.trace else HostSpeed()
        setups = []
        for __ in range(SETUP_REPEATS):
            if host is not None:
                host.probe()
            began = time.perf_counter()
            workload.setup()
            setups.append((began, time.perf_counter()))
        if self.trace:
            self._traced()
        else:
            workload.measure(self.seconds)
            host.probe()
            outcome = workload.outcome
            op_ms = [host.scaled(*span) * 1000.0
                     for span in outcome.op_spans]
            imports = (_START, self.imported)
            pass_host = workload.pass_host()
            self.metrics = {
                "pass_s": statistics.median(
                    sum(pass_host.scaled(*span) for span in spans)
                    for spans in outcome.pass_spans),
                "op_ms_p50": statistics.median(op_ms),
                "op_ms_p90": p90(op_ms),
                "peak_rss_mb": peak_rss_mb(),
                "setup_s": host.scaled(*imports) + statistics.median(
                    host.scaled(*span) for span in setups),
            }
            self.raw = {
                "pass_s": statistics.median(outcome.pass_s),
                "op_ms_p50": statistics.median(outcome.op_ms),
                "op_ms_p90": p90(outcome.op_ms),
                "setup_s": self.imported - _START + statistics.median(
                    end - start for start, end in setups),
            }
        workload.finish()
        if not self.trace:
            workload.summarize(self.metrics)
            named = workload.outcome.named
            named.update(setup_s=self.metrics["setup_s"],
                         peak_rss_mb=self.metrics["peak_rss_mb"])
            self.lines.append(
                f"{self.name}: {len(workload.outcome.op_spans)} operations "
                f"timed, set-up repetitions "
                + ", ".join(f"{end - start:.4f}" for start, end in setups)
                + f" s after {self.imported - _START:.4f} s of imports")
            self.lines.append(
                f"{self.name}: host speed probe: {len(host.probes)} probes, "
                f"median {host.median_ms():.3f} ms; timings below are "
                f"scaled to a host where it takes {PROBE_REFERENCE_MS} ms. "
                "Unscaled: " + ", ".join(f"{name} {value:.6g}"
                                         for name, value in self.raw.items()))
            self.lines.extend(workload.outcome.notes)
        elif "worker_peak_rss_mb" in workload.outcome.named:
            self.metrics["parallel.worker_peak_rss_mb"] = \
                workload.outcome.named["worker_peak_rss_mb"]

    def _traced(self) -> None:
        import cProfile
        import pstats

        from perfbench import tracing

        workload = self.workload
        untraced_s = workload.run_pass()
        trace_dir = pathlib.Path(tempfile.mkdtemp(prefix="trace-",
                                                  dir=self.workdir))
        recorder = tracing.Recorder(trace_dir)
        tracing.install(recorder)
        try:
            workload.prepare_trace()
            profile = cProfile.Profile()
            began = time.perf_counter()
            profile.enable()
            traced_s = workload.traced_pass(recorder)
            profile.disable()
            profiled_s = time.perf_counter() - began
            worker_stats = recorder.merge_workers()
        finally:
            recorder.uninstall()
        import repro

        repro_dir = pathlib.Path(repro.__file__).resolve().parent
        parent = tracing.package_self_times(pstats.Stats(profile).stats,
                                            repro_dir)
        workers = tracing.package_self_times(worker_stats, repro_dir)
        self.metrics = self._layer_metrics(recorder, parent, workers)
        self.metrics.update(workload.layer_metrics(recorder))
        covered = sum(v for k, v in parent.items()
                      if k not in ("other", "wait"))
        self.metrics["trace.coverage"] = covered / profiled_s
        self.metrics["trace.overhead_ratio"] = traced_s / untraced_s
        self._share_table(parent, workers, profiled_s)
        self.lines.append(
            f"{self.name}: traced pass {traced_s:.4f} s vs untraced "
            f"{untraced_s:.4f} s (overhead x{traced_s / untraced_s:.3f}); "
            f"package self time covers {100 * covered / profiled_s:.1f}% "
            f"of the {profiled_s:.4f} s profiled in the parent")

    def _layer_metrics(self, recorder, parent: Dict[str, float],
                       workers: Dict[str, float]) -> Dict[str, float]:
        from perfbench import tracing

        metrics = {name: 0.0 for name, *__ in self.spec.PER_LAYER}
        for package in PACKAGES:
            metrics[f"{package}.self_s"] = \
                parent.get(package, 0.0) + workers.get(package, 0.0)
        metrics["other.self_s"] = \
            parent.get("other", 0.0) + workers.get("other", 0.0)
        counters = recorder.counters
        for name in ("sim.events", "sim.wheel_resizes", "net.datagrams",
                     "net.rpc_calls", "cohort.ticks", "mobility.handovers",
                     "parallel.tasks", "gc.pause_s"):
            metrics[name] = counters.get(name, 0.0)
        loop_s = tracing.total_s(recorder.spans, "sim.run")
        if loop_s:
            metrics["sim.events_per_host_s"] = metrics["sim.events"] / loop_s
        if counters.get("flow.offered"):
            metrics["flow.served_ratio"] = \
                counters["flow.served"] / counters["flow.offered"]
        metrics.update(tracing.runner_phases(recorder.spans))
        return metrics

    def _share_table(self, parent: Dict[str, float],
                     workers: Dict[str, float], profiled_s: float) -> None:
        self.lines.append(f"{self.name}: self time by package "
                          f"(share of {profiled_s:.4f} s profiled wall)")
        self.lines.append(f"  {'package':<12} {'parent s':>10} "
                          f"{'share':>7} {'workers s':>10}")
        for package in sorted(set(parent) | set(workers),
                              key=lambda p: -parent.get(p, 0.0)
                              - workers.get(p, 0.0)):
            own = parent.get(package, 0.0)
            self.lines.append(
                f"  {package:<12} {own:>10.4f} {own / profiled_s:>7.1%} "
                f"{workers.get(package, 0.0):>10.4f}")


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def metric_rows(run: Run) -> Dict[str, Dict]:
    """The result-line metrics of one run, each with its unit."""
    spec = run.spec
    units = {name: unit for name, unit, *__ in spec.END_TO_END}
    units.update({name: unit for name, unit, *__ in spec.PER_LAYER})
    names = ([name for name, *__ in spec.PER_LAYER] if run.trace
             else [name for name, *__ in spec.END_TO_END])
    return {name: {"value": run.metrics[name], "unit": units[name]}
            for name in names}


def print_report(runs: List[Run], env: Dict, failures: List[str],
                 attempted: int, golden: str) -> None:
    from perfbench import spec

    failed_ratio = len(failures) / attempted
    print("environment: " + json.dumps(env, sort_keys=True))
    for run in runs:
        for line in run.lines:
            print(line)
        title = "per-layer" if run.trace else "end-to-end"
        print(f"{run.name}: {title} metrics")
        meanings = spec.END_TO_END_MEANING
        rows = metric_rows(run)
        if not run.trace:
            rows.update({name: {"value": run.metrics[name], "unit": unit,
                                "note": "not gated; "}
                         for name, unit in spec.REPORTED})
        for name, row in rows.items():
            meaning = "" if run.trace else \
                f"  ({row.get('note', '')}{meanings[name][run.name]})"
            print(f"  {name:<28} {row['value']:>16.6f} {row['unit']:<8}"
                  f"{meaning}")
        if not run.trace:
            named = dict(run.workload.outcome.named,
                         failed_ratio=failed_ratio)
            print(f"{run.name}: headline metrics")
            for name, (unit, where) in spec.NAMED_METRICS.items():
                if run.name in where:
                    print(f"  {name:<28} {named[name]:>16.6f} {unit}")
            if "worker_peak_rss_mb" in named:
                print(f"  {'peak_rss_mb (largest worker)':<28} "
                      f"{named['worker_peak_rss_mb']:>16.6f} MB")
    print(golden)
    print(f"failed_ratio {failed_ratio:.6f} ({len(failures)} failed of "
          f"{attempted} attempted operations and checks)")
    for failure in failures:
        print(f"FAILED: {failure}")


def result_line(runs: List[Run], attempted: int, failed: int) -> Dict:
    if len(runs) == 1:
        metrics = metric_rows(runs[0])
    else:
        metrics = {f"{run.name}.{name}": row for run in runs
                   for name, row in metric_rows(run).items()}
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]]):
    from perfbench import spec

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[name for name, __ in spec.WORKLOADS]
                        + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))
    args = parse_args(argv)
    missing = missing_program()
    if missing:
        print("perfbench: the program is not here (missing "
              + ", ".join(missing) + "); run from a repository checkout",
              file=sys.stderr)
        return 2
    workers = min(2, nproc())
    cap_threads(nproc())
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for module in PROGRAM_MODULES:
        importlib.import_module(module)
    from perfbench import checks, spec

    env = environment(workers)
    # The backend check counts as one attempted operation.
    attempted = 1
    failures: List[str] = []
    if env["kernel_backend"] != env["kernel_requested"]:
        failures.append(f"kernel selector fell back from "
                        f"{env['kernel_requested']} to "
                        f"{env['kernel_backend']}")
    names = ([name for name, __ in spec.WORKLOADS]
             if args.workload == "all" else [args.workload])
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=base))
    runs: List[Run] = []
    try:
        imported = time.perf_counter()
        for name in names:
            run = Run(name, args.seed, args.seconds, bool(args.trace),
                      workdir, workers, imported)
            runs.append(run)
            run.execute()
            attempted += run.workload.outcome.attempted
            failures += run.workload.outcome.failures
        golden_cells, golden_failures = checks.golden_probe(ROOT)
    finally:
        from repro.experiments.parallel import shutdown_pool

        shutdown_pool()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    attempted += golden_cells
    failures += golden_failures
    golden = (f"golden probe: {golden_cells} cells, "
              f"{len(golden_failures)} mismatches")
    print_report(runs, env, failures, attempted, golden)
    print(json.dumps(result_line(runs, attempted, len(failures))))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
