"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench/tests``).

The end-to-end cases run the real entry point on shrunken workloads, so
they exercise the same code the timed runs do in a few seconds.
"""

from __future__ import annotations

import functools
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import checks, hostspeed, run, spec, tracing, workloads

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few seconds of work."""
    monkeypatch.setitem(workloads.WORKLOADS, "cells", functools.partial(
        workloads.Cells, cells=(("scatterpp", "C1", 1),
                                ("cohort", "C1", 1)), duration_s=1.0))
    monkeypatch.setitem(workloads.WORKLOADS, "search", functools.partial(
        workloads.Search, population=2, generations=1, budget=2,
        ladder=(1,), cell_s=1.0))
    monkeypatch.setitem(workloads.WORKLOADS, "vision", functools.partial(
        workloads.Vision, pool_frames=2))
    monkeypatch.setattr(workloads.Workload, "min_ops", 4)
    monkeypatch.setattr(workloads, "TRACED_RERUNS", 2)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def invoke(capsys, *argv):
    """Run the entry point; return (exit status, stdout lines, result)."""
    status = run.main(["--seconds", "0", *argv])
    lines = capsys.readouterr().out.splitlines()
    return status, lines, json.loads(lines[-1])


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_is_generated_from_spec():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()


def test_benchmark_json_meets_the_format():
    data = spec.benchmark_json()
    assert set(data) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= data["run_seconds"] <= 60
    assert 2 <= len(data["workloads"]) <= 8
    names = [w["name"] for w in data["workloads"]]
    names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in data["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in data["end_to_end"]:
        assert UNIT.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in data["end_to_end"])}]


def test_every_metric_has_a_meaning_on_every_workload():
    workload_names = {name for name, __ in spec.WORKLOADS}
    for name, *__ in spec.END_TO_END + spec.REPORTED:
        assert set(spec.END_TO_END_MEANING[name]) == workload_names


# ----------------------------------------------------------------------
# Inputs and metric names
# ----------------------------------------------------------------------
def test_seed_changes_inputs(tmp_path):
    a, b = workloads.Vision(0, tmp_path), workloads.Vision(1, tmp_path)
    assert a.order != b.order
    # The seed orders the replay; every seed replays the same pool.
    assert sorted(a.order) == sorted(b.order)
    assert workloads.Vision(0, tmp_path).order == a.order
    cells = [workloads.Cells(seed, tmp_path) for seed in (0, 1)]
    for cell in cells:
        cell.counter.close()
    assert [t.seed for t in cells[0].tasks] != [t.seed for t in cells[1].tasks]
    search = [workloads.Search(seed, tmp_path, workers=1) for seed in (0, 1)]
    assert search[0].config != search[1].config


@pytest.mark.parametrize("trace", ["0", "1"])
def test_seed_changes_inputs_not_metric_names(tiny, capsys, trace):
    results = []
    for seed in ("0", "1"):
        status, lines, result = invoke(capsys, "--workload", "vision",
                                       "--seed", seed, "--trace", trace)
        assert status == 0 and result["correct"]
        results.append(result)
    assert set(results[0]["metrics"]) == set(results[1]["metrics"])
    expected = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert list(results[0]["metrics"]) == [name for name, *__ in expected]


def test_every_named_metric_prints_with_a_unit(tiny, capsys):
    status, lines, result = invoke(capsys, "--workload", "all")
    assert status == 0 and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: unit for name, unit, *__ in spec.END_TO_END}
    for key, row in result["metrics"].items():
        workload, name = key.split(".", 1)
        assert row["unit"] == units[name]
        assert isinstance(row["value"], float) and row["value"] > 0
    text = "\n".join(lines)
    for name, (unit, __) in spec.NAMED_METRICS.items():
        assert re.search(rf"^\s*{name}\s+\S+ {re.escape(unit)}$", text,
                         re.MULTILINE), name


def test_traced_run_attributes_cells_time(tiny, capsys):
    status, lines, result = invoke(capsys, "--workload", "cells",
                                   "--trace", "1")
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    assert status == 0
    assert metrics["trace.coverage"] >= spec.COVERAGE_TARGET
    assert metrics["sim.events"] > 0 and metrics["net.datagrams"] > 0
    assert metrics["cohort.ticks"] == 10
    assert metrics["runner.run_s"] > 0
    assert 0 < metrics["flow.served_ratio"] <= 1


def test_traced_search_reads_worker_spans(tiny, capsys):
    status, lines, result = invoke(capsys, "--workload", "search",
                                   "--trace", "1")
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    assert status == 0
    assert metrics["sim.events"] > 0          # counted in the workers
    assert 0 < metrics["parallel.busy_ratio"] <= 1
    assert metrics["cache.hits"] == 2 * 2     # 2 reruns x 2 cells
    assert metrics["cache.misses"] == 2


# ----------------------------------------------------------------------
# Failures
# ----------------------------------------------------------------------
def test_failing_check_raises_failed_ratio_and_exit_status(
        tiny, capsys, monkeypatch, tmp_path):
    golden = json.loads((ROOT / checks.GOLDEN_FILES[0]).read_text())
    key = sorted(golden["digests"])[0]
    golden["digests"][key] = "0" * 32
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(golden))
    monkeypatch.setattr(checks, "GOLDEN_FILES",
                        (str(tampered),) + checks.GOLDEN_FILES[1:])
    status, lines, result = invoke(capsys, "--workload", "vision")
    assert status != 0
    assert result["correct"] is False and result["failed"] == 1
    ratio = [line for line in lines if line.startswith("failed_ratio")]
    assert float(ratio[0].split()[1]) == pytest.approx(
        1 / result["attempted"], abs=1e-6)
    assert any(key in line for line in lines if line.startswith("FAILED"))


def test_frame_mismatch_is_a_failed_operation(tmp_path, monkeypatch):
    vision = workloads.Vision(0, tmp_path, pool_frames=2)
    vision.setup()
    answers = iter(range(10**6))
    monkeypatch.setattr(checks, "frame_digest",
                        lambda result: str(next(answers)))
    vision.run_pass()
    assert len(vision.outcome.failures) == 4   # every repeat differs
    assert vision.outcome.attempted == 6


def test_without_the_program_it_exits_nonzero_silently(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cells",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_timings_scale_by_the_probes_around_them():
    reference_s = hostspeed.PROBE_REFERENCE_MS / 1000.0
    host = hostspeed.HostSpeed()
    # The host runs twice as fast as the reference for 10 s, then, a
    # minute later, 1.5 times slower.
    host.probes = ([(t, reference_s / 2) for t in range(10)]
                   + [(70.0 + t, reference_s * 1.5) for t in range(10)])
    assert host.scaled(4.0, 5.0) == pytest.approx(2.0)
    assert host.scaled(74.0, 75.0) == pytest.approx(1 / 1.5)
    # Far from every probe, the nearest ones measure the host.
    assert host.scaled(30.0, 31.0) == pytest.approx(2.0)


# ----------------------------------------------------------------------
# Attribution arithmetic
# ----------------------------------------------------------------------
def test_package_self_times_charge_library_time_to_repro_callers(tmp_path):
    repro = tmp_path / "repro"
    sim = (str(repro / "sim" / "kernel.py"), 1, "run")
    net = (str(repro / "net" / "topology.py"), 1, "send")
    numpy_sum = ("/lib/numpy/core.py", 1, "sum")
    builtin = ("~", 0, "<built-in method math.sqrt>")
    lock = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")
    stats = {
        # func: (cc, nc, tottime, cumtime, {caller: (cc, nc, tt, ct)})
        sim: (1, 1, 2.0, 6.0, {}),
        net: (1, 1, 1.0, 2.0, {sim: (1, 1, 1.0, 2.0)}),
        numpy_sum: (2, 2, 2.0, 2.5, {sim: (1, 1, 1.5, 1.8),
                                     net: (1, 1, 0.5, 0.7)}),
        builtin: (1, 1, 0.5, 0.5, {numpy_sum: (1, 1, 0.5, 0.5)}),
        lock: (1, 1, 3.0, 3.0, {sim: (1, 1, 3.0, 3.0)}),
    }
    times = tracing.package_self_times(stats, repro)
    # numpy: 1.5 -> sim, 0.5 -> net; the builtin under numpy splits by
    # numpy's per-caller cumulative time (1.8 : 0.7).
    assert times["sim"] == pytest.approx(2.0 + 1.5 + 0.5 * 1.8 / 2.5)
    assert times["net"] == pytest.approx(1.0 + 0.5 + 0.5 * 0.7 / 2.5)
    assert times["wait"] == pytest.approx(3.0)
    assert sum(times.values()) == pytest.approx(8.5)


def test_runner_phases_split_build_run_and_assemble():
    def span(span_id, parent, name, start, end):
        return {"id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "pid": 1}

    spans = [span("1", None, "run_cell_task", 0, 100),
             span("2", "1", "runner", 0, 80),
             span("3", "2", "sim.run", 10, 70),
             span("4", "1", "summarize_result", 80, 95)]
    phases = tracing.runner_phases(spans)
    assert phases == {"runner.build_s": 10 / 1e9,
                      "runner.run_s": 60 / 1e9,
                      "runner.assemble_s": (10 + 15) / 1e9}


def test_recorder_restores_everything_it_wraps(tmp_path):
    from repro.experiments import campaign, parallel
    from repro.sim.kernel import Simulator

    before = (parallel.run_cell_task, dict(campaign.RUNNERS),
              Simulator.__dict__["run"], campaign.run_tasks)
    recorder = tracing.Recorder(tmp_path)
    tracing.install(recorder)
    assert parallel.run_cell_task is not before[0]
    recorder.uninstall()
    assert (parallel.run_cell_task, dict(campaign.RUNNERS),
            Simulator.__dict__["run"], campaign.run_tasks) == before
