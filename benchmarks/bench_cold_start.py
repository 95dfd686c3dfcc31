"""Cold-start benchmark: what importing the simulator costs a process.

Every campaign worker, search worker and CLI call is a fresh
interpreter, so import time and resident memory are paid per process.
The entry points load neither scipy nor networkx: ``scipy.stats`` is
imported inside ``ReplicatedMetric.ci95_halfwidth`` (multi-seed
reports only), the vision blur is NumPy's and the router is a
Dijkstra of its own.

Arms, each a fresh child interpreter that reports its own wall time
(from its first statement to the end of its work) and ``ru_maxrss``;
``CHILDREN`` rounds, the arm order rotating round by round so slow
host drift favours none:

* ``floor`` — ``import numpy`` alone, the memory no simulator process
  avoids;
* ``entry_points`` — the simulator's entry points;
* ``baseline`` — the entry points plus ``BASELINE_PRELOAD``, the import
  set they had when these loaded at module level.  It keeps
  ``scipy.ndimage``, which the vision blur used until it became
  NumPy's, so the arm stays the same historical baseline.  networkx
  is no longer a dependency; where it is not installed the baseline
  goes without it, and the JSON's ``baseline_preload`` says so;
* ``cli_cell`` — a cold ``python -m repro run --config C1 --pipeline
  scatterpp --clients 1 --duration 5``, the end-to-end number;
* ``cli_cell_baseline`` — the same cell with the baseline preloaded.

Gates: ``entry_points`` and ``cli_cell`` load no scipy or networkx
module, and their median RSS over the floor's stays within a budget
pinned from the first committed run, rounded up to the next 5 MB.
Wall times are reported, not gated: on a shared host they move with
the neighbours.

Results land in the committed repo-root ``BENCH_cold_start.json``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import statistics
import subprocess
import sys

from benchmarks.conftest import save_bench_json

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")

CHILDREN = 5

ENTRY_POINTS = ("repro.cli", "repro.experiments.campaign",
                "repro.experiments.cache", "repro.orchestra.optimize",
                "repro.vision.recognizer")
BASELINE_PRELOAD = tuple(
    name for name in ("scipy.stats", "scipy.ndimage", "networkx")
    if importlib.util.find_spec(name.partition(".")[0]))
CLI_CELL = ("run", "--config", "C1", "--pipeline", "scatterpp",
            "--clients", "1", "--duration", "5")

#: Arm -> (modules to import, CLI arguments to run after them).
ARMS = {
    "floor": (("numpy",), ()),
    "entry_points": (ENTRY_POINTS, ()),
    "baseline": (ENTRY_POINTS + BASELINE_PRELOAD, ()),
    "cli_cell": ((), CLI_CELL),
    "cli_cell_baseline": (BASELINE_PRELOAD, CLI_CELL),
}
GATED_ARMS = ("entry_points", "cli_cell")

#: Median RSS over the floor, MB, pinned from the first committed run
#: (+7.9 and +10.8 MB) rounded up to the next 5 MB.  The baseline arms
#: read about +85 MB.
RSS_BUDGET_MB = {"entry_points": 10.0, "cli_cell": 15.0}

#: The child.  ``argv``: JSON list of modules, then the CLI arguments.
#: Its own report is the last line of standard output.
_CHILD = r"""
import time
started = time.perf_counter()
import importlib, json, resource, runpy, sys
modules, cli = json.loads(sys.argv[1]), sys.argv[2:]
for name in modules:
    importlib.import_module(name)
if cli:
    sys.argv = ["repro", *cli]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        if stop.code:
            raise
print(json.dumps({
    "wall_s": time.perf_counter() - started,
    "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "forbidden": sorted(name for name in sys.modules
                        if name.partition(".")[0] in ("scipy", "networkx")),
}))
"""


def _run_child(modules, cli):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(list(modules)), *cli],
        capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _run_arms():
    samples = {name: [] for name in ARMS}
    names = list(ARMS)
    for index in range(CHILDREN):
        shift = index % len(names)
        for name in names[shift:] + names[:shift]:
            samples[name].append(_run_child(*ARMS[name]))
    return samples


def _summary(runs, floor_rss):
    walls = [run["wall_s"] for run in runs]
    rss = statistics.median(run["rss_mb"] for run in runs)
    return {"wall_s": [round(wall, 4) for wall in walls],
            "wall_s_median": round(statistics.median(walls), 4),
            "rss_mb_median": round(rss, 1),
            "rss_over_floor_mb": round(rss - floor_rss, 1),
            "forbidden_modules": max(len(run["forbidden"])
                                     for run in runs)}


def test_entry_points_cold_start(save_result):
    samples = _run_arms()
    floor_rss = statistics.median(run["rss_mb"]
                                  for run in samples["floor"])
    arms = {name: _summary(runs, floor_rss)
            for name, runs in samples.items()}
    entry = {
        "children_per_arm": CHILDREN,
        "python": sys.version.split()[0],
        "entry_points": list(ENTRY_POINTS),
        "baseline_preload": list(BASELINE_PRELOAD),
        "cli_cell": " ".join(("python -m repro",) + CLI_CELL),
        "arms": arms,
        "rss_budget_mb": RSS_BUDGET_MB,
        "import_speedup": round(arms["baseline"]["wall_s_median"]
                                / arms["entry_points"]["wall_s_median"],
                                2),
        "cli_cell_speedup": round(
            arms["cli_cell_baseline"]["wall_s_median"]
            / arms["cli_cell"]["wall_s_median"], 2),
    }
    save_bench_json("cold_start", entry)
    save_result("cold_start", json.dumps(entry, indent=2, sort_keys=True))

    for name in GATED_ARMS:
        assert arms[name]["forbidden_modules"] == 0, (
            name, [run["forbidden"][:10] for run in samples[name]])
        assert arms[name]["rss_over_floor_mb"] <= RSS_BUDGET_MB[name], (
            name, entry)
