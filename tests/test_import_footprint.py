"""The simulator's entry points load neither scipy nor networkx.

Every campaign worker, search worker and CLI call is a fresh
interpreter, and these imports cost about 1 s and 80 MB in each.
scipy loads only where it computes: ``scipy.stats`` in
``ReplicatedMetric.ci95_halfwidth`` (multi-seed reports) and
``scipy.ndimage`` in the vision blur.  The router is a Dijkstra of its
own.  ``benchmarks/bench_cold_start.py`` measures what this saves.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")

ENTRY_POINTS = ("repro.cli", "repro.experiments.campaign",
                "repro.experiments.cache", "repro.orchestra.optimize",
                "repro.vision.recognizer")

#: Imports the entry points, then runs one short scAtteR++ cell, and
#: prints the scipy and networkx modules loaded by then.
_PROBE = r"""
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs
run_experiment(ExperimentSpec(baseline_configs()["C1"], num_clients=1,
                              duration_s=1.0, seed=0, scatterpp=True))
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] in ("scipy", "networkx"))))
"""


def test_entry_points_load_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", _PROBE, *ENTRY_POINTS],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
