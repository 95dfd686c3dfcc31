"""The simulator's entry points load neither scipy nor networkx, the
vision pipeline loads no scipy, and no simulation loads the vision
pipeline.

Every campaign worker, search worker and CLI call is a fresh
interpreter, and these imports cost about 1 s and 80 MB in each.
scipy loads only where it computes: ``scipy.stats`` in
``ReplicatedMetric.ci95_halfwidth`` (multi-seed reports).  The blur is
NumPy's (bit-identical to the ``scipy.ndimage`` one it replaced) and
the router is a Dijkstra of its own.  A simulated client answers a
degraded frame after a fixed virtual-time cost instead of running the
vision kernels, so ``repro.vision`` stays off the simulator's path.
``benchmarks/bench_cold_start.py`` measures what this saves.
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

#: Appended to each probe: prints the scipy and networkx modules it
#: loaded.
_LOADED = r"""
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] in ("scipy", "networkx"))))
"""

#: Imports the entry points, then runs one short scAtteR++ cell.
_CELL_PROBE = r"""
import importlib, json, sys
for name in sys.argv[1:]:
    importlib.import_module(name)
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.scatter.config import baseline_configs
run_experiment(ExperimentSpec(baseline_configs()["C1"], num_clients=1,
                              duration_s=1.0, seed=0, scatterpp=True))
""" + _LOADED

#: Trains the recognizer as perfbench ``vision`` does and recognizes
#: one frame of its pool.
_VISION_PROBE = r"""
import json, sys
from repro.vision.dataset import WorkplaceDataset
from repro.vision.recognizer import RecognizerTrainer
from repro.vision.sift import SiftExtractor
from repro.vision.video import SyntheticVideo
dataset = WorkplaceDataset(seed=0)
recognizer = RecognizerTrainer(seed=0).train(
    dataset, SiftExtractor(contrast_threshold=0.01, max_keypoints=300))
result = recognizer.process_frame(
    SyntheticVideo(seed=0, dataset=dataset).frame(12).image)
assert result.num_keypoints > 0 and result.recognitions
""" + _LOADED


def _loaded(probe, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", probe, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


#: Imports the CLI, then runs a 1 s chaos cell (one crash) and a 1 s
#: mobility cell; prints the ``repro.vision`` modules loaded.
_RESILIENCE_PROBE = r"""
import json, sys
import repro.cli
from repro.chaos import FaultPlan, InstanceCrash
from repro.experiments.runner import (ExperimentSpec, MobilitySpec,
                                      run_experiment)
from repro.scatter.config import baseline_configs
configs = baseline_configs()
chaos = run_experiment(ExperimentSpec(
    configs["C2"], num_clients=1, duration_s=1.0, seed=0,
    plan=FaultPlan([InstanceCrash(at_s=0.5, service="sift")])))
mobility = run_experiment(ExperimentSpec(
    configs["C1"], num_clients=2, duration_s=1.0, seed=0, scatterpp=True,
    stateless_sift=False,
    mobility=MobilitySpec(mean_dwell_s=0.6, min_dwell_s=0.3)))
assert chaos.resilience.recoveries and mobility.mobility["handovers"]
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("repro.vision"))))
"""


def test_entry_points_load_neither_scipy_nor_networkx():
    assert _loaded(_CELL_PROBE, *ENTRY_POINTS) == []


def test_vision_frame_loads_no_scipy():
    assert _loaded(_VISION_PROBE) == []


def test_simulations_load_no_vision():
    assert _loaded(_RESILIENCE_PROBE) == []
