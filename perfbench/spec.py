"""What the benchmark measures: workloads, metrics, bounds, attribution map.

This module is the single source of truth for ``BENCHMARK.json`` at the
repository root; regenerate it after editing anything here with::

    python3 perfbench/spec.py

Every end-to-end metric is measured on every workload, so the gated
names are workload-neutral.  Each maps onto the headline names the
human-readable report prints (``NAMED_METRICS`` below): ``pass_s`` on
``cells`` is ``cells_wall_s``, on ``search`` it is ``search_s``, and so
on.  ``failed_ratio`` is carried by the ``failed``/``attempted`` fields
of the result line rather than as a metric, because a metric that reads
0 on every healthy run cannot carry a relative bound.

Every end-to-end time is a host time scaled to a host of fixed speed by
:mod:`perfbench.hostspeed`.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Tuple

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 36

#: (name, why) — one line each; the long form lives in README.md.
WORKLOADS: List[Tuple[str, str]] = [
    ("cells",
     "One cell per RUNNERS pipeline, serial, 30 s sim each: sim, net, "
     "scatter(pp), flow, dsp, cluster, mobility, cohort. Bypasses "
     "parallel, cell cache and vision."),
    ("search",
     "Cold run_search on 2 workers (64 3 s cells: pool, pickle "
     "transport, cache writes, GA) then warm same-seed reruns (pure "
     "cache reads, no sim). Bypasses vision."),
    ("vision",
     "process_frame + FeatureCache on a 12-frame pool played 3x in "
     "seeded order: SIFT, Fisher, LSH, match. Vision is 0% of every "
     "campaign cell; bypasses sim, net, experiments."),
]

#: (name, unit, better, bound) — measured with tracing off.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("pass_s", "s", "lower", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit) — printed with the end-to-end metrics but not gated: of
#: all the timings it is the most exposed to bursts of contention on a
#: shared host.
REPORTED: List[Tuple[str, str]] = [("op_ms_p90", "ms")]

#: What each end-to-end metric means on each workload.
END_TO_END_MEANING: Dict[str, Dict[str, str]] = {
    "pass_s": {
        "cells": "median host time of one serial pass over the cell "
                 "list (cells_wall_s)",
        "search": "median host time of one cold run_search on an empty "
                  "cell cache (search_s)",
        "vision": "median host time of one pass over the frame pool "
                  "(frames_per_s = frames / pass_s)",
    },
    "op_ms_p50": {
        "cells": "median host time of one cell through run_cell_task",
        "search": "median host time of one warm same-seed rerun "
                  "(rerun_s, in ms)",
        "vision": "median ObjectRecognizer.process_frame latency "
                  "(frame_ms_p50)",
    },
    "op_ms_p90": {
        "cells": "p90 host time of one cell through run_cell_task",
        "search": "p90 host time of one warm rerun",
        "vision": "p90 process_frame latency (frame_ms_p90)",
    },
    "peak_rss_mb": {
        "cells": "peak resident memory of the benchmark process",
        "search": "peak resident memory of the parent process; the "
                  "largest worker is printed beside it",
        "vision": "peak resident memory of the benchmark process",
    },
    "setup_s": {
        "cells": "imports + median of repeated warm-up cells",
        "search": "imports + median of repeated pool starts",
        "vision": "imports + median of repeated recognizer training "
                  "and frame rendering",
    },
}

#: The ten headline metrics later changes cite, printed with units
#: by the human-readable report: name -> (unit, workloads).
NAMED_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "setup_s": ("s", ("cells", "search", "vision")),
    "cells_wall_s": ("s", ("cells",)),
    "sim_frames_per_host_s": ("frames/s", ("cells",)),
    "search_s": ("s", ("search",)),
    "rerun_s": ("s", ("search",)),
    "frames_per_s": ("frames/s", ("vision",)),
    "frame_ms_p50": ("ms", ("vision",)),
    "frame_ms_p90": ("ms", ("vision",)),
    "peak_rss_mb": ("MB", ("cells", "search", "vision")),
    "failed_ratio": ("ratio", ("cells", "search", "vision")),
}

CELLS_MOVE = "cells_wall_s@cells"
SEARCH_MOVE = "search_s@search"
RERUN_MOVE = "rerun_s@search"
VISION_MOVE = "frame_ms_p50,frame_ms_p90,frames_per_s@vision"

#: (name, unit, better, what it should move) — measured in the traced
#: run.  The fourth field is the attribution map: which end-to-end
#: metric, on which workload, a change in this layer should show up in.
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("sim.events", "count", "lower",
     f"{CELLS_MOVE},sim_frames_per_host_s@cells,{SEARCH_MOVE}"),
    ("sim.self_s", "s", "lower",
     f"{CELLS_MOVE},sim_frames_per_host_s@cells,{SEARCH_MOVE}"),
    ("sim.events_per_host_s", "1/s", "higher",
     f"{CELLS_MOVE},sim_frames_per_host_s@cells,{SEARCH_MOVE}"),
    ("sim.wheel_resizes", "count", "lower", CELLS_MOVE),
    ("net.self_s", "s", "lower", CELLS_MOVE),
    ("net.datagrams", "count", "lower", CELLS_MOVE),
    ("net.rpc_calls", "count", "lower", CELLS_MOVE),
    ("scatter.self_s", "s", "lower", CELLS_MOVE),
    ("scatterpp.self_s", "s", "lower", CELLS_MOVE),
    ("dsp.self_s", "s", "lower", CELLS_MOVE),
    ("cluster.self_s", "s", "lower", CELLS_MOVE),
    ("orchestra.self_s", "s", "lower", CELLS_MOVE),
    ("metrics.self_s", "s", "lower", CELLS_MOVE),
    ("flow.self_s", "s", "lower", CELLS_MOVE),
    ("flow.served_ratio", "ratio", "higher", CELLS_MOVE),
    ("cohort.self_s", "s", "lower", CELLS_MOVE),
    ("cohort.ticks", "count", "lower", CELLS_MOVE),
    ("mobility.self_s", "s", "lower", CELLS_MOVE),
    ("mobility.handovers", "count", "lower", CELLS_MOVE),
    ("experiments.self_s", "s", "lower", f"{CELLS_MOVE},{SEARCH_MOVE}"),
    ("vision.self_s", "s", "lower", VISION_MOVE),
    ("other.self_s", "s", "lower", CELLS_MOVE),
    ("runner.build_s", "s", "lower", CELLS_MOVE),
    ("runner.run_s", "s", "lower", CELLS_MOVE),
    ("runner.assemble_s", "s", "lower", CELLS_MOVE),
    ("parallel.tasks", "count", "lower", SEARCH_MOVE),
    ("parallel.pool_start_s", "s", "lower", "setup_s@search"),
    ("parallel.busy_ratio", "ratio", "higher", SEARCH_MOVE),
    ("parallel.overhead_s", "s", "lower", SEARCH_MOVE),
    ("parallel.worker_peak_rss_mb", "MB", "lower", "peak_rss_mb@search"),
    ("cache.hits", "count", "higher", f"{RERUN_MOVE},{SEARCH_MOVE}"),
    ("cache.misses", "count", "lower", f"{RERUN_MOVE},{SEARCH_MOVE}"),
    ("cache.hit_ratio", "ratio", "higher", f"{RERUN_MOVE},{SEARCH_MOVE}"),
    ("cache.get_s", "s", "lower", RERUN_MOVE),
    ("cache.put_s", "s", "lower", SEARCH_MOVE),
    ("cache.code_fingerprint_s", "s", "lower",
     f"{RERUN_MOVE},{SEARCH_MOVE}"),
    ("optimize.evaluations", "count", "lower", RERUN_MOVE),
    ("optimize.self_s", "s", "lower", RERUN_MOVE),
    ("gc.pause_s", "s", "lower", f"{CELLS_MOVE},{SEARCH_MOVE}"),
    ("vision.preprocess_ms", "ms", "lower", VISION_MOVE),
    ("vision.extract_ms", "ms", "lower", VISION_MOVE),
    ("vision.encode_ms", "ms", "lower", VISION_MOVE),
    ("vision.lsh_ms", "ms", "lower", VISION_MOVE),
    ("vision.match_ms", "ms", "lower", VISION_MOVE),
    ("vision.cache_hit_ratio", "ratio", "higher", VISION_MOVE),
    ("vision.cache_bytes", "bytes", "lower", "peak_rss_mb@vision"),
    ("trace.coverage", "ratio", "higher", "attribution of pass_s"),
    ("trace.overhead_ratio", "ratio", "lower", "traced / untraced pass_s"),
]

#: Share of traced wall time the per-package self times must cover on
#: ``cells`` (the attribution target).
COVERAGE_TARGET = 0.90


def benchmark_json() -> Dict:
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, __ in PER_LAYER],
    }


def main() -> None:
    root = pathlib.Path(__file__).resolve().parents[1]
    path = root / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
