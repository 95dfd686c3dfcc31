"""Print the cross-PR perf trajectory from the repo-root BENCH files.

Every perf-bearing PR leaves its headline numbers in a committed
``BENCH_<name>.json`` at the repository root (promoted from the
gitignored ``benchmarks/results/`` scratch dir in PR 10).  This
script renders them as one table so the performance story —
vectorized vision kernels and RANSAC pose, flow-control capacity,
kernel hot path, handover, city-scale cohorts, warm pools, placement
search — is readable at a glance and diffable across PRs::

    python benchmarks/summarize.py            # table
    python benchmarks/summarize.py --json     # machine-readable

Missing files are reported, not fatal: a fresh clone before any
benchmark run still gets the committed snapshots.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _get(data: Dict[str, Any], *path, default=None):
    node: Any = data
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return default
        node = node[key]
    return node


def _fmt(value, digits: int = 2) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def _sim_hotpath(data: Dict[str, Any]) -> str:
    kernel = data.get("kernel", {})
    steadiness = data.get("kernel_steadiness", {})
    return (f"kernel cpu {_fmt(kernel.get('speedup'))}x "
            f"(median of {_fmt(kernel.get('pairs'))} pairs; "
            f"under the bar in {_fmt(steadiness.get('failures'))} of "
            f"{_fmt(steadiness.get('runs'))} standalone runs), "
            f"e2e cpu {_fmt(_get(data, 'campaign_cell', 'speedup'))}x "
            f"(wall {_fmt(_get(data, 'campaign_cell', 'wall_speedup'))}x)")


def _perf_kernels(data: Dict[str, Any]) -> str:
    return (f"batched {_fmt(data.get('vectorized_speedup'))}x, "
            f"cached {_fmt(data.get('cached_speedup'))}x, "
            f"pose {_fmt(_get(data, 'pose', 'speedup'))}x, "
            f"blur {_fmt(_get(data, 'blur', 'frame_numpy_ms'))} ms/frame "
            f"(ndimage {_fmt(_get(data, 'blur', 'frame_ndimage_ms'))})")


def _vision_accuracy(data: Dict[str, Any]) -> str:
    return (f"{_fmt(data.get('frames'))} frames: precision "
            f"{_fmt(data.get('precision'), 3)}, recall "
            f"{_fmt(data.get('recall'), 3)}, F1 {_fmt(data.get('f1'), 3)}, "
            f"mean IoU {_fmt(data.get('mean_iou'), 3)}")


def _capacity_model(data: Dict[str, Any]) -> str:
    assignments = data.get("assignments", {})
    return (f"{_fmt(len(assignments.get('rows', [])))} assignments: "
            f"Spearman {_fmt(assignments.get('spearman'), 3)}, "
            f"max |error| {_fmt(assignments.get('max_abs_error'), 3)}")


def _cold_start(data: Dict[str, Any]) -> str:
    def arm(name: str) -> str:
        return (f"{_fmt(_get(data, 'arms', name, 'wall_s_median'))} s "
                f"{_fmt(_get(data, 'arms', name, 'rss_mb_median'), 1)} MB")

    return (f"imports {arm('baseline')} -> {arm('entry_points')}, "
            f"cold cell {arm('cli_cell_baseline')} -> {arm('cli_cell')}")


def _ablation_components(data: Dict[str, Any]) -> str:
    return "FPS " + ", ".join(
        f"{row['variant']} {_fmt(row['fps'])}"
        for row in data.get("rows", []))


def _ablation_threshold(data: Dict[str, Any]) -> str:
    return "at 4 clients " + ", ".join(
        f"{_fmt(row['threshold_ms'], 0)} ms: {_fmt(row['fps'])} FPS "
        f"{_fmt(row['e2e_ms'], 0)} ms E2E"
        for row in data.get("rows", []) if row["clients"] == 4)


def _extension_fast_model(data: Dict[str, Any]) -> str:
    return "knee " + ", ".join(
        f"{row['model']}/{row['pipeline']} {_fmt(row['knee'])}"
        for row in data.get("rows", []))


def _resilience(data: Dict[str, Any]) -> str:
    worst = max(data.get("rows", []), key=lambda row: row["crashes"],
                default={})
    return (f"{_fmt(worst.get('crashes'))} crashes: availability "
            f"{_fmt(worst.get('availability'))}, MTTR "
            f"{_fmt(worst.get('mttr_s'))} s, "
            f"{_fmt(worst.get('unrecovered'))} unrecovered")


#: file stem -> (PR, one-line what-it-measures, headline extractor).
TRAJECTORY: Dict[str, tuple] = {
    "perf_kernels": (
        "PR 3/15", "vectorized vision kernels + feature cache + "
                   "batched RANSAC pose + NumPy blur", _perf_kernels),
    "capacity_flow": (
        "PR 4", "SLO capacity with flow control (C12)",
        lambda d: f"capacity {_fmt(d.get('capacity_on'))} vs "
                  f"{_fmt(d.get('capacity_off'))} clients"),
    "sim_hotpath": ("PR 5/10", "event-kernel hot path", _sim_hotpath),
    "handover": (
        "PR 6", "stateful handover vs kill-and-reconnect",
        lambda d: f"frame-loss ratio "
                  f"{_fmt(d.get('frame_loss_ratio'))}, "
                  f"{_fmt(_get(d, 'conservation_sweep', 'handovers'))} "
                  "handovers, 0 violations"),
    "cohort_scale": (
        "PR 7", "city-scale cohort vs all-tracer run",
        lambda d: f"{_fmt(_get(d, 'cohort', 'modeled_clients'))} "
                  f"modeled clients, wall "
                  f"{_fmt(_get(d, 'cohort', 'wall_s'))}s"),
    "parallel_campaign": (
        "PR 8", "warm pools + content-addressed cell cache",
        lambda d: f"warm pool {_fmt(d.get('warm_pool_speedup'))}x, "
                  f"cached rerun "
                  f"{_fmt(d.get('cached_rerun_speedup'))}x"),
    "placement_search": (
        "PR 9", "sampled placement search vs static frontier",
        lambda d: f"capacity {_fmt(_get(d, 'searched', 'best_capacity'))}"
                  f" at {_fmt(_get(d, 'searched', 'best_joules_per_frame'))}"
                  f" J/frame vs static "
                  f"{_fmt(_get(d, 'best_static', 'capacity'))} at "
                  f"{_fmt(_get(d, 'best_static', 'joules_per_frame'))}"
                  " J/frame"),
    "capacity_model": (
        "-", "analytic capacity model vs simulation", _capacity_model),
    "cold_start": (
        "-", "import footprint: scipy/networkx preloaded -> "
             "entry points", _cold_start),
    "vision_accuracy": (
        "-", "recognizer accuracy on the replay video", _vision_accuracy),
    "ablation_components": (
        "-", "scAtteR++'s two changes, alone and together (C1, 4 "
             "clients)", _ablation_components),
    "ablation_threshold": (
        "-", "sidecar staleness threshold 50/100/200 ms (C1)",
        _ablation_threshold),
    "extension_fast_model": (
        "-", "faster feature model: saturation knee (E2)",
        _extension_fast_model),
    "resilience": (
        "-", "crash intensity vs QoS under self-healing (C2)",
        _resilience),
}


def is_smoke(data: Dict[str, Any]) -> bool:
    """Whether a BENCH file holds smoke numbers: a top-level ``smoke``
    flag, ``mode: smoke``, or ``workload.smoke`` (the kernel bench)."""
    return bool(data.get("smoke") or data.get("mode") == "smoke"
                or _get(data, "workload", "smoke"))


def collect() -> List[Dict[str, Optional[str]]]:
    rows: List[Dict[str, Optional[str]]] = []
    seen = set()
    for stem, (pr, measures, extract) in TRAJECTORY.items():
        path = ROOT / f"BENCH_{stem}.json"
        row = {"bench": stem, "pr": pr, "measures": measures,
               "headline": None, "smoke": None}
        if path.exists():
            data = json.loads(path.read_text())
            try:
                row["headline"] = extract(data)
            except Exception as exc:  # pragma: no cover - schema drift
                row["headline"] = f"(unreadable: {exc})"
            row["smoke"] = is_smoke(data)
        rows.append(row)
        seen.add(path.name)
    # Unknown BENCH files still show up — no silent omissions.
    for path in sorted(ROOT.glob("BENCH_*.json")):
        if path.name not in seen:
            rows.append({"bench": path.stem.replace("BENCH_", ""),
                         "pr": "?", "measures": "(no extractor)",
                         "headline": None, "smoke": None})
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="cross-PR benchmark trajectory")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    args = parser.parse_args(argv)
    rows = collect()
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    headers = ["bench", "PR", "measures", "headline"]
    table = []
    for row in rows:
        headline = row["headline"] or "(not yet run here)"
        if row["smoke"]:
            headline += " [smoke]"
        table.append([row["bench"], row["pr"], row["measures"],
                      headline])
    widths = [max(len(headers[i]), *(len(r[i]) for r in table))
              for i in range(len(headers))]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("  ".join("-" * w for w in widths))
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
