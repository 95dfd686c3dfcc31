"""Plain-text tables for benchmark output.

The benchmark harness prints the same rows/series the paper's figures
plot; these helpers keep that output aligned and readable.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence


def format_table(headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table."""
    materialized: List[List[str]] = [[_cell(v) for v in row]
                                     for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def qos_table(rows: List[Dict]) -> str:
    """The standard QoS table used by most figure benches."""
    return format_table(
        ["config", "clients", "FPS", "success", "E2E(ms)", "jitter(ms)"],
        [[row["config"], row["clients"], row["fps"],
          row["success_rate"], row["e2e_ms"], row["jitter_ms"]]
         for row in rows])


def service_metric_table(rows: List[Dict], key: str,
                         title: str) -> str:
    """Per-service breakdown (latency or memory) per run."""
    services = sorted({service for row in rows
                       for service in row[key]})
    return format_table(
        ["config", "clients"] + [f"{title}:{s}" for s in services],
        [[row["config"], row["clients"]]
         + [row[key].get(s, 0.0) for s in services]
         for row in rows])


def utilization_table(rows: List[Dict]) -> str:
    machines = sorted({m for row in rows for m in row["cpu_util"]})
    headers = (["config", "clients"]
               + [f"cpu%:{m}" for m in machines]
               + [f"gpu%:{m}" for m in machines])
    body = []
    for row in rows:
        body.append(
            [row["config"], row["clients"]]
            + [100.0 * row["cpu_util"].get(m, 0.0) for m in machines]
            + [100.0 * row["gpu_util"].get(m, 0.0) for m in machines])
    return format_table(headers, body)


def analytics_table(report: Dict) -> str:
    """Per-service, per-stage ingress FPS and drop ratio (Figs 8/12)."""
    rows = []
    for service, stages in report["services"].items():
        for stage in stages:
            rows.append([service, stage["clients"],
                         stage["ingress_fps"], stage["drop_ratio"]])
    return format_table(
        ["service", "clients", "ingress FPS", "drop ratio"], rows)
