"""A/B protocol: alternating perfbench runs of two committed revisions.

Run from the repository root::

    python benchmarks/ab.py BASE CHANGE --workloads cells search \\
        --seeds 801 802 803 804 --pairs 4 --raw ab.json
    python benchmarks/ab.py --render ab.json      # table from raw JSON

Each side is a committed revision, extracted with ``git archive`` into
a fresh directory for every run, and every run is one
``perfbench/run.py`` process for one workload at one seed.  Pair ``k``
runs at ``seeds[k % len(seeds)]`` and alternates which side goes
first, so slow drift of the host favours neither side.  The steps are
split as T1/T2/T3:

* T1 :func:`run_pairs` writes every run's end-to-end metrics, and the
  revisions they ran, as raw JSON;
* T2 :func:`aggregate` turns the raw runs into one row per workload
  and metric: each side's median and interquartile range, and in how
  many pairs the change read lower;
* T3 :func:`render` prints the rows as a Markdown table.

Every end-to-end metric perfbench reports is better lower.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("base", "change")


def resolve(rev: str, repo: pathlib.Path = ROOT) -> str:
    """The commit a revision name points at."""
    return subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=repo,
        check=True, capture_output=True, text=True).stdout.strip()


def extract(commit: str, into: pathlib.Path,
            repo: pathlib.Path = ROOT) -> None:
    """The committed files of ``commit``, written under ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=repo, check=True, capture_output=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as files:
        files.extractall(into)


def perfbench(checkout: pathlib.Path, workload: str, seed: int,
              seconds: Optional[float]) -> Dict:
    """One perfbench process in ``checkout``: its result line, or the
    error that kept it from printing one."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    proc = subprocess.run(command, cwd=checkout, env=env,
                          capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": (proc.stderr.strip().splitlines() or ["no output"])
                [-1], "returncode": proc.returncode}
    return {"correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {name: row["value"]
                        for name, row in result["metrics"].items()}}


def run_pairs(base: str, change: str, workloads: Sequence[str],
              seeds: Sequence[int], pairs: int,
              seconds: Optional[float] = None,
              log=print) -> Dict:
    """T1: run ``pairs`` alternating pairs per workload; the raw JSON."""
    commits = {"base": resolve(base), "change": resolve(change)}
    runs: List[Dict] = []
    for pair in range(pairs):
        seed = seeds[pair % len(seeds)]
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in workloads:
            for position, side in enumerate(order):
                with tempfile.TemporaryDirectory(
                        prefix=f"ab-{side}-") as tmp:
                    checkout = pathlib.Path(tmp)
                    extract(commits[side], checkout)
                    run = perfbench(checkout, workload, seed, seconds)
                run.update(pair=pair, side=side, workload=workload,
                           seed=seed, first=position == 0)
                runs.append(run)
                log(f"pair {pair} {workload} seed {seed} {side}: "
                    + (run["error"] if "error" in run else
                       f"{run['failed']} failed, " + ", ".join(
                           f"{name} {value:.6g}" for name, value
                           in sorted(run["metrics"].items()))))
    return {"revisions": {"base": base, "change": change},
            "commits": commits, "workloads": list(workloads),
            "seeds": list(seeds), "pairs": pairs, "seconds": seconds,
            "runs": runs}


def _iqr(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def aggregate(raw: Dict) -> List[Dict]:
    """T2: one row per workload and metric, over the pairs in which
    both sides printed a result."""
    by_pair: Dict[tuple, Dict[str, Dict]] = {}
    for run in raw["runs"]:
        by_pair.setdefault((run["workload"], run["pair"]),
                           {})[run["side"]] = run
    rows = []
    for workload in raw["workloads"]:
        complete = [sides for (name, __), sides in sorted(by_pair.items())
                    if name == workload and all(
                        "metrics" in sides.get(side, {}) for side in SIDES)]
        if not complete:
            continue
        metrics = sorted(set.intersection(*(
            set(sides[side]["metrics"]) for sides in complete
            for side in SIDES)))
        for metric in metrics:
            values = {side: [sides[side]["metrics"][metric]
                             for sides in complete] for side in SIDES}
            medians = {side: statistics.median(values[side])
                       for side in SIDES}
            rows.append({
                "workload": workload, "metric": metric,
                "pairs": len(complete),
                "lower": sum(c < b for b, c in zip(values["base"],
                                                   values["change"])),
                "base_median": medians["base"],
                "base_iqr": _iqr(values["base"]),
                "change_median": medians["change"],
                "change_iqr": _iqr(values["change"]),
                "ratio": (medians["change"] / medians["base"]
                          if medians["base"] else None)})
    return rows


def render(rows: Iterable[Dict]) -> str:
    """T3: the rows as a Markdown table."""
    lines = ["| workload | metric | base median | base IQR | "
             "change median | change IQR | change / base | "
             "change lower in |",
             "|---|---|---|---|---|---|---|---|"]
    for row in rows:
        ratio = "–" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(
            f"| {row['workload']} | {row['metric']} | "
            f"{row['base_median']:.4g} | {row['base_iqr']:.3g} | "
            f"{row['change_median']:.4g} | {row['change_iqr']:.3g} | "
            f"{ratio} | {row['lower']} of {row['pairs']} |")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", help="the parent revision")
    parser.add_argument("change", nargs="?", help="the changed revision")
    parser.add_argument("--workloads", nargs="+",
                        default=["cells", "search", "vision"])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=None,
                        help="perfbench's --seconds (default: its own)")
    parser.add_argument("--raw", type=pathlib.Path,
                        help="where to write the raw runs as JSON")
    parser.add_argument("--render", type=pathlib.Path, metavar="RAW",
                        help="render the table of an earlier raw file")
    args = parser.parse_args(argv)
    if args.render is not None:
        raw = json.loads(args.render.read_text())
    else:
        if args.base is None or args.change is None:
            parser.error("give two revisions, or --render RAW")
        if args.pairs < 1:
            parser.error("--pairs must be at least 1")
        raw = run_pairs(args.base, args.change, args.workloads,
                        args.seeds, args.pairs, args.seconds,
                        log=lambda line: print(line, file=sys.stderr))
        if args.raw is not None:
            args.raw.write_text(json.dumps(raw, indent=1) + "\n")
    print(render(aggregate(raw)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
