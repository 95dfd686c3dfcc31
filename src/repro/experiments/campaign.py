"""Declarative experiment campaigns.

A *campaign* is the full grid a study runs: pipelines × placements ×
client counts, replicated across seeds, persisted to a
:class:`~repro.experiments.store.ResultStore`, and rendered into a
markdown report.  ``python -m repro campaign`` drives it from the
command line; programmatically::

    campaign = Campaign(
        name="edge-baselines",
        pipelines=("scatter", "scatterpp"),
        placements=("C1", "C12"),
        client_counts=(1, 4),
        duration_s=30.0,
        seeds=(0, 1, 2),
    )
    report = run_campaign(campaign, store_dir="campaign-results")
    print(render_report(report))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.cache import CampaignCellCache, encoded_placement
from repro.experiments.parallel import (
    CellFailure,
    TaskOutcome,
    plan_tasks,
    run_tasks,
)
from repro.experiments.repetition import (
    REPLICATED_METRICS,
    ReplicatedMetric,
    aggregate_summaries,
)
from repro.experiments.reporting import format_table
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentSpec,
    MobilitySpec,
    run_experiment,
)
from repro.experiments.store import ResultStore
from repro.metrics.energy import DEFAULT_POWER_MODEL, energy_summary
from repro.scatter.config import (
    PlacementConfig,
    baseline_configs,
    cloud_config,
    hybrid_config,
    scaling_config,
)

#: Cohort cells model this many clients per microscopic client slot:
#: a campaign cell with ``clients`` tracers rides a cohort of
#: ``clients × DEFAULT_COHORT_MULTIPLIER`` modeled clients.
DEFAULT_COHORT_MULTIPLIER = 500


def _cohort_spec(placement, *, num_clients: int, **task) -> ExperimentSpec:
    """The ``cohort`` preset: ``num_clients`` tracers ride a flow-on
    cohort :data:`DEFAULT_COHORT_MULTIPLIER` times their number."""
    return ExperimentSpec(
        placement, num_clients, scatterpp=True, flow=True,
        cohort_size=num_clients * DEFAULT_COHORT_MULTIPLIER, **task)


#: pipeline -> spec preset, called with a campaign task as
#: ``preset(placement, num_clients=, duration_s=, seed=)``.
PRESETS: Dict[str, Callable[..., ExperimentSpec]] = {
    "scatter": ExperimentSpec,
    "scatterpp": partial(ExperimentSpec, scatterpp=True),
    "scatterpp-flow": partial(ExperimentSpec, scatterpp=True, flow=True),
    "mobility": partial(ExperimentSpec, scatterpp=True,
                        stateless_sift=False, mobility=MobilitySpec()),
    "cohort": _cohort_spec,
}
#: Optimizer oracle cells are plain flow-on scAtteR++ runs, so a genome
#: cell replays the flow goldens of its placement.
PRESETS["optimize"] = PRESETS["scatterpp-flow"]


def _preset_runner(preset: Callable[..., ExperimentSpec]) -> Callable:
    def run(placement: PlacementConfig, *, num_clients: int,
            duration_s: float, seed: int):
        return run_experiment(preset(placement, num_clients=num_clients,
                                     duration_s=duration_s, seed=seed))

    return run


def run_optimize_experiment(
        placement: PlacementConfig, *, num_clients: int,
        duration_s: float, seed: int = 0) -> ExperimentResult:
    """One optimizer oracle cell: the ``optimize`` preset's run, then
    post-hoc energy attribution from its counters, which moves no
    event."""
    result = run_experiment(PRESETS["optimize"](
        placement, num_clients=num_clients, duration_s=duration_s,
        seed=seed))
    result.energy = energy_summary(result)
    return result


#: pipeline -> ``runner(placement, *, num_clients, duration_s, seed)``
#: returning an :class:`~repro.experiments.runner.ExperimentResult`;
#: looked up per task, so tests and benchmarks may swap entries.  The
#: optimizer oracle adds post-hoc energy to its preset's run.
RUNNERS: Dict[str, Callable] = {
    name: _preset_runner(preset) for name, preset in PRESETS.items()}
RUNNERS["optimize"] = run_optimize_experiment


@lru_cache(maxsize=None)
def _preset_fingerprint(name: str, cohort_multiplier: int) -> Tuple:
    """Everything the ``name`` preset sets beyond the task fields: its
    spec for a fixed probe task.  Memoized per cohort multiplier, the
    one module setting a preset reads when it is called."""
    probe = PRESETS[name](baseline_configs()["C1"], num_clients=1,
                          duration_s=1.0, seed=0)
    return (repr(probe),)


@lru_cache(maxsize=None)
def _optimize_fingerprint(cohort_multiplier: int) -> Tuple:
    """The ``optimize`` preset's fingerprint plus the power model its
    energy objective reads (``energy_summary``'s default, bound when
    :mod:`repro.metrics.energy` loads), repr'd once."""
    return (_preset_fingerprint("optimize", cohort_multiplier)
            + (repr(DEFAULT_POWER_MODEL),))


#: pipeline -> () -> tuple of ``str`` (each part already ``repr``'d):
#: the extra config the runner injects beyond the CellTask fields,
#: folded into the cell-cache task fingerprint
#: (:func:`repro.experiments.cache.task_fingerprint`).  The parts must
#: be strings: the fingerprint memoizes the encoded extras by value,
#: and equal values with different reprs (``1`` and ``True``, ``500``
#: and ``500.0``) would share one entry.  The optimizer oracle adds the
#: power model its energy objective reads.
RUNNER_FINGERPRINTS: Dict[str, Callable[[], Tuple]] = {
    name: lambda name=name: _preset_fingerprint(
        name, DEFAULT_COHORT_MULTIPLIER)
    for name in PRESETS}
RUNNER_FINGERPRINTS["optimize"] = lambda: _optimize_fingerprint(
    DEFAULT_COHORT_MULTIPLIER)


def resolve_placement(name: str) -> PlacementConfig:
    """Resolve a placement by name (C1..C21, cloud, hybrid, a replica
    vector like ``1,2,2,1,2``, or an optimizer genome spec like
    ``opt:primary=e1;...``)."""
    if name.startswith("opt:"):
        # Genome specs resolve to a placement whose *name is the
        # spec*, so the cell cache fingerprints the full genome via
        # repr(resolved placement).
        from repro.orchestra.optimize import Genome

        return Genome.decode(name).to_placement()
    configs = baseline_configs()
    if name in configs:
        return configs[name]
    if name == "cloud":
        return cloud_config()
    if name == "hybrid":
        return hybrid_config()
    if "," in name:
        counts = [int(part) for part in name.strip("[]").split(",")]
        return scaling_config(counts)
    raise ValueError(f"unknown placement {name!r}")


@dataclass(frozen=True)
class Campaign:
    """The grid definition."""

    name: str
    pipelines: Tuple[str, ...] = ("scatter", "scatterpp")
    placements: Tuple[str, ...] = ("C1", "C2", "C12", "C21")
    client_counts: Tuple[int, ...] = (1, 2, 3, 4)
    duration_s: float = 30.0
    seeds: Tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for pipeline in self.pipelines:
            if pipeline not in RUNNERS:
                raise ValueError(
                    f"unknown pipeline {pipeline!r}; "
                    f"choose from {sorted(RUNNERS)}")
        if not self.placements or not self.client_counts:
            raise ValueError("placements and client_counts must be "
                             "non-empty")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        # A repeated value would plan the same task twice, and run_tasks
        # refuses the second copy, failing a cell that ran fine.
        for axis in ("pipelines", "placements", "client_counts", "seeds"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} repeats a value: {list(values)}")
        if min(self.client_counts) < 1:
            raise ValueError(f"client_counts must be >= 1, got "
                             f"{list(self.client_counts)}")
        for name in self.placements:
            encoded_placement(name)  # fail fast on typos

    @property
    def cells(self) -> List[Tuple[str, str, int]]:
        return [(pipeline, placement, clients)
                for pipeline in self.pipelines
                for placement in self.placements
                for clients in self.client_counts]

    def cell_name(self, pipeline: str, placement: str,
                  clients: int) -> str:
        return f"{self.name}__{pipeline}__{placement}__{clients}c"


@dataclass
class CampaignReport:
    """Aggregated campaign outcome."""

    campaign: Campaign
    #: (pipeline, placement, clients) -> metric -> ReplicatedMetric
    cells: Dict[Tuple[str, str, int], Dict[str, ReplicatedMetric]] \
        = field(default_factory=dict)
    #: (pipeline, placement, clients) -> seed -> trace digest hex.
    digests: Dict[Tuple[str, str, int], Dict[int, str]] \
        = field(default_factory=dict)
    #: Cells that produced no metrics, with per-seed failure records.
    failures: Dict[Tuple[str, str, int], List[CellFailure]] \
        = field(default_factory=dict)
    #: (pipeline, placement, clients) -> raw per-seed summary dicts in
    #: seed order.  ``cells`` keeps only the replicated scalar metrics
    #: (:data:`~repro.experiments.repetition.REPLICATED_METRICS`);
    #: consumers that need the full summary — p95 latency, the energy
    #: block of an ``optimize`` cell — get it here, uncompressed.
    summaries: Dict[Tuple[str, str, int], List[Dict]] \
        = field(default_factory=dict)
    #: Cell-cache stats block (hits/misses/stored/entries/directory),
    #: or ``None`` when the campaign ran uncached.
    cache: Optional[Dict] = None


def _cell_summary(campaign: Campaign, cell: Tuple[str, str, int],
                  metrics: Dict[str, ReplicatedMetric],
                  digests: Dict[int, str]) -> Dict:
    pipeline, placement_name, clients = cell
    summary = {name: {"mean": metric.mean,
                      "std": metric.std,
                      "ci95": metric.ci95_halfwidth,
                      "values": list(metric.values)}
               for name, metric in metrics.items()}
    summary.update({"pipeline": pipeline,
                    "config": placement_name,
                    "clients": clients,
                    "seeds": list(campaign.seeds),
                    "trace_digests": {str(seed): digest
                                      for seed, digest
                                      in digests.items()}})
    return summary


def _failure_summary(campaign: Campaign, cell: Tuple[str, str, int],
                     failures: List[CellFailure]) -> Dict:
    pipeline, placement_name, clients = cell
    return {"pipeline": pipeline,
            "config": placement_name,
            "clients": clients,
            "seeds": list(campaign.seeds),
            "failed": True,
            "failures": [{"seed": failure.task.seed,
                          "kind": failure.kind,
                          "error": failure.error}
                         for failure in failures]}


def run_campaign(campaign: Campaign, *,
                 store_dir: Optional[str] = None,
                 progress: Optional[Callable[[str], None]] = None,
                 workers: Optional[int] = None,
                 task_progress: Optional[Callable[[str], None]] = None,
                 cache: Optional[CampaignCellCache] = None
                 ) -> CampaignReport:
    """Execute every cell of the grid (replicated across seeds).

    ``workers=None``/``0`` runs serially in-process; ``workers>=1``
    runs the (cell, seed) tasks on the shared warm worker pool via
    :mod:`repro.experiments.parallel`.  The two paths are
    contractually identical: same metrics, same trace digests (see
    ``tests/test_determinism.py``).  A cell whose runner raises — or
    kills its worker — is recorded in ``report.failures`` and the
    campaign continues.

    ``cache`` engages the content-addressed cell cache
    (:mod:`repro.experiments.cache`): re-running a campaign computes
    only tasks whose (config, code) key is new and replays the rest
    byte-identically; ``report.cache`` carries the hit/miss stats.
    """
    store = ResultStore(store_dir) if store_dir else None
    report = CampaignReport(campaign=campaign)
    announced = set()

    def cell_progress(outcome: TaskOutcome) -> None:
        cell = outcome.task.cell
        if progress is not None and cell not in announced:
            announced.add(cell)
            progress(f"{cell[0]} / {cell[1]} / {cell[2]} client(s)")

    tasks = plan_tasks(campaign)
    outcomes = run_tasks(tasks, workers=workers or 0,
                         progress=task_progress, cache=cache)
    if cache is not None:
        report.cache = cache.report()
    by_cell: Dict[Tuple[str, str, int], List[TaskOutcome]] = {}
    for outcome in outcomes:  # plan order ⇒ seeds stay ordered
        by_cell.setdefault(outcome.task.cell, []).append(outcome)
        cell_progress(outcome)

    for cell in campaign.cells:
        cell_outcomes = by_cell.get(cell, [])
        failures = [o.failure for o in cell_outcomes if not o.ok]
        if failures:
            report.failures[cell] = failures
            if store is not None:
                store.save(campaign.cell_name(*cell),
                           _failure_summary(campaign, cell, failures))
            continue
        metrics = aggregate_summaries(
            [o.summary for o in cell_outcomes])
        digests = {o.task.seed: o.digest for o in cell_outcomes
                   if o.digest is not None}
        report.cells[cell] = metrics
        report.digests[cell] = digests
        report.summaries[cell] = [o.summary for o in cell_outcomes]
        if store is not None:
            store.save(campaign.cell_name(*cell),
                       _cell_summary(campaign, cell, metrics, digests))
    return report


def render_report(report: CampaignReport,
                  metrics: Sequence[str] = ("fps", "success_rate",
                                            "e2e_ms")) -> str:
    """Markdown-ish tables: one block per pipeline."""
    unknown = [m for m in metrics if m not in REPLICATED_METRICS]
    if unknown:
        raise ValueError(f"unknown metrics {unknown}; choose from "
                         f"{REPLICATED_METRICS}")
    blocks = [f"# Campaign: {report.campaign.name}",
              f"seeds: {list(report.campaign.seeds)}, "
              f"duration: {report.campaign.duration_s:.0f} s"]
    for pipeline in report.campaign.pipelines:
        rows = []
        for placement in report.campaign.placements:
            for clients in report.campaign.client_counts:
                cell = report.cells.get((pipeline, placement, clients))
                if cell is None:
                    continue
                row = [placement, clients]
                for metric in metrics:
                    value = cell[metric]
                    if value.ci95_halfwidth > 0:
                        row.append(f"{value.mean:.2f}"
                                   f"±{value.ci95_halfwidth:.2f}")
                    else:
                        row.append(f"{value.mean:.2f}")
                rows.append(row)
        blocks.append(f"\n## {pipeline}\n" + format_table(
            ["config", "clients"] + list(metrics), rows))
    if report.failures:
        rows = []
        for cell in sorted(report.failures):
            for failure in report.failures[cell]:
                rows.append([cell[0], cell[1], cell[2],
                             failure.task.seed, failure.kind,
                             failure.error.splitlines()[0][:60]])
        blocks.append("\n## failed cells\n" + format_table(
            ["pipeline", "config", "clients", "seed", "kind",
             "error"], rows))
    if report.cache is not None:
        cache = report.cache
        blocks.append(
            "\n## cell cache\n"
            f"hits={cache['hits']} misses={cache['misses']} "
            f"stored={cache['stored']} corrupt={cache['corrupt']} "
            f"entries={cache['entries']} dir={cache['directory']}")
    return "\n".join(blocks)
