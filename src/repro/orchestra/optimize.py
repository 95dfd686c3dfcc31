"""Multi-objective placement search.

The paper *characterizes* twelve hand-picked placements; this module
*searches* the space instead.  Candidates are genomes (a replica map
per pipeline stage), evaluated against the simulator through campaign
cells, and ranked by Pareto dominance over four objectives —

* **capacity** (maximize) — the largest client count on the probe
  ladder meeting the XR SLO (mean FPS ≥ 20, p95 E2E ≤ 100 ms);
* **p95 latency at capacity** (minimize);
* **joules per delivered frame** (minimize) — from the device/server
  energy model (:mod:`repro.metrics.energy`);
* **cost units** (minimize) — machine-rate-weighted replica-seconds.

The search samples: round 0 evaluates every static placement the
paper characterizes plus random genomes up to ``population``, and each
later round evaluates ``population`` fresh uniform draws.  Sampling,
not breeding, because at equal budgets a genetic loop found no better
front on this space (DESIGN §15).

Design constraints, in priority order:

1. **Determinism is a contract.**  The loop draws every random choice
   from one seeded ``random.Random``; the oracle inherits the task
   runner's serial ≡ sharded ≡ cached guarantee.  Same seed ⇒
   bit-identical Pareto front, at any worker count
   (``tests/test_optimize_properties.py``).
2. **Genomes are cache keys.**  A genome encodes to an ``opt:`` spec
   string that :func:`repro.experiments.campaign.resolve_placement`
   decodes back; the content-addressed cell cache fingerprints the
   resolved placement plus the spec itself, so revisiting a genome —
   within a run, across runs, across worker counts — replays from
   cache instead of re-simulating.
3. **The front never regresses.**  Ranking happens over an archive of
   every genome ever evaluated, so each round's front weakly
   dominates the previous one by construction.

The oracle runs the ``optimize`` pipeline of
:data:`repro.experiments.campaign.RUNNERS`; everything here imports
the experiments layer lazily to keep ``orchestra`` importable on its
own.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.cluster.machine import GB
from repro.cluster.testbed import server_machines
from repro.scatter import config as scatter_config
from repro.scatter.config import PIPELINE_ORDER, PlacementConfig

if TYPE_CHECKING:
    from repro.experiments.cache import CampaignCellCache

#: Genome spec strings start with this prefix; everything after it is
#: the encoded placement.  The grammar is comma-free so specs survive
#: the CLI's ``--placements a,b,c`` splitting:
#: ``opt:primary=e1;sift=e2+e1;...;matching=e2``.
SPEC_PREFIX = "opt:"

#: Most replicas a genome may give one pipeline stage.
MAX_REPLICAS_PER_SERVICE = 3


class OptimizeError(ValueError):
    """Raised for malformed genomes, infeasible search configs, or
    failed oracle evaluations.  A ``ValueError`` so campaign-layer
    fail-fast validation (``Campaign.__post_init__`` resolving every
    placement) treats a bad genome spec like any other bad name."""


# ----------------------------------------------------------------------
# Genome encoding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Genome:
    """One candidate: a replica map.

    ``machines[i]`` lists the machine of every replica of
    ``PIPELINE_ORDER[i]``, in deployment order — the same shape as
    :class:`~repro.scatter.config.PlacementConfig.placements`.  Order
    is part of the genome: it moves p95 latency, so ``sift=e2+e1`` and
    ``sift=e1+e2`` are distinct candidates (DESIGN §15).
    """

    machines: Tuple[Tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if len(self.machines) != len(PIPELINE_ORDER):
            raise OptimizeError(
                f"need {len(PIPELINE_ORDER)} replica lists, "
                f"got {len(self.machines)}")
        for service, replicas in zip(PIPELINE_ORDER, self.machines):
            if not replicas:
                raise OptimizeError(f"{service} has no replicas")
            for machine in replicas:
                if not machine or any(c in machine for c in ";+=@,"):
                    raise OptimizeError(
                        f"bad machine name {machine!r} for {service}")

    # ------------------------------------------------------------------
    def encode(self) -> str:
        """The canonical ``opt:`` spec string (cache-key material)."""
        return SPEC_PREFIX + ";".join(
            f"{service}={'+'.join(replicas)}"
            for service, replicas in zip(PIPELINE_ORDER, self.machines))

    @classmethod
    def decode(cls, spec: str) -> "Genome":
        if not spec.startswith(SPEC_PREFIX):
            raise OptimizeError(f"not a genome spec: {spec!r}")
        parts = spec[len(SPEC_PREFIX):].split(";")
        if len(parts) != len(PIPELINE_ORDER):
            raise OptimizeError(
                f"expected {len(PIPELINE_ORDER)} services in {spec!r}")
        machines: List[Tuple[str, ...]] = []
        for service, part in zip(PIPELINE_ORDER, parts):
            prefix = f"{service}="
            if not part.startswith(prefix):
                raise OptimizeError(
                    f"expected {service!r} at {part!r} in {spec!r}")
            replicas = tuple(m for m in part[len(prefix):].split("+"))
            if any(not m for m in replicas):
                raise OptimizeError(
                    f"empty machine name in {part!r}")
            machines.append(replicas)
        return cls(machines=tuple(machines))

    # ------------------------------------------------------------------
    def to_placement(self) -> PlacementConfig:
        """A :class:`PlacementConfig` whose *name is the spec* — so the
        cell cache's ``repr(resolved placement)`` covers the whole
        genome."""
        return PlacementConfig(self.encode(), {
            service: list(replicas)
            for service, replicas in zip(PIPELINE_ORDER, self.machines)})

    @classmethod
    def from_placement(cls, placement: PlacementConfig) -> "Genome":
        """Lift any static placement (C1..C21, cloud, vectors) into
        genome space."""
        return cls(machines=tuple(
            tuple(placement.placements[service])
            for service in PIPELINE_ORDER))


# ----------------------------------------------------------------------
# Search space: schedulability and sampling
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _testbed_memory_gb() -> Tuple[Tuple[str, float], ...]:
    """Each testbed server's memory (GB), read once per process: the
    testbed is fixed, and every search builds a space."""
    return tuple((name, machine.memory.capacity_bytes / GB)
                 for name, machine in server_machines().items())


@dataclass(frozen=True)
class SearchSpace:
    """The feasible genome set and its uniform sampler.

    :meth:`random_genome` is *closed over schedulable genomes*: a draw
    that breaks replica bounds or machine memory collapses to a
    known-schedulable genome rather than reach the oracle (the
    property ``tests/test_optimize_properties.py`` pins).
    """

    machines: Tuple[str, ...] = ("e1", "e2")
    #: Machine memory (GB), the testbed's by default — the fit check
    #: that keeps sampling from sending the oracle a genome the
    #: scheduler would reject.
    memory_gb: Mapping[str, float] = field(
        default_factory=lambda: dict(_testbed_memory_gb()))

    def __post_init__(self) -> None:
        if not self.machines:
            raise OptimizeError("need at least one machine")
        for machine in self.machines:
            if machine not in self.memory_gb:
                raise OptimizeError(
                    f"machine {machine!r} missing from memory_gb")

    # ------------------------------------------------------------------
    def is_schedulable(self, genome: Genome) -> bool:
        """Replica bounds, known machines, and memory fit."""
        loads: Dict[str, float] = {}
        for service, replicas in zip(PIPELINE_ORDER, genome.machines):
            if not 1 <= len(replicas) <= MAX_REPLICAS_PER_SERVICE:
                return False
            for machine in replicas:
                if machine not in self.machines:
                    return False
                loads[machine] = (
                    loads.get(machine, 0.0)
                    + scatter_config.SERVICE_MEMORY_BYTES[service])
        for machine, used in loads.items():
            if used > self.memory_gb[machine] * GB:
                return False
        return True

    # ------------------------------------------------------------------
    def random_genome(self, rng: random.Random) -> Genome:
        machines = []
        for __ in PIPELINE_ORDER:
            count = rng.choice((1, 1, 2))
            machines.append(tuple(rng.choice(self.machines)
                                  for __ in range(count)))
        genome = Genome(machines=tuple(machines))
        if not self.is_schedulable(genome):
            # Memory can only overflow on tiny memory_gb overrides;
            # collapse to single replicas on the first machine.
            genome = Genome(machines=tuple(
                (self.machines[0],) for __ in PIPELINE_ORDER))
        return genome


# ----------------------------------------------------------------------
# Objectives and Pareto machinery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Objectives:
    """One genome's measured objective vector."""

    capacity: int
    p95_ms: float
    joules_per_frame: float
    cost_units: float

    def vector(self) -> Tuple[float, float, float, float]:
        """All-minimize form (capacity negated) for dominance."""
        return (-float(self.capacity), self.p95_ms,
                self.joules_per_frame, self.cost_units)

    def as_dict(self) -> Dict:
        return {"capacity": self.capacity,
                "p95_ms": self.p95_ms,
                "joules_per_frame": self.joules_per_frame,
                "cost_units": self.cost_units}


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Strict Pareto dominance on all-minimize vectors."""
    return (all(x <= y for x, y in zip(a, b))
            and any(x < y for x, y in zip(a, b)))


def pareto_front(archive: Mapping[str, Objectives]
                 ) -> List[Tuple[str, Objectives]]:
    """Nondominated members of the archive, deterministically ordered
    (best capacity first, then p95, joules, cost, spec).

    Each entry is tested only against the front members accepted
    before it.  That is enough: a dominator is no worse anywhere and
    better somewhere, so it sorts first, and since dominance is
    transitive every dominated entry has a nondominated dominator.
    (The oracle's vectors hold no NaN, which would break both.)
    """
    entries = sorted((objectives.vector(), spec, objectives)
                     for spec, objectives in archive.items())
    front: List[Tuple[str, Objectives]] = []
    kept: List[Tuple[float, float, float, float]] = []
    for vector, spec, objectives in entries:
        if any(dominates(other, vector) for other in kept):
            continue
        kept.append(vector)
        front.append((spec, objectives))
    return front


# ----------------------------------------------------------------------
# The campaign-cell oracle
# ----------------------------------------------------------------------
class CampaignOracle:
    """Evaluates genome batches as ``optimize`` campaign cells.

    One batch is one plan of tasks, every unevaluated genome × the
    full client ladder × one seed, run by
    :func:`repro.experiments.parallel.run_tasks`: sharded across
    ``workers`` and replayed from ``cache`` on revisits.  The oracle
    reads each rung's summary from its task outcome, so a warm batch
    costs its cache reads and no campaign report (DESIGN §14).
    Grading reuses the capacity probe's SLO: capacity is the longest
    ladder prefix meeting it; p95, joules-per-frame, and cost are read
    at the capacity point.
    """

    def __init__(self, *, ladder: Tuple[int, ...] = (1, 2, 3, 4),
                 duration_s: float = 4.0, seed: int = 0,
                 workers: int = 0,
                 cache: Optional[CampaignCellCache] = None):
        if (not ladder or list(ladder) != sorted(set(ladder))
                or ladder[0] < 1):
            raise OptimizeError(f"ladder must be strictly increasing "
                                f"client counts >= 1, got {ladder}")
        if duration_s <= 0:
            raise OptimizeError(
                f"duration_s must be positive, got {duration_s}")
        self.ladder = tuple(ladder)
        self.duration_s = duration_s
        self.seed = seed
        self.workers = workers
        # One CampaignCellCache (or None) for every round, so hit/miss
        # counters accumulate across the search.
        self.cache = cache

    def evaluate(self, specs: Sequence[str]
                 ) -> Tuple[Dict[str, Objectives], List[Dict]]:
        """Objectives per spec plus per-cell provenance records.

        A spec that does not decode raises before any cell runs; a
        failed cell, a repeated spec included, raises
        :class:`OptimizeError` naming every failed rung.
        """
        from repro.experiments.cache import task_fingerprint
        from repro.experiments.capacity import CapacitySlo
        from repro.experiments.parallel import CellTask, run_tasks

        tasks = [CellTask(pipeline="optimize", placement=spec,
                          clients=clients, seed=self.seed,
                          duration_s=self.duration_s)
                 for spec in specs for clients in self.ladder]
        calls = [{"genome": task.placement, "clients": task.clients,
                  "seed": task.seed,
                  "fingerprint": task_fingerprint(task)}
                 for task in tasks]
        outcomes = run_tasks(tasks, workers=self.workers, cache=self.cache)
        failed = sorted(
            f"{outcome.task.placement}@{outcome.task.clients}c: "
            f"{outcome.failure.error.splitlines()[0]}"
            for outcome in outcomes if not outcome.ok)
        if failed:
            raise OptimizeError(
                "oracle cells failed: " + "; ".join(failed))

        ladders: Dict[str, Dict[int, Dict]] = {}
        for outcome in outcomes:
            ladders.setdefault(outcome.task.placement, {})[
                outcome.task.clients] = outcome.summary
        slo = CapacitySlo()
        results: Dict[str, Objectives] = {}
        for spec in specs:
            rungs = ladders[spec]
            capacity = 0
            for clients in self.ladder:
                summary = rungs[clients]
                if not slo.met_by(summary["fps"],
                                  summary["p95_e2e_ms"]):
                    break
                capacity = clients
            graded = rungs[capacity if capacity else self.ladder[0]]
            energy = graded.get("energy") or {}
            joules = energy.get("joules_per_frame")
            results[spec] = Objectives(
                capacity=capacity,
                p95_ms=float(graded["p95_e2e_ms"]),
                joules_per_frame=(float(joules) if joules is not None
                                  else float("inf")),
                cost_units=float(energy.get("cost_units", 0.0)))
        return results, calls

    def cache_report(self) -> Optional[Dict]:
        return self.cache.report() if self.cache is not None else None


# ----------------------------------------------------------------------
# The search loop
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OptimizeConfig:
    """Everything that parameterizes one search run."""

    name: str = "optimize"
    seed: int = 0
    #: Genomes per round: round 0 is every static placement plus
    #: random draws up to this size; each later round is this many
    #: fresh draws.
    population: int = 8
    #: Rounds after round 0.
    generations: int = 3
    #: Hard cap on distinct genomes sent to the oracle (None = only
    #: ``population × (generations + 1)`` bounds the run).
    budget: Optional[int] = None
    ladder: Tuple[int, ...] = (1, 2, 3, 4)
    duration_s: float = 4.0
    oracle_seed: int = 0
    workers: int = 0
    machines: Tuple[str, ...] = ("e1", "e2")

    def __post_init__(self) -> None:
        if self.population < 2:
            raise OptimizeError("population must be >= 2")
        if self.generations < 0:
            raise OptimizeError("generations must be >= 0")
        if self.budget is not None and self.budget < 1:
            raise OptimizeError("budget must be >= 1")

    def as_dict(self) -> Dict:
        return {"name": self.name, "seed": self.seed,
                "population": self.population,
                "generations": self.generations,
                "budget": self.budget,
                "ladder": list(self.ladder),
                "duration_s": self.duration_s,
                "oracle_seed": self.oracle_seed,
                "machines": list(self.machines)}


@dataclass
class OptimizationReport:
    """Serializable outcome of one search run."""

    config: Dict
    #: Nondominated archive members: [{"genome", "objectives"}],
    #: best-capacity first, deterministically ordered.
    front: List[Dict]
    #: Per-round log: evaluations, archive size, front snapshot.
    generations: List[Dict]
    #: Distinct genomes sent to the oracle.
    evaluations: int
    #: Every oracle cell: genome, clients, seed, cell fingerprint.
    oracle_calls: List[Dict]
    #: Cell-cache stats (hits/misses/stored), or None when uncached.
    cache: Optional[Dict] = None

    def as_dict(self) -> Dict:
        return {"config": self.config, "front": self.front,
                "generations": self.generations,
                "evaluations": self.evaluations,
                "oracle_calls": self.oracle_calls,
                "cache": self.cache}

    def front_digest(self) -> str:
        """Blake2b over the canonical front JSON — the bit-identity
        witness two same-seed runs must agree on."""
        payload = json.dumps(self.front, sort_keys=True)
        return hashlib.blake2b(payload.encode(),
                               digest_size=16).hexdigest()

    def best(self) -> Optional[Dict]:
        return self.front[0] if self.front else None


def static_placements() -> List[PlacementConfig]:
    """The paper's characterized placements: C1, C2, C12, C21, cloud,
    hybrid and three scaled replica vectors."""
    from repro.scatter.config import (baseline_configs, cloud_config,
                                      hybrid_config, scaling_config)

    candidates = list(baseline_configs().values())
    candidates += [cloud_config(), hybrid_config()]
    candidates += [scaling_config(vector) for vector in
                   ([2, 2, 1, 1, 1], [1, 2, 1, 1, 2], [1, 2, 2, 1, 2])]
    return candidates


def static_seed_genomes(space: SearchSpace) -> List[Genome]:
    """Known-good static placements lifted into genome space — the
    paper's configurations open round 0 so the front starts at the
    characterized frontier and can only improve on it."""
    genomes = []
    for placement in static_placements():
        genome = Genome.from_placement(placement)
        if space.is_schedulable(genome):
            genomes.append(genome)
    return genomes


class PlacementSearch:
    """Seeded random sampling with Pareto ranking over the archive."""

    def __init__(self, config: OptimizeConfig, *, oracle=None,
                 cache: Optional[CampaignCellCache] = None):
        self.config = config
        self.space = SearchSpace(machines=tuple(config.machines))
        self.oracle = oracle if oracle is not None else CampaignOracle(
            ladder=config.ladder, duration_s=config.duration_s,
            seed=config.oracle_seed, workers=config.workers,
            cache=cache)

    # ------------------------------------------------------------------
    def seed_population(self, rng: random.Random) -> List[Genome]:
        population = static_seed_genomes(self.space)
        while len(population) < self.config.population:
            population.append(self.space.random_genome(rng))
        return population

    # ------------------------------------------------------------------
    def run(self) -> OptimizationReport:
        config = self.config
        rng = random.Random(config.seed)
        # Sampling reads no result (only the budget and the dedup do,
        # and they read specs), so every round is planned first and
        # the oracle runs all of them as one batch.
        rounds: List[List[str]] = []
        planned: set = set()
        population = self.seed_population(rng)
        for generation in range(config.generations + 1):
            new_specs = []
            for genome in population:
                spec = genome.encode()
                if spec not in planned and spec not in new_specs:
                    new_specs.append(spec)
            if config.budget is not None:
                remaining = config.budget - len(planned)
                new_specs = new_specs[:max(0, remaining)]
            rounds.append(new_specs)
            planned.update(new_specs)
            exhausted = (config.budget is not None
                         and len(planned) >= config.budget)
            if generation == config.generations or exhausted:
                break
            population = [self.space.random_genome(rng)
                          for __ in range(config.population)]

        specs = [spec for new_specs in rounds for spec in new_specs]
        results, oracle_calls = (self.oracle.evaluate(specs) if specs
                                 else ({}, []))
        archive: Dict[str, Objectives] = {}
        generation_log: List[Dict] = []
        for generation, new_specs in enumerate(rounds):
            archive.update((spec, results[spec]) for spec in new_specs)
            front = pareto_front(archive)
            generation_log.append({
                "generation": generation,
                "evaluated": len(new_specs),
                "archive": len(archive),
                "front": [{"genome": spec,
                           "objectives": objectives.as_dict()}
                          for spec, objectives in front],
                "best_capacity": max(
                    (o.capacity for __, o in front), default=0),
            })

        return OptimizationReport(
            config=config.as_dict(),
            front=generation_log[-1]["front"],
            generations=generation_log,
            evaluations=len(specs),
            oracle_calls=oracle_calls,
            cache=self.oracle.cache_report()
            if hasattr(self.oracle, "cache_report") else None)


def run_search(config: OptimizeConfig, *,
               cache: Optional[CampaignCellCache] = None
               ) -> OptimizationReport:
    """Convenience wrapper: build and run one search."""
    return PlacementSearch(config, cache=cache).run()
