"""Property suite for the placement search loop.

Pins the optimizer contracts the PR's acceptance gate leans on:

* **Pareto-front soundness** — no front member strictly dominates
  another, and every archive entry left off the front is dominated by
  some front member;
* **front monotonicity** — ranking happens over the archive of every
  genome ever evaluated, so each round's best capacity (and its whole
  front, under weak dominance) never regresses;
* **sampler closure** — ``random_genome`` only ever emits schedulable
  genomes (replica bounds, known machines, memory fit), under the
  default space and a tight memory override;
* **encode/decode totality** — every genome the sampler can produce
  round-trips through its ``opt:`` spec string bit-identically;
* **determinism** — same seed ⇒ bit-identical front digest, with the
  oracle swapped for a deterministic stub (cheap) and with the real
  campaign oracle at worker counts 0 and 4 (one slow test);
* **oracle dedup** — no genome is evaluated twice within a run, and a
  rerun against the same cell cache replays entirely from cache,
  opening each entry once and listing the cache directory once.

All hypothesis tests run derandomized: the suite is part of tier-1 and
must never flake.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cache import CampaignCellCache
from repro.orchestra.optimize import (Genome, Objectives,
                                      OptimizeConfig, PlacementSearch,
                                      SearchSpace, dominates,
                                      pareto_front, run_search,
                                      static_seed_genomes)
from repro.scatter.config import PIPELINE_ORDER

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ----------------------------------------------------------------------
# Deterministic stub oracle: objectives derived from the spec string
# alone, so search-loop properties run without the simulator.
# ----------------------------------------------------------------------
class StubOracle:
    """Hash-derived objectives; records every spec it is asked about."""

    def __init__(self):
        self.calls = []

    def evaluate(self, specs):
        self.calls.extend(specs)
        results = {}
        provenance = []
        for spec in specs:
            rng = random.Random(spec)
            results[spec] = Objectives(
                capacity=rng.randrange(0, 5),
                p95_ms=round(rng.uniform(40.0, 120.0), 3),
                joules_per_frame=round(rng.uniform(2.0, 9.0), 3),
                cost_units=round(rng.uniform(8.0, 30.0), 3))
            provenance.append({"genome": spec, "clients": 0,
                               "seed": 0, "fingerprint": "stub"})
        return results, provenance

    def cache_report(self):
        return None


def stub_search(seed, *, population=6, generations=3):
    config = OptimizeConfig(seed=seed, population=population,
                            generations=generations)
    search = PlacementSearch(config, oracle=StubOracle())
    return search, search.run()


# ----------------------------------------------------------------------
# Pareto machinery
# ----------------------------------------------------------------------
@settings(max_examples=50, derandomize=True, deadline=None)
@given(seeds)
def test_front_is_mutually_nondominated(seed):
    __, report = stub_search(seed)
    vectors = [(e["genome"],
                Objectives(**e["objectives"]).vector())
               for e in report.front]
    assert vectors, "front must be non-empty"
    for spec_a, a in vectors:
        for spec_b, b in vectors:
            if spec_a != spec_b:
                assert not dominates(a, b), (spec_a, spec_b)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seeds)
def test_off_front_entries_are_dominated(seed):
    """pareto_front keeps exactly the nondominated archive subset."""
    rng = random.Random(seed)
    space = SearchSpace()
    oracle = StubOracle()
    specs = [space.random_genome(rng).encode() for __ in range(12)]
    archive, __ = oracle.evaluate(specs)
    front = pareto_front(archive)
    front_specs = {spec for spec, __ in front}
    for spec, objectives in archive.items():
        if spec in front_specs:
            continue
        assert any(dominates(member.vector(), objectives.vector())
                   for __, member in front), spec


def reference_pareto_front(archive):
    """The all-pairs formula ``pareto_front`` replaced: every entry is
    tested against every archive entry, vectors rebuilt per pair."""
    entries = sorted(archive.items(),
                     key=lambda kv: (kv[1].vector(), kv[0]))
    return [(spec, objectives) for spec, objectives in entries
            if not any(dominates(other.vector(), objectives.vector())
                       for __, other in entries)]


# Few values per objective, so archives hold tied vectors and entries
# that tie on some objectives but not others.
tied_objectives = st.builds(
    Objectives,
    capacity=st.integers(min_value=0, max_value=3),
    p95_ms=st.sampled_from([0.0, 40.0, 60.5, 99.0]),
    joules_per_frame=st.sampled_from([2.0, 3.5, float("inf")]),
    cost_units=st.sampled_from([8.0, 12.0]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.dictionaries(st.text(min_size=1, max_size=6), tied_objectives,
                       max_size=40))
def test_front_matches_the_all_pairs_formula(archive):
    assert pareto_front(archive) == reference_pareto_front(archive)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(seeds)
def test_front_monotonically_non_worsening(seed):
    """Each round's front weakly dominates the previous one."""
    __, report = stub_search(seed)
    previous = None
    for entry in report.generations:
        front = [Objectives(**e["objectives"]).vector()
                 for e in entry["front"]]
        if previous is not None:
            assert entry["best_capacity"] >= previous["best_capacity"]
            for old in previous["vectors"]:
                assert any(
                    all(x <= y for x, y in zip(new, old))
                    for new in front), (old, entry["generation"])
        previous = {"best_capacity": entry["best_capacity"],
                    "vectors": front}


# ----------------------------------------------------------------------
# Sampler closure + encode/decode totality
# ----------------------------------------------------------------------
@settings(max_examples=50, derandomize=True, deadline=None)
@given(seeds)
def test_operators_respect_tight_memory(seed):
    """``random_genome``, the search's one variation operator, emits
    only schedulable genomes that round-trip through their spec — in
    the default space and under a tight memory override.  One replica
    of every stage needs 4.9 GB, so 6 GB admits the single-replica
    pipeline but rejects most replica additions."""
    for space in (SearchSpace(),
                  SearchSpace(machines=("e1",), memory_gb={"e1": 6.0})):
        rng = random.Random(seed)
        for __ in range(25):
            genome = space.random_genome(rng)
            assert space.is_schedulable(genome)
            assert Genome.decode(genome.encode()) == genome


def test_static_seeds_are_schedulable_and_distinct():
    space = SearchSpace()
    genomes = static_seed_genomes(space)
    assert len(genomes) >= 4, "paper statics must survive the filter"
    specs = [g.encode() for g in genomes]
    assert len(set(specs)) == len(specs)
    for genome in genomes:
        assert space.is_schedulable(genome)
        assert len(genome.machines) == len(PIPELINE_ORDER)


# ----------------------------------------------------------------------
# Determinism + dedup (stub oracle)
# ----------------------------------------------------------------------
@settings(max_examples=20, derandomize=True, deadline=None)
@given(seeds)
def test_same_seed_bit_identical_front(seed):
    __, first = stub_search(seed)
    __, second = stub_search(seed)
    assert first.front == second.front
    assert first.front_digest() == second.front_digest()
    assert first.generations == second.generations


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seeds)
def test_no_genome_evaluated_twice(seed):
    search, report = stub_search(seed)
    oracle = search.oracle
    assert len(oracle.calls) == len(set(oracle.calls))
    assert report.evaluations == len(oracle.calls)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(seeds)
def test_budget_is_a_hard_cap(seed):
    config = OptimizeConfig(seed=seed, population=6, generations=4,
                            budget=9)
    search = PlacementSearch(config, oracle=StubOracle())
    report = search.run()
    assert report.evaluations <= 9
    assert len(search.oracle.calls) <= 9


# ----------------------------------------------------------------------
# Real oracle: worker-count bit-identity and cache dedup (slow-ish,
# so one tiny configuration each).
# ----------------------------------------------------------------------
TINY = dict(population=3, generations=1, ladder=(1,),
            duration_s=1.5, machines=("e1",))


def test_workers_zero_and_four_identical_front():
    serial = run_search(OptimizeConfig(seed=7, workers=0, **TINY))
    sharded = run_search(OptimizeConfig(seed=7, workers=4, **TINY))
    assert serial.front == sharded.front
    assert serial.front_digest() == sharded.front_digest()
    assert serial.oracle_calls == sharded.oracle_calls


def test_cell_cache_dedups_across_runs(tmp_path):
    config = OptimizeConfig(seed=7, **TINY)
    cold = run_search(config, cache=CampaignCellCache(tmp_path))
    assert cold.cache["misses"] == len(cold.oracle_calls)
    assert cold.cache["hits"] == 0
    warm = run_search(config, cache=CampaignCellCache(tmp_path))
    assert warm.cache["misses"] == 0
    assert warm.cache["hits"] == len(warm.oracle_calls)
    assert warm.front == cold.front
    assert warm.front_digest() == cold.front_digest()


def test_warm_search_reads_each_entry_once_and_scans_once(tmp_path):
    """A warm rerun pays only its reads: one open per cached cell over
    every oracle round, and one directory scan, for the final cache
    report."""
    from benchmarks.bench_placement_search import CacheIO

    config = OptimizeConfig(seed=7, **dict(TINY, generations=2))
    cold = run_search(config, cache=CampaignCellCache(tmp_path))
    assert sum(1 for g in cold.generations if g["evaluated"]) >= 2
    with CacheIO(tmp_path) as io:
        warm = run_search(config, cache=CampaignCellCache(tmp_path))
    assert warm.cache["hits"] == len(warm.oracle_calls) > 0
    assert warm.cache["misses"] == 0
    entries = {str(path) for path in tmp_path.glob("*.json")}
    assert len(entries) == len(warm.oracle_calls)
    assert set(io.opens) == entries
    assert set(io.opens.values()) == {1}
    assert io.scans == 1
