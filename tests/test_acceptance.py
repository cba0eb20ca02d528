"""Acceptance suite: one test per release criterion.

Each criterion is a single test function; the conftest hook prints one
PASS/FAIL line per criterion after the run.  Expected values marked as
frozen were computed by independent means (brute-force subset sweeps,
direct combination enumeration, dual traversals that must agree) before
being pinned here.
"""

from __future__ import annotations

import gc
import itertools
import random
import time

import pytest

import helpers
from chordalenum import (Completion, Graph, TraversalStats,
                         brute_force_minimal_completions, canonical_path,
                         children, chordal_completion_system, is_chordal,
                         is_chordal_completion, is_minimal, next_toward,
                         non_edges, parent, proximity, prune, removable_edges,
                         removal_order, reverse_search, visited_set_search)
from helpers import flip_graph

# Random cubic graph on 14 vertices (degree-3 throughout), drawn once from a
# seeded generator and frozen; both traversals agree it has 17697 minimal
# chordal completions.  Large enough for the space and delay criteria.
BIG_INSTANCE_EDGES = [
    (0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (2, 8), (2, 11), (3, 12),
    (4, 6), (4, 11), (4, 13), (5, 8), (5, 9), (6, 9), (6, 13), (7, 9),
    (7, 10), (7, 12), (8, 10), (10, 13), (11, 12),
]
BIG_INSTANCE_SOLUTIONS = 17697

RANDOM_CORPUS_SEED = 20260814


def _random_corpus(count: int = 200) -> list[Graph]:
    """Seeded random labelled graphs with n <= 8 and at most 18 non-edges."""
    rng = random.Random(RANDOM_CORPUS_SEED)
    out = []
    while len(out) < count:
        n = rng.randint(4, 8)
        k = rng.randint(0, min(18, n * (n - 1) // 2))
        out.append(helpers.random_graph(rng, n, k))
    return out


@pytest.fixture(scope="module")
def big_instance_run():
    """One instrumented traversal of the large random instance, shared by
    the retention and delay criteria: reverse search with wall-clock gaps
    recorded, then the visited-set baseline on the same graph."""
    g = Graph(14, BIG_INSTANCE_EDGES)
    system = chordal_completion_system(g)
    rev_stats = TraversalStats(record_gaps=True)
    emissions = []
    gaps = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        last = time.perf_counter()
        for f in reverse_search(system, rev_stats):
            now = time.perf_counter()
            gaps.append(now - last)
            emissions.append(f)
            last = now
    finally:
        if gc_was_enabled:
            gc.enable()
    vis_stats = TraversalStats()
    visited = set(visited_set_search(system, vis_stats))
    return {
        "graph": g,
        "emissions": emissions,
        "gaps": gaps,
        "rev_stats": rev_stats,
        "vis_stats": vis_stats,
        "visited": visited,
    }


def test_criterion_1_exhaustive_agreement_on_small_and_random_graphs():
    # Every graph on up to 6 vertices, one per isomorphism class (connected
    # and disconnected alike), then 200 seeded random labelled graphs.
    for g in helpers.atlas_graphs(6):
        system = chordal_completion_system(g)
        via_reverse = set(reverse_search(system))
        via_visited = set(visited_set_search(system))
        oracle = brute_force_minimal_completions(g).solutions
        assert via_reverse == via_visited == oracle, g.edges
    for g in _random_corpus():
        system = chordal_completion_system(g)
        via_reverse = set(reverse_search(system))
        via_visited = set(visited_set_search(system))
        oracle = brute_force_minimal_completions(g, limit=18).solutions
        assert via_reverse == via_visited == oracle, g.edges


def test_criterion_2_known_cycle_counts_are_exact():
    # Frozen counts 2, 5, 14 were obtained from the brute-force oracle; the
    # oracle is rerun here and both traversals must match it exactly.
    expected = {4: 2, 5: 5, 6: 14}
    for n, count in expected.items():
        g = helpers.cycle_graph(n)
        oracle = brute_force_minimal_completions(g)
        assert len(oracle) == count
        system = chordal_completion_system(g)
        assert sum(1 for _ in reverse_search(system)) == count
        assert sum(1 for _ in visited_set_search(system)) == count


@pytest.mark.slow
def test_criterion_3_no_duplicates_and_every_emission_minimal(big_instance_run):
    # External recording sets over independent runs: a seven-cycle, thirty
    # random graphs, and the full emission stream of the large instance.
    runs: list[tuple[Graph, list[Completion]]] = []
    g7 = helpers.cycle_graph(7)
    runs.append((g7, list(reverse_search(chordal_completion_system(g7)))))
    rng = random.Random(416611)
    for _ in range(30):
        g = helpers.random_graph_at_most(rng, rng.randint(4, 8), 14)
        runs.append((g, list(reverse_search(chordal_completion_system(g)))))
    runs.append((big_instance_run["graph"], big_instance_run["emissions"]))
    assert len(runs[0][1]) == 42
    for g, emissions in runs:
        recorded: set[Completion] = set()
        for f in emissions:
            assert f not in recorded, "duplicate emission"
            recorded.add(f)
            assert is_chordal_completion(f)
            assert is_minimal(f)


def test_criterion_4_structural_invariants_hold_exactly():
    rng = random.Random(267914296)

    # Nested chordal completions admit stepwise edge removal in between.
    for _ in range(200):
        n = rng.randint(4, 8)
        base = helpers.random_graph_at_most(rng, n, 12)
        inner = prune(Completion.full(base))
        spare = [e for e in non_edges(base) if e not in set(inner.fill_edges)]
        rng.shuffle(spare)
        outer = Completion.from_edges(
            base, inner.fill_edges + tuple(spare[:rng.randint(0, len(spare))]))
        if not is_chordal_completion(outer):
            outer = Completion.full(base)
        current = outer
        while current != inner:
            diff = [e for e in current.fill_edges
                    if e not in set(inner.fill_edges)]
            step = removable_edges(current, allowed=diff)
            assert step, "nested completions must allow stepwise descent"
            current = Completion.from_edges(
                current.base,
                [e for e in current.fill_edges if e != min(step)])
            assert is_chordal_completion(current)

    # Deleting any edge and completing its endpoints' common neighborhood
    # keeps chordal graphs chordal.
    checked = 0
    while checked < 1000:
        g = helpers.random_chordal_graph(rng, rng.randint(2, 10))
        assert is_chordal(g)
        for e in sorted(g.edges):
            assert is_chordal(flip_graph(g, e))
        checked += 1

    # The canonical removal order of a minimal completion drains exactly its
    # complement: greedy reduction of the full completion restricted to that
    # complement reconstructs the completion itself.
    atlas5 = helpers.atlas_graphs(5)
    solutions_by_graph = []
    for g in atlas5:
        system = chordal_completion_system(g)
        sols = sorted(visited_set_search(system), key=lambda f: f.mask)
        solutions_by_graph.append((g, system, sols))
        for f in sols:
            assert prune(Completion.full(g), allowed=f.complement_edges) == f
            assert sorted(removal_order(f)) == sorted(f.complement_edges)

    # Proximity strictly increases along the canonical step, and the prefix
    # dichotomy holds: against a distinct target, the scan stops strictly
    # early at one of the solution's own fill edges; only the target itself
    # survives its whole removal order.
    for g, system, sols in solutions_by_graph:
        for target in sols:
            order = removal_order(target)
            for f in sols:
                i = proximity(f, order)
                if f == target:
                    assert i == len(order)
                    continue
                assert i < len(order)
                fill = set(f.fill_edges)
                assert order[i] in fill
                assert not any(e in fill for e in order[:i])
                nxt = next_toward(system, f, target)
                assert proximity(nxt, order) > i

    # Canonical paths are short: at most the complement size plus one nodes.
    for g, system, sols in solutions_by_graph:
        for target in sols:
            path = canonical_path(system, target)
            assert len(path) <= len(target.complement_edges) + 1

    # Parent edges over all solutions form a spanning arborescence rooted at
    # the greedy reduction of the full completion.
    for g, system, sols in solutions_by_graph:
        sol_set = set(sols)
        assert system.root in sol_set
        parents = {f: parent(system, f) for f in sols if f != system.root}
        assert all(p in sol_set for p in parents.values())
        for f in sols:
            hops = 0
            node = f
            while node != system.root:
                node = parents[node]
                hops += 1
                assert hops <= len(sols), "parent chain must reach the root"
        child_edges = [(f, kid) for f in sols
                       for kid in children(system, f)]
        assert len(child_edges) == len(sols) - 1
        assert {kid for _, kid in child_edges} == sol_set - {system.root}
        assert all(parents[kid] == f for f, kid in child_edges)


@pytest.mark.slow
def test_criterion_5_reverse_search_retains_constant_solutions(big_instance_run):
    run = big_instance_run
    count = len(run["emissions"])
    assert count == BIG_INSTANCE_SOLUTIONS
    assert count >= 10000
    assert set(run["emissions"]) == run["visited"]
    assert run["rev_stats"].peak_retained <= 3
    assert run["vis_stats"].peak_retained == count
    assert run["vis_stats"].peak_retained >= 10000


@pytest.mark.slow
def test_criterion_6_delay_stays_flat_across_the_run(big_instance_run):
    gaps = big_instance_run["gaps"]
    assert len(gaps) >= 5000
    decile = len(gaps) // 10
    first_max = max(gaps[:decile])
    last_max = max(gaps[-decile:])
    assert last_max <= 5.0 * first_max, (first_max, last_max)


def test_criterion_7_generic_engine_enumerates_k_subsets():
    # Expected families come straight from itertools.combinations; the swap
    # system supplies no specialized step, so the generic fallback drives
    # the whole traversal.
    for m, k, count in ((6, 3, 20), (8, 4, 70)):
        expected = {frozenset(c) for c in itertools.combinations(range(m), k)}
        assert len(expected) == count
        system = helpers.subset_swap_system(m, k)
        got = list(reverse_search(system))
        assert len(got) == count
        assert set(got) == expected
