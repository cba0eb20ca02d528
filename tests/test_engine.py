"""Traversal engine tests: canonical paths, the arborescence, both searches."""

from __future__ import annotations

import collections
import dataclasses
import gc
import hashlib
import inspect
import itertools
import random
import weakref

import pytest

import chordalenum.completions
import chordalenum.engine
import helpers
from chordalenum import (Completion, Graph, ProximitySearchError, SetSystem,
                         TraversalStats, brute_force_minimal_completions,
                         canonical_path, children, chordal_completion_system,
                         next_toward, parent, proximity, removal_order,
                         reverse_search, successor, visited_set_search)
from test_acceptance import BIG_INSTANCE_EDGES


def _c5_system():
    g = helpers.cycle_graph(5)
    return g, chordal_completion_system(g)


def _solutions(g) -> set[Completion]:
    return set(visited_set_search(chordal_completion_system(g)))


def _generic(system: SetSystem) -> SetSystem:
    """The same system driven purely by the fallback machinery."""
    return dataclasses.replace(system, step_position=None,
                               producing_positions=None)


def test_system_root_is_minimal_completion():
    g, system = _c5_system()
    assert system.root == Completion.from_edges(g, [(1, 4), (2, 4)])
    assert system.neighbor_count(system.root) == 2


def test_canonical_path_frozen_examples():
    g, system = _c5_system()
    target = Completion.from_edges(g, [(0, 2), (0, 3)])
    path = canonical_path(system, target)
    assert [p.fill_edges for p in path] == [
        ((1, 4), (2, 4)), ((0, 2), (2, 4)), ((0, 2), (0, 3))]
    target = Completion.from_edges(g, [(0, 3), (1, 3)])
    path = canonical_path(system, target)
    assert [p.fill_edges for p in path] == [
        ((1, 4), (2, 4)), ((1, 3), (1, 4)), ((0, 3), (1, 3))]


def test_canonical_path_to_root_is_trivial():
    _, system = _c5_system()
    assert canonical_path(system, system.root) == [system.root]


def test_canonical_path_properties():
    rng = random.Random(46368)
    for _ in range(40):
        n = rng.randint(4, 7)
        g = helpers.random_graph_at_most(rng, n, 9)
        system = chordal_completion_system(g)
        for target in _solutions(g):
            path = canonical_path(system, target)
            assert path[0] == system.root and path[-1] == target
            order = system.ordering(target)
            prox = [system.proximity(p, order, 0) for p in path]
            assert prox == sorted(set(prox)), "proximity must strictly increase"
            for a, b in zip(path, path[1:]):
                count = system.neighbor_count(a)
                assert any(system.neighbor_at(a, j) == b
                           for j in range(count)), "path steps must be neighbors"


def test_next_toward_requires_distinct_solutions():
    _, system = _c5_system()
    with pytest.raises(ValueError):
        next_toward(system, system.root, system.root)


def test_next_toward_first_step_matches_path():
    g, system = _c5_system()
    target = Completion.from_edges(g, [(0, 2), (0, 3)])
    assert next_toward(system, system.root, target) == \
        Completion.from_edges(g, [(0, 2), (2, 4)])


def test_parent_of_root_raises():
    _, system = _c5_system()
    with pytest.raises(ValueError):
        parent(system, system.root)


def test_parent_is_penultimate_path_node():
    rng = random.Random(75025)
    for _ in range(25):
        n = rng.randint(4, 7)
        g = helpers.random_graph_at_most(rng, n, 8)
        system = chordal_completion_system(g)
        for f in _solutions(g):
            if f == system.root:
                continue
            path = canonical_path(system, f)
            assert parent(system, f) == path[-2]


def test_children_and_parent_are_inverse():
    rng = random.Random(121393)
    for _ in range(25):
        n = rng.randint(4, 6)
        g = helpers.random_graph_at_most(rng, n, 8)
        system = chordal_completion_system(g)
        sols = _solutions(g)
        child_lists = {f: children(system, f) for f in sols}
        for f, kids in child_lists.items():
            for kid in kids:
                assert parent(system, kid) == f
        seen_as_child = [kid for kids in child_lists.values() for kid in kids]
        assert len(seen_as_child) == len(set(seen_as_child))
        assert set(seen_as_child) == sols - {system.root}


def test_generic_fallback_matches_specialized_paths():
    rng = random.Random(196418)
    for _ in range(15):
        n = rng.randint(4, 6)
        g = helpers.random_graph_at_most(rng, n, 8)
        system = chordal_completion_system(g)
        plain = _generic(system)
        for target in _solutions(g):
            assert canonical_path(plain, target) == \
                canonical_path(system, target)


def test_generic_fallback_enumerates_the_same_set():
    g, system = _c5_system()
    assert set(reverse_search(_generic(system))) == _solutions(g)


def test_reverse_search_frozen_emission_order():
    g, system = _c5_system()
    fills = [f.fill_edges for f in reverse_search(system)]
    assert fills == [((1, 4), (2, 4)), ((0, 2), (0, 3)), ((0, 2), (2, 4)),
                     ((0, 3), (1, 3)), ((1, 3), (1, 4))]


def test_both_searches_match_brute_force():
    rng = random.Random(317811)
    for _ in range(40):
        n = rng.randint(3, 7)
        g = helpers.random_graph_at_most(rng, n, 9)
        system = chordal_completion_system(g)
        expected = brute_force_minimal_completions(g).solutions
        via_reverse = list(reverse_search(system))
        via_visited = list(visited_set_search(system))
        assert len(via_reverse) == len(set(via_reverse)), "no duplicates"
        assert len(via_visited) == len(set(via_visited)), "no duplicates"
        assert set(via_reverse) == set(expected), g.edges
        assert set(via_visited) == set(expected), g.edges


def test_cycle_counts_follow_catalan_numbers():
    # An n-cycle has as many minimal completions as triangulations of an
    # n-gon, the (n-2)nd Catalan number; both traversals must agree with it.
    from math import comb
    for n in (6, 8, 10):
        k = n - 2
        catalan = comb(2 * k, k) // (k + 1)
        system = chordal_completion_system(helpers.cycle_graph(n))
        assert sum(1 for _ in reverse_search(system)) == catalan
        assert sum(1 for _ in visited_set_search(system)) == catalan


def test_reverse_search_retains_at_most_three_solutions():
    for g in [helpers.cycle_graph(7), helpers.path_graph(2),
              helpers.random_graph(random.Random(514229), 7, 9)]:
        stats = TraversalStats()
        count = sum(1 for _ in reverse_search(chordal_completion_system(g),
                                              stats))
        assert stats.solutions == count
        assert stats.peak_retained <= 3


def test_visited_set_retains_every_solution():
    # The visited set holds the root from the start, so a graph with one
    # minimal completion (a path on 3 vertices) retains one solution.
    for g, total in ((helpers.cycle_graph(7), 42), (helpers.path_graph(3), 1)):
        stats = TraversalStats()
        count = sum(1 for _ in visited_set_search(
            chordal_completion_system(g), stats))
        assert count == total
        assert stats.peak_retained == count


def test_gap_counters_are_bounded():
    g = helpers.cycle_graph(7)
    system = chordal_completion_system(g)
    stats = TraversalStats(record_gaps=True)
    sols = list(reverse_search(system, stats))
    assert stats.solutions == len(sols) == 42
    max_degree = max(system.neighbor_count(f) for f in sols)
    max_depth = max(len(canonical_path(system, f)) - 1 for f in sols)
    assert max(stats.gap_backtrack_walks) <= 2
    assert max(stats.gap_check_walks) <= 2 * max_degree
    # A gap spans the scans of at most two nodes, each candidate building at
    # most one ordering; no backtrack builds one.
    assert max(stats.gap_orderings) <= 2 * max_degree
    # Check and backtrack walks both stop within the depth of the tree.
    for steps, checks, backs in zip(stats.gap_walk_steps,
                                    stats.gap_check_walks,
                                    stats.gap_backtrack_walks):
        assert steps <= (checks + backs) * max_depth
    assert len(stats.gap_orderings) == len(stats.gap_walk_steps) == 42


def test_stats_as_dict_keys():
    stats = TraversalStats()
    assert set(stats.as_dict()) == {
        "solutions", "neighbor_evals", "orderings", "check_walks",
        "backtrack_walks", "walk_steps", "peak_retained"}


def test_next_toward_detects_unreachable_target():
    system = SetSystem(
        root=frozenset({0}),
        neighbor_count=lambda f: 0,
        neighbor_at=lambda f, j: f,
        ordering=lambda f: tuple(sorted(f)),
        proximity=lambda f, order, start: 0,
        solution_key=lambda f: tuple(sorted(f)),
    )
    with pytest.raises(ProximitySearchError):
        next_toward(system, system.root, frozenset({1}))


def test_walk_toward_a_non_minimal_target_is_a_proximity_search_error():
    # The full completion of C5 is chordal but not minimal, so it is no
    # solution: its ordering is empty and no walk can reach it.
    g, system = _c5_system()
    target = Completion.full(g)
    with pytest.raises(ProximitySearchError, match="not a solution"):
        canonical_path(system, target)
    with pytest.raises(ProximitySearchError, match="not a solution"):
        parent(system, target)
    with pytest.raises(ProximitySearchError, match="not a solution"):
        next_toward(system, system.root, target)
    # C6 filled with one chord is not chordal: its ordering ends where the
    # greedy reduction stalls, before the walk reaches it.  (The first step
    # out of the root toward it exists, so next_toward is not asked.)
    c6 = helpers.cycle_graph(6)
    c6_system = chordal_completion_system(c6)
    target = Completion.from_edges(c6, [(0, 2)])
    with pytest.raises(ProximitySearchError, match="not a solution"):
        canonical_path(c6_system, target)
    with pytest.raises(ProximitySearchError, match="not a solution"):
        parent(c6_system, target)
    # A step toward an ordering element that is not a fill edge of the
    # probe: the root's own first ordering element lies outside its fill.
    root = system.root
    order = system.ordering(root)
    assert not root.mask >> order.element(0) & 1
    with pytest.raises(ProximitySearchError, match="not a fill edge"):
        system.step_position(root, order, 0)


def test_chordal_positions_outside_the_fill_raise_index_error():
    # Positions run over 0..neighbor_count(f) - 1.  Above the range the
    # fill mask runs out; a negative position must not wrap to position 0.
    g, system = _c5_system()
    f = system.root
    assert system.neighbor_count(f) == 2
    assert [system.neighbor_at(f, j) for j in range(2)] == \
        [successor(f, e) for e in f.fill_edges]
    for j in (2, 7, -1, -2):
        with pytest.raises(IndexError, match=rf"^neighbor position {j} "
                                             r"is not in range\(2\)$"):
            system.neighbor_at(f, j)
        # The owner query names positions in range only, whatever its bound.
        assert system.producing_positions(f, Completion.empty(g), j) == \
            ([0, 1] if j > 0 else [])
    path = helpers.path_graph(3)
    with pytest.raises(IndexError, match=r"range\(0\)$"):
        chordal_completion_system(path).neighbor_at(Completion.empty(path), 0)


def test_negative_step_position_raises_index_error():
    # The step out of a probe with proximity i reads ordering element i; a
    # negative i names itself instead of reading from the list's end.
    c6 = helpers.cycle_graph(6)
    system = chordal_completion_system(c6)
    for computed in (0, 3):
        order = system.ordering(system.root)
        order.element(computed)
        with pytest.raises(IndexError, match=r"^removal trace position -1 "
                                             r"is negative$"):
            system.step_position(system.root, order, -1)


def test_subset_swap_system_enumerates_combinations():
    for m, k in [(5, 2), (6, 3)]:
        system = helpers.subset_swap_system(m, k)
        expected = {frozenset(c) for c in
                    itertools.combinations(range(m), k)}
        got = list(reverse_search(system))
        assert len(got) == len(expected)
        assert set(got) == expected
        assert set(visited_set_search(system)) == expected


def test_subset_swap_system_with_position_filter():
    system = helpers.subset_swap_system(6, 3, with_filter=True)
    plain = helpers.subset_swap_system(6, 3)
    assert set(reverse_search(system)) == set(reverse_search(plain))


def _step_branch(system: SetSystem, f, j: int, cand) -> str:
    """Where the canonical step out of ``f`` toward ``cand`` (found at scan
    position ``j``) goes, relative to ``j``."""
    order = system.ordering(cand)
    k = system.step_position(f, order, system.proximity(f, order, 0))
    if k < j:
        return "below"
    if k == j:
        return "at"
    return "above, landing" if system.neighbor_at(f, k) == cand else "above"


def test_child_decision_matches_step_reference():
    rng = random.Random(832040)
    branches = collections.Counter()
    for trial in range(200):
        # Two positions producing one candidate, the step taking the later
        # one, first shows up around n = 9, so the sizes reach past that.
        n = rng.randint(6, 10)
        g = helpers.random_graph(rng, n,
                                 rng.randint(n, min(18, n * (n - 1) // 2)))
        system = chordal_completion_system(g)
        variants = [system]
        if trial % 10 == 0:
            variants.append(_generic(system))
        for f in _solutions(g):
            for variant in variants:
                assert children(variant, f) == \
                    helpers.children_by_step_reference(variant, f), g.edges
            for j in range(system.neighbor_count(f)):
                cand = system.neighbor_at(f, j)
                if cand != system.root:
                    branches[_step_branch(system, f, j, cand)] += 1
    assert {"below", "at", "above, landing"} <= set(branches), branches
    for m, k in [(5, 2), (6, 3)]:
        for with_filter in (False, True):
            system = helpers.subset_swap_system(m, k, with_filter)
            for f in visited_set_search(system):
                assert children(system, f) == \
                    helpers.children_by_step_reference(system, f)


# An 11-vertex graph on which a backtrack leaves a child whose canonical
# step comes from a later position than the one owning it, with a sibling
# owned in between; resuming the parent's scan past the step's position
# instead of the owner's loses that sibling and its subtree.
OWNER_BELOW_STEP_EDGES = [
    (0, 2), (0, 4), (0, 5), (0, 9), (0, 10), (1, 3), (1, 5), (1, 6), (1, 8),
    (1, 9), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 9), (3, 6), (3, 7),
    (3, 8), (3, 9), (3, 10), (4, 6), (4, 7), (4, 9), (4, 10), (5, 6), (5, 8),
    (5, 9), (6, 7), (6, 8), (6, 10), (7, 8), (8, 10), (9, 10)]


def test_backtrack_resumes_past_the_owner_position():
    g = Graph(11, OWNER_BELOW_STEP_EDGES)
    via_reverse = list(reverse_search(chordal_completion_system(g)))
    assert len(via_reverse) == len(set(via_reverse)) == 21
    assert set(via_reverse) == _solutions(g)


def _count_calls(system: SetSystem, name: str):
    """``system`` with callable field ``name`` wrapped in a call counter."""
    counter = [0]
    fn = getattr(system, name)

    def counted(*args):
        counter[0] += 1
        return fn(*args)
    return dataclasses.replace(system, **{name: counted}), counter


def test_generic_parent_walk_evaluates_each_neighbor_once_per_step():
    # Without step_position each walk step evaluates every neighbor to find
    # the step position, then takes the step at it.
    system = helpers.subset_swap_system(6, 3)
    lengths = collections.Counter()
    for f in visited_set_search(system):
        if f == system.root:
            continue
        steps = len(canonical_path(system, f)) - 1
        lengths[steps] += 1
        counted, calls = _count_calls(system, "neighbor_at")
        assert parent(counted, f) == canonical_path(system, f)[-2]
        assert calls[0] == steps * (system.neighbor_count(f) + 1), f
    assert lengths[1] and len(lengths) > 1



def test_ordering_prefixes_are_tuples(monkeypatch):
    # order[:n] is the tuple of the ordering's first n elements, and on a
    # removal trace reading a prefix already computed pulls nothing; any
    # other key, an int, a stepped slice, a negative n or no n, raises
    # TypeError (force() reads the whole trace).  The
    # subset system's proximity reads a tuple prefix, where a start s
    # claims the first s elements matched, so it goes up to the prefix's
    # own proximity.
    def no_pull(self, stop):
        raise AssertionError("a computed prefix pulled the kernel")

    rng = random.Random(28657)
    for _ in range(200):
        g = helpers.random_graph_at_most(rng, rng.randint(4, 8), 10)
        system = chordal_completion_system(g)
        sols = list(visited_set_search(system))
        target = rng.choice(sols)
        elements = system.ordering(target).force()
        edges = removal_order(target)
        for f in rng.sample(sols, min(3, len(sols))):
            full = system.proximity(f, system.ordering(target), 0)
            assert proximity(f, edges) == full
            for n in range(len(elements) + 2):
                trace = system.ordering(target)
                for key in (n, slice(0, n, 2), slice(-n - 1), slice(None)):
                    with pytest.raises(TypeError):
                        trace[key]
                head = trace[:n]
                assert type(head) is tuple and head == elements[:n]
                with monkeypatch.context() as patch:
                    patch.setattr(chordalenum.completions.RemovalTrace,
                                  "_pull", no_pull)
                    for m in range(n + 1):
                        assert trace[:m] == elements[:m]
                assert proximity(f, edges[:n]) == min(full, n)
    for m, k in [(5, 2), (6, 3)]:
        system = helpers.subset_swap_system(m, k)
        sols = list(visited_set_search(system))
        for target in sols:
            order = system.ordering(target)
            for f in sols:
                full = system.proximity(f, order, 0)
                for n in range(len(order) + 2):
                    assert len(order[:n]) == min(n, len(order))
                    for s in range(min(full, n) + 1):
                        assert system.proximity(f, order[:n], s) == \
                            min(full, n)


def test_only_child_tests_build_orderings():
    # Every candidate the scan tests builds one ordering, and no backtrack
    # builds one: each replays the node's ancestor chain, with path records
    # (the chordal system) or without them (the generic fallback).  Each of
    # the 41 non-root nodes is left by one backtrack walk.
    g = helpers.cycle_graph(7)
    plain = chordal_completion_system(g)
    for system in (plain, _generic(plain)):
        counted, calls = _count_calls(system, "ordering")
        stats = TraversalStats()
        sols = list(reverse_search(counted, stats))
        assert len(sols) == 42
        candidates = sum(
            1 for f in sols for j in range(plain.neighbor_count(f))
            if plain.neighbor_at(f, j) not in (plain.root, f))
        assert calls[0] == stats.orderings == candidates == 164
        assert stats.backtrack_walks == 41
    # No ordering is built for the root, which is never a candidate.
    system = chordal_completion_system(_relabelled_cubic14(11))
    at_root = []

    def ordering(f):
        at_root.append(f == system.root)
        return system.ordering(f)

    stats = TraversalStats()
    search = reverse_search(dataclasses.replace(system, ordering=ordering),
                            stats)
    assert sum(1 for _ in zip(range(100), search)) == 100
    assert len(at_root) == stats.orderings and not any(at_root)


def test_reverse_search_work_counters_are_frozen():
    # The per-layer benchmark metrics read these counters; a change that alters
    # the traversal's work on purpose updates them.  Every child test that
    # reaches the path test is settled by a check walk or by the scanning
    # node's path record; the generic system has none to follow.  Every
    # backtrack replays the ancestor chain.  On the first 100 solutions of a
    # relabelled cubic14, a record's root step skips only the elements its own
    # bitmask holds, no longer every element outside the root's set: six child
    # tests that the root's set settled take a check walk again (23 -> 29),
    # each stopping at the root, so walk steps stay 524 and path tests 1,050,
    # and the root's ordering is no longer built (2,166 -> 2,165).  Handing
    # each parent its ancestor chain at a backtrack, and holding the
    # grandparent at every replay, cut backtrack walks 51 -> 42 and walk steps
    # 735 -> 524.  Replaying the chain in the generic system too, instead of
    # walking toward the node's ordering, builds no ordering at a backtrack
    # (176 -> 171) and steps along the tree path to the parent (walk steps
    # 63 -> 44).  With no parent kept for a backtrack, every backtrack is a
    # chain replay (C7 backtrack walks 18 -> 41, cubic14 walk steps 524 ->
    # 968), and no check walk computes a found child again (cubic14 neighbor
    # evaluations 2,189 -> 2,185).
    cases = [
        (chordal_completion_system(helpers.cycle_graph(7)), None,
         (42, 168, 164, 0, 41, 79, 3), 164),
        (chordal_completion_system(Graph(11, OWNER_BELOW_STEP_EDGES)), None,
         (21, 240, 207, 1, 20, 21, 3), 65),
        (helpers.subset_swap_system(6, 3), None,
         (20, 791, 171, 81, 19, 44, 3), 81),
        (chordal_completion_system(_relabelled_cubic14(11)), 100,
         (100, 2185, 2165, 29, 95, 968, 3), 1050),
    ]
    names = ("solutions", "neighbor_evals", "orderings", "check_walks",
             "backtrack_walks", "walk_steps", "peak_retained")
    for system, limit, frozen, path_tests in cases:
        stats = TraversalStats()
        for _ in zip(range(limit or 10**9), reverse_search(system, stats)):
            pass
        assert stats.as_dict() == dict(zip(names, frozen))
        assert stats.check_walks + stats.record_verdicts == path_tests


def test_every_step_is_neighbor_at_at_the_step_position():
    # Scans and walks both go through neighbor_at, so a reverse search makes
    # one call per neighbor evaluation and one per walk step, and never
    # calls the next_step field.  Since every backtrack replays the chain,
    # C7 makes 247 calls (196 before) and the owner-below-step graph 261
    # (246 before).
    def no_next_step(*args):
        raise AssertionError("the engine called next_step")
    cases = [(helpers.cycle_graph(7), 168 + 79),
             (Graph(11, OWNER_BELOW_STEP_EDGES), 240 + 21)]
    for g, frozen in cases:
        system = dataclasses.replace(chordal_completion_system(g),
                                     next_step=no_next_step)
        counted, calls = _count_calls(system, "neighbor_at")
        stats = TraversalStats()
        for _ in reverse_search(counted, stats):
            pass
        assert calls[0] == stats.neighbor_evals + stats.walk_steps == frozen


def _count_builds(monkeypatch, *modules) -> list:
    """Record the fill mask of every filled-adjacency build, patched where
    ``modules`` read the builder."""
    built = []
    build = chordalenum.completions._filled_masks

    def counted(base, mask):
        built.append(mask)
        return build(base, mask)
    for module in modules:
        monkeypatch.setattr(module, "_filled_masks", counted)
    return built


def test_stored_adjacencies_give_the_uncached_successors(monkeypatch):
    # The chordal system answers from its store, or starts successors from
    # stored adjacencies; every answer must equal the uncached kernel's,
    # whatever the call order.  Every solution's positions are read in scan
    # order, with a second system over another graph called between them;
    # then a walk from the root runs and the same scan runs again.  Every
    # other graph runs with generations of one mask, so that the walk evicts
    # the scanned node's entry and the second scan builds its adjacency
    # again.  A position out of range raises IndexError both on the call
    # that makes an entry and on a call that finds it stored.  Only the
    # system's own builds are counted, not the reference's.
    built = _count_builds(monkeypatch, chordalenum.engine)
    rng = random.Random(75025)
    calls = builds = rebuilt = 0
    for index in range(40):
        monkeypatch.setattr(chordalenum.engine, "STORE_GENERATION",
                            1 if index % 2 else 128)
        g = helpers.random_graph_at_most(rng, rng.randint(4, 12), 14)
        system = chordal_completion_system(g)
        other = chordal_completion_system(
            helpers.random_graph_at_most(rng, rng.randint(4, 12), 14))
        sols, others = (list(visited_set_search(s)) for s in (system, other))
        for f in sols:
            expected = [successor(f, e) for e in f.fill_edges]
            built.clear()
            for _ in range(2):
                for j, nb in enumerate(expected):
                    assert system.neighbor_at(f, j) == nb
                    h = rng.choice(others)
                    if h.mask:
                        k = rng.randrange(h.size())
                        assert other.neighbor_at(h, k) == \
                            successor(h, h.fill_edges[k])
                target = rng.choice(sols)
                order = system.ordering(target)
                probe, i = system.root, -1
                while probe != target:
                    i = system.proximity(probe, order, i + 1)
                    j = system.step_position(probe, order, i)
                    step = system.neighbor_at(probe, j)
                    assert step == successor(probe, probe.fill_edges[j])
                    probe = step
                    calls += 1
            calls += 2 * len(expected)
            builds += len(built)
            rebuilt += built.count(f.mask) > 1
            for bad in (len(expected), -1):
                fresh = chordal_completion_system(g)
                for _ in range(2):
                    with pytest.raises(IndexError, match=(
                            rf"^neighbor position {bad} is not in "
                            rf"range\({len(expected)}\)$")):
                        fresh.neighbor_at(f, bad)
                assert [fresh.neighbor_at(f, j)
                        for j in range(len(expected))] == expected
    # The corpus reached hits (fewer builds than successor calls) and
    # evictions (f built again after the walk evicted it).
    assert builds < calls / 2
    assert rebuilt > 0


def test_interleaved_reverse_searches_share_one_system():
    rng = random.Random(121393)
    for _ in range(30):
        g = helpers.random_graph_at_most(rng, rng.randint(5, 9), 14)
        alone = list(reverse_search(chordal_completion_system(g)))
        system = chordal_completion_system(g)
        pairs = list(zip(reverse_search(system), reverse_search(system)))
        assert [x for x, _ in pairs] == [y for _, y in pairs] == alone


def _store(system: SetSystem) -> tuple[dict, dict]:
    """The newer and older generations of a chordal system's store."""
    stored = inspect.getclosurevars(system.neighbor_at).nonlocals["stored"]
    generations = inspect.getclosurevars(stored).nonlocals
    return generations["newer"], generations["older"]


def _read_in_pieces(trace, expected: tuple, rng: random.Random) -> None:
    """Read ``trace`` by element, prefix and proximity query, at random
    positions and in random order, against the whole trace ``expected``."""
    for _ in range(6):
        pos = rng.randrange(len(expected) + 2)
        kind = rng.randrange(3)
        if kind == 0:
            assert trace.element(pos) == (
                expected[pos] if pos < len(expected) else None)
        elif kind == 1:
            assert trace[:pos] == expected[:pos]
        else:
            fill = rng.getrandbits(max(expected, default=0) + 1)
            start = min(pos, len(expected))
            assert trace.prefix_against(fill, start) == next(
                (i for i in range(start, len(expected))
                 if fill >> expected[i] & 1), len(expected))


def test_store_answers_as_the_plain_kernels(monkeypatch):
    # Every neighbor_at(f, j) equals the plain successor, and every
    # ordering(f), read in random pieces, equals a fresh removal trace, both
    # while f's entry is stored and after the store has evicted it (the
    # system then returns another trace object).  Random graphs on 4-14
    # vertices run with generations of 1, 4 and 128 masks, read every
    # solution twice, and read positions in random order; then a relabelled
    # cubic14 is read along its first 600 reverse-search solutions, with a
    # second system's traversal interleaved.  Interleaved reads leave the
    # emissions as they are alone.
    rng = random.Random(196418)
    kept = evicted = 0

    def check(system, f, traces):
        nonlocal kept, evicted
        size = f.size()
        for j in rng.sample(range(size), size):
            assert system.neighbor_at(f, j) == successor(f, f.fill_edges[j])
        trace = system.ordering(f)
        if f.mask in traces:
            if trace is traces[f.mask]:
                kept += 1
            else:
                evicted += 1
        traces[f.mask] = trace
        _read_in_pieces(trace, chordalenum.completions.RemovalTrace(
            f).force(), rng)

    for index in range(45):
        monkeypatch.setattr(chordalenum.engine, "STORE_GENERATION",
                            (1, 4, 128)[index % 3])
        g = helpers.random_graph_at_most(rng, rng.randint(4, 14), 12)
        system = chordal_completion_system(g)
        sols, traces = list(reverse_search(system)), {}
        for f in sols + rng.sample(sols, len(sols)):
            check(system, f, traces)
    assert kept and evicted
    monkeypatch.setattr(chordalenum.engine, "STORE_GENERATION", 128)
    kept = evicted = 0
    system, other = (chordal_completion_system(_relabelled_cubic14(seed))
                     for seed in (5, 6))
    traces, early = {}, []
    emitted = []
    for f, h in itertools.islice(zip(reverse_search(system),
                                     reverse_search(other)), 600):
        check(system, f, traces)
        if h.mask:
            k = rng.randrange(h.size())
            assert other.neighbor_at(h, k) == successor(h, h.fill_edges[k])
        emitted.append(f.mask)
        if len(early) < 20:
            early.append(f)
    assert hashlib.sha256(repr(emitted).encode()).hexdigest()[:16] == \
        "226c7a76b0e66f9a"
    # The root's entry stays, as every walk reads it; most others are gone.
    for f in early:
        check(system, f, traces)
    assert kept + evicted == len(early) and evicted > kept


def test_store_holds_at_most_two_generations(monkeypatch):
    # After a 2,000-solution prefix of a relabelled cubic14 the store holds
    # at most 2 * STORE_GENERATION masks, each in one generation, and its
    # entries hold ints and traces only, no solution.  With generations of
    # one mask the emissions are still the frozen ones.
    g = _relabelled_cubic14(11)
    for generation in (chordalenum.engine.STORE_GENERATION, 1):
        monkeypatch.setattr(chordalenum.engine, "STORE_GENERATION",
                            generation)
        system = chordal_completion_system(g)
        masks = [f.mask for f in itertools.islice(reverse_search(system),
                                                  2000)]
        assert hashlib.sha256(repr(masks).encode()).hexdigest()[:16] == \
            "b0db09266d1f07f7"
        newer, older = _store(system)
        assert len(newer) + len(older) <= 2 * generation
        assert len(newer) <= generation and not newer.keys() & older.keys()
        for entry in (*newer.values(), *older.values()):
            *neighbors, trace, rows, fills = entry
            assert all(x is None or type(x) is int for x in neighbors)
            assert trace is None or type(
                trace) is chordalenum.completions.RemovalTrace
            assert (rows is None) == (fills is None)
            assert all(type(x) is int for x in (*(rows or ()),
                                                *(fills or ())))


def test_adjacency_builds_are_at_most_one_per_solution(monkeypatch):
    # Set-up builds no adjacency (the root is reduced from K_n, which needs
    # no build).  After that the store builds a mask's filled adjacency at
    # its first evaluation and keeps it in the mask's entry, so these
    # graphs, which the store holds whole, take exactly one build per
    # solution, against one per successor call without it (196 successor
    # calls on C7 with reverse search, 168 with the visited set).  Before
    # the store the system kept three adjacencies and built the root's at
    # set-up: reverse search then built 1 + 5 on C7 and 1 + 9 on the
    # second graph.
    built = _count_builds(monkeypatch, chordalenum.completions,
                          chordalenum.engine)
    cases = [
        (helpers.cycle_graph(7), reverse_search, 42, 42),
        (helpers.cycle_graph(7), visited_set_search, 42, 42),
        (Graph(11, OWNER_BELOW_STEP_EDGES), reverse_search, 21, 21),
        (Graph(11, OWNER_BELOW_STEP_EDGES), visited_set_search, 21, 21),
    ]
    for g, search, solutions, builds in cases:
        built.clear()
        system = chordal_completion_system(g)
        assert built == []
        assert sum(1 for _ in search(system)) == solutions
        assert len(built) == builds <= solutions


def _relabelled_cubic14(seed: int) -> Graph:
    perm = list(range(14))
    random.Random(seed).shuffle(perm)
    return Graph(14, [(perm[u], perm[v]) for u, v in BIG_INSTANCE_EDGES])


def _assert_canonical_record(system: SetSystem, node, record):
    # Step t of the canonical path to node leaves probe t at the position
    # that its proximity toward node's ordering names, flipping the ordering
    # element there; its bitmask holds none of the probe's fill and every
    # element of that ordering before the probe's proximity.
    path = canonical_path(system, node)
    own = system.ordering(node)
    assert len(record) == len(path) - 1
    for probe, (outside, s, k) in zip(path, record):
        i = system.proximity(probe, own, 0)
        assert (s, k) == (own.element(i), system.step_position(probe, own, i))
        assert not outside & probe.mask
        prefix = sum(1 << e for e in own[:i])
        assert outside & prefix == prefix


def _assert_ancestor_chain(system: SetSystem, node, chain):
    # Replaying the chain's positions from the root visits the tree path to
    # node: each step lands on a solution whose parent() is the probe it
    # left.  In a system with a step_position each entry flips the fill
    # edge at its position, and its bitmask misses the probe's fill; in one
    # without, an entry holds its position only.
    probe = system.root
    for outside, s, k in chain:
        if system.step_position is None:
            assert (outside, s) == (0, None)
        else:
            assert not outside & probe.mask
            assert probe.mask >> s & 1
            assert (probe.mask & ((1 << s) - 1)).bit_count() == k
        step = system.neighbor_at(probe, k)
        assert parent(system, step) == probe
        probe = step
    assert probe == node


def test_path_records_decide_child_tests_as_the_root_walk_does(monkeypatch):
    # A child test that the scanning node's path record settles gets the
    # verdict of the walk from the root; every child the traversal descends
    # to carries the record of its canonical path; and the emissions are
    # those of a traversal whose child tests always walk.  Some verdicts
    # come from an ancestor chain that a backtrack handed its parent, a
    # record that need not be a canonical path.
    real = chordalenum.engine._is_child
    real_backtrack = chordalenum.engine._backtrack
    outcomes = collections.Counter()
    handed = [None]  # the record the last backtrack handed its parent

    def backtrack(*args):
        up, j, handed[0] = real_backtrack(*args)
        return up, j, handed[0]

    def checked(system, f, j, stats, record):
        verdicts, walks = stats.record_verdicts, stats.check_walks
        found = real(system, f, j, stats, record)
        if stats.record_verdicts > verdicts:
            walked = real(system, f, j, TraversalStats(), None)
            assert (found is None) == (walked is None)
            outcomes["child" if found else "not a child"] += 1
            if record and record is handed[0]:
                outcomes["by a chain"] += 1
        elif record is not None and stats.check_walks > walks:
            outcomes["open"] += 1
        if found is not None:
            _assert_canonical_record(system, *found)
        return found

    def walking(system, f, j, stats, record):
        return real(system, f, j, stats, None)

    monkeypatch.setattr(chordalenum.engine, "_backtrack", backtrack)
    rng = random.Random(196418)
    graphs = [helpers.random_graph_at_most(rng, rng.randint(4, 11), 14)
              for _ in range(30)]
    for g, limit in [*((g, None) for g in graphs),
                     (_relabelled_cubic14(0), 250),
                     (_relabelled_cubic14(1), 250)]:
        runs = []
        for is_child in (checked, walking):
            monkeypatch.setattr(chordalenum.engine, "_is_child", is_child)
            search = reverse_search(chordal_completion_system(g))
            runs.append([f.mask for _, f in zip(range(limit or 10**9),
                                                search)])
        assert runs[0] == runs[1]
    assert min(outcomes[k] for k in ("child", "not a child", "open",
                                     "by a chain")) > 0, outcomes


def _owner_corpus():
    """Systems for the owner and backtrack tests: seeded random graphs with
    4-11 vertices, the owner-below-step graph, and the k-subset system with
    and without its owner hook."""
    rng = random.Random(317811)
    systems = [chordal_completion_system(
        helpers.random_graph_at_most(rng, rng.randint(4, 11), 14))
        for _ in range(30)]
    return [*systems, chordal_completion_system(
        Graph(11, OWNER_BELOW_STEP_EDGES)), helpers.subset_swap_system(6, 3),
        helpers.subset_swap_system(6, 3, with_filter=True)]


def test_owner_query_names_every_producing_position():
    # The owner scan evaluates only the positions the system's hook names;
    # it must find what evaluating every position below j finds, and the
    # hook must name, in increasing order, every position below j that
    # produces the candidate.
    named = evaluated = 0
    for system in _owner_corpus():
        for f in visited_set_search(system):
            count = system.neighbor_count(f)
            nbs = [system.neighbor_at(f, j) for j in range(count)]
            for j, cand in enumerate(nbs):
                assert chordalenum.engine._first_position(
                    system, f, cand, j, TraversalStats()) == \
                    helpers.first_position_by_scan(system, f, cand, j)
                if system.producing_positions is None:
                    continue
                positions = list(system.producing_positions(f, cand, j))
                assert positions == sorted(set(positions))
                assert set(positions) <= set(range(j))
                assert {k for k in range(j) if nbs[k] == cand} <= \
                    set(positions)
                named += len(positions)
                evaluated += j
    # The hook names under a third of the positions below j here.
    assert 0 < 3 * named < evaluated


def test_backtracks_restore_the_parent_as_the_walk_does(monkeypatch):
    # Each backtrack replays the ancestor chain, in a system with a
    # step_position and in one without; it lands on parent() and resumes
    # one past the position that owns the node it leaves.  No backtrack
    # builds an ordering (the systems' ordering raises while one runs), and
    # the record a backtrack hands the parent is its ancestor chain.  A full
    # traversal emits every solution once.
    real_backtrack = chordalenum.engine._backtrack
    kinds = collections.Counter()
    backtracking = [False]

    def no_ordering_in_backtracks(system):
        def ordering(f):
            assert not backtracking[0], "a backtrack built an ordering"
            return system.ordering(f)
        return dataclasses.replace(system, ordering=ordering)

    def checked(system, node, chain, stats):
        step = chain[-1][2]
        backtracking[0] = True
        up, j, record = real_backtrack(system, node, chain, stats)
        backtracking[0] = False
        kinds["generic" if system.step_position is None else "stepped"] += 1
        if j - 1 < step:
            kinds["owner below the step"] += 1
        assert up == parent(system, node)
        assert j - 1 == helpers.first_position_by_scan(
            system, up, node, system.neighbor_count(up))
        assert record is chain
        _assert_ancestor_chain(system, up, record)
        return up, j, record

    monkeypatch.setattr(chordalenum.engine, "_backtrack", checked)
    # Relabelling 56 backtracks early on past a node whose owner lies below
    # the position of its step.
    runs = [_owner_corpus(), [chordal_completion_system(_relabelled_cubic14(s))
                              for s in (0, 1, 56)]]
    for systems, limit in zip(runs, (None, 250)):
        for system in systems:
            search = reverse_search(no_ordering_in_backtracks(system))
            run = [f for _, f in zip(range(limit or 10**9), search)]
            assert len(run) == len(set(run))
            if limit is None:
                assert set(run) == set(visited_set_search(system))
    assert min(kinds[k] for k in ("stepped", "generic",
                                  "owner below the step")) > 0, kinds


class _Tracked:
    """A solution that a weak reference can track, wrapping another."""

    __slots__ = ("inner", "__weakref__")

    def __init__(self, inner, live) -> None:
        self.inner = inner
        live.add(self)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Tracked) and self.inner == other.inner

    def __hash__(self) -> int:
        return hash(self.inner)


def _tracked_system(system: SetSystem, live) -> SetSystem:
    """``system`` with every solution it makes wrapped in ``_Tracked`` and
    added to the weak set ``live``."""
    return SetSystem(
        root=_Tracked(system.root, live),
        neighbor_count=lambda f: system.neighbor_count(f.inner),
        neighbor_at=lambda f, j: _Tracked(system.neighbor_at(f.inner, j),
                                          live),
        ordering=lambda f: system.ordering(f.inner),
        proximity=lambda f, order, start: system.proximity(f.inner, order,
                                                           start),
        solution_key=lambda f: system.solution_key(f.inner),
        step_position=lambda f, order, i: system.step_position(f.inner,
                                                               order, i),
        producing_positions=lambda f, cand, j: system.producing_positions(
            f.inner, cand.inner, j))


def test_live_solutions_at_emissions_are_counted_independently():
    # peak_retained comes from the traversal's own count; this one does not.
    # With the consumer's reference dropped and a collection run, the only
    # solution alive at an emission besides the system's root is the current
    # node: no parent is kept for a backtrack.
    rng = random.Random(832040)
    graphs = [helpers.cycle_graph(7), *(helpers.random_graph_at_most(
        rng, rng.randint(4, 9), 12) for _ in range(20))]
    peak = 0
    for g in graphs:
        plain = chordal_completion_system(g)
        live = weakref.WeakSet()
        system = _tracked_system(plain, live)
        emitted = 0
        for f in reverse_search(system):
            emitted += 1
            expected = [] if f is system.root else [f.inner]
            f = None
            gc.collect()
            alive = [x.inner for x in live if x is not system.root]
            assert alive == expected, g.edges
            peak = max(peak, len(alive))
        assert emitted == len(set(visited_set_search(plain)))
    assert peak == 1


def test_live_solutions_at_neighbor_calls_are_counted():
    # At every neighbor_at call, the solutions alive besides the system's
    # root must be no more than the traversal has counted so far; a scan
    # holds one neighbor at a time.  Without a step_position each walk step
    # evaluates every neighbor of its probe; with one, the chordal system's,
    # scans, walks and replays each make one call per step.  The consumer
    # keeps no emission (the deque keeps none; zip's reused result tuple
    # would keep the last one alive).  The last field is the most alive at
    # one call.
    chordal = chordal_completion_system
    cases = [
        (True, chordal(helpers.cycle_graph(7)), None, 3),
        (True, helpers.subset_swap_system(6, 3), None, 3),
        (False, chordal(helpers.cycle_graph(7)), None, 2),
        (False, chordal(Graph(11, OWNER_BELOW_STEP_EDGES)), None, 2),
        (False, chordal(_relabelled_cubic14(11)), 300, 3),
    ]
    for generic, plain, limit, most in cases:
        live = weakref.WeakSet()
        system = _tracked_system(plain, live)
        if generic:
            system = _generic(system)
        stats = TraversalStats()
        counts = []

        def counted(f, j, neighbor_at=system.neighbor_at):
            alive = sum(1 for x in live if x is not system.root)
            if alive > stats.peak_retained:
                gc.collect()
                alive = sum(1 for x in live if x is not system.root)
            counts.append((alive, stats.peak_retained))
            return neighbor_at(f, j)
        collections.deque(itertools.islice(reverse_search(
            dataclasses.replace(system, neighbor_at=counted), stats), limit),
            maxlen=0)
        assert all(alive <= peak for alive, peak in counts)
        assert max(alive for alive, _ in counts) == most
        assert stats.peak_retained == 3


# networkx.random_regular_graph(3, 40, seed=40): 720 non-edges.
CUBIC40_EDGES = [
    (0, 5), (0, 14), (0, 30), (1, 27), (1, 32), (1, 37), (2, 9), (2, 25),
    (2, 35), (3, 13), (3, 16), (3, 35), (4, 17), (4, 20), (4, 31), (5, 11),
    (5, 36), (6, 7), (6, 13), (6, 39), (7, 19), (7, 28), (8, 21), (8, 24),
    (8, 33), (9, 23), (9, 24), (10, 17), (10, 31), (10, 39), (11, 17),
    (11, 28), (12, 24), (12, 26), (12, 33), (13, 30), (14, 16), (14, 36),
    (15, 22), (15, 27), (15, 35), (16, 26), (18, 25), (18, 34), (18, 36),
    (19, 29), (19, 37), (20, 32), (20, 39), (21, 23), (21, 29), (22, 34),
    (22, 37), (23, 25), (26, 38), (27, 32), (28, 38), (29, 38), (30, 34),
    (31, 33)]


def test_walk_counts_at_forty_vertices_are_frozen():
    # The benchmark's instances have 14 vertices; this guards the walk
    # counts of the first 30 solutions of a 40-vertex cubic graph, where
    # walks are longer: 5,615 steps and 942 check walks when every child
    # test walked, 2,330 steps before backtracks replayed the ancestor
    # chain, and 2,215 while a backtrack could return to a held parent
    # without a walk.  A change that alters them on purpose updates them.
    stats = TraversalStats()
    search = reverse_search(chordal_completion_system(Graph(40, CUBIC40_EDGES)),
                            stats)
    fills = [f.fill_edges for _, f in zip(range(30), search)]
    digest = hashlib.sha256(repr(fills).encode()).hexdigest()[:16]
    assert (stats.solutions, stats.walk_steps, stats.check_walks,
            stats.record_verdicts) == (30, 2359, 69, 873)
    assert digest == "072c727d1b13ce00"
