"""Completion arithmetic: reduction, removal orders, proximity, flips."""

from __future__ import annotations

import random

import pytest

import chordalenum.completions
import helpers
from chordalenum import (Completion, Graph, GraphInputError, flip, is_chordal,
                         is_chordal_completion, is_minimal,
                         minimal_completion_root, non_edges, proximity, prune,
                         removable_edges, removal_order, successor)
from helpers import flip_graph, removable_edges_by_retest


@pytest.fixture
def c4():
    return helpers.cycle_graph(4)


@pytest.fixture
def c5():
    return helpers.cycle_graph(5)


def _random_base(rng: random.Random, n: int, max_missing: int) -> Graph:
    return helpers.random_graph(
        rng, n, rng.randint(0, min(max_missing, n * (n - 1) // 2)))


def _random_chordal_completion(rng: random.Random, n: int) -> Completion:
    """A chordal, not necessarily minimal, completion of a random base."""
    k = rng.randint(0, n * (n - 1) // 2)
    base = helpers.random_graph(rng, n, k)
    full = Completion.full(base)
    f = prune(full)
    extra = [e for e in full.fill_edges if e not in set(f.fill_edges)]
    rng.shuffle(extra)
    padded = Completion.from_edges(
        base, f.fill_edges + tuple(extra[:rng.randint(0, len(extra))]))
    return padded if is_chordal_completion(padded) else f


def test_from_edges_normalizes_and_validates(c5):
    f = Completion.from_edges(c5, [(4, 1), (2, 4)])
    assert f.fill_edges == ((1, 4), (2, 4))
    with pytest.raises(GraphInputError):
        Completion.from_edges(c5, [(0, 1)])
    with pytest.raises(GraphInputError):
        Completion.from_edges(c5, [(0, 7)])


def test_full_and_empty_completions(c5):
    full = Completion.full(c5)
    assert full.fill_edges == non_edges(c5)
    assert full.complement_edges == ()
    assert is_chordal_completion(full)
    empty = Completion.empty(c5)
    assert empty.fill_edges == ()
    assert empty.complement_edges == non_edges(c5)
    assert not is_chordal_completion(empty)


def test_fill_and_complement_partition_non_edges(c5):
    f = Completion.from_edges(c5, [(0, 2), (1, 3)])
    assert set(f.fill_edges) | set(f.complement_edges) == set(non_edges(c5))
    assert not set(f.fill_edges) & set(f.complement_edges)
    assert f.size() == 2


def test_supergraph_adds_exactly_the_fill(c5):
    f = Completion.from_edges(c5, [(1, 4), (2, 4)])
    h = f.supergraph()
    assert h.n == c5.n
    assert h.edges == c5.edges | {(1, 4), (2, 4)}
    assert is_chordal(h)


def test_completion_equality_and_hash(c5, c4):
    a = Completion.from_edges(c5, [(1, 4), (2, 4)])
    b = Completion.from_edges(c5, [(2, 4), (4, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Completion.from_edges(c5, [(1, 4)])
    assert a != Completion.from_edges(c4, [(0, 2)])


def test_removable_edges_on_five_cycle_fan(c5):
    f = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert removable_edges(f) == frozenset()
    full = Completion.full(c5)
    assert removable_edges(full) == frozenset(non_edges(c5))
    assert removable_edges(full, allowed=[(0, 2), (1, 3)]) == \
        frozenset({(0, 2), (1, 3)})


def test_removable_edges_requires_chordal_completion(c5):
    with pytest.raises(ValueError):
        removable_edges(Completion.empty(c5))
    with pytest.raises(ValueError):
        removable_edges_by_retest(Completion.empty(c5))


def test_removable_edges_matches_retest_reference():
    rng = random.Random(1729)
    for _ in range(200):
        f = _random_chordal_completion(rng, rng.randint(3, 8))
        assert removable_edges(f) == removable_edges_by_retest(f), f
        some = tuple(f.fill_edges[::2])
        assert removable_edges(f, allowed=some) == \
            removable_edges_by_retest(f, allowed=some)


def test_prune_yields_minimal_subset():
    rng = random.Random(24601)
    for _ in range(150):
        f = _random_chordal_completion(rng, rng.randint(3, 8))
        reduced = prune(f)
        assert reduced.mask & ~f.mask == 0
        assert is_minimal(reduced)
        assert prune(reduced) == reduced


def test_prune_respects_allowed_restriction(c5):
    full = Completion.full(c5)
    kept = prune(full, allowed=[(0, 2), (0, 3)])
    assert set(kept.fill_edges) >= {(1, 3), (1, 4), (2, 4)}
    assert is_chordal_completion(kept)


def test_prune_requires_chordal_completion(c4):
    with pytest.raises(ValueError):
        prune(Completion.empty(c4))


def test_is_minimal_frozen_cases(c4, c5):
    assert is_minimal(Completion.from_edges(c4, [(0, 2)]))
    assert is_minimal(Completion.from_edges(c5, [(1, 4), (2, 4)]))
    assert not is_minimal(Completion.full(c5))
    with pytest.raises(ValueError):
        is_minimal(Completion.empty(c5))


def test_minimal_completion_root_frozen_values(c4, c5):
    assert minimal_completion_root(c4).fill_edges == ((1, 3),)
    assert minimal_completion_root(c5).fill_edges == ((1, 4), (2, 4))
    tree = helpers.path_graph(6)
    assert minimal_completion_root(tree) == Completion.empty(tree)


def test_minimal_completion_root_is_the_pruned_full_completion():
    # The root reduces K_n directly; its definition, the greedy reduction of
    # the full completion, stays the reference.  The corpus holds edgeless,
    # complete and already chordal graphs as well as random ones.
    rng = random.Random(46368)
    corpus = [Graph(0), Graph(1)]
    for n in range(2, 9):
        corpus += [Graph(n), helpers.complete_graph(n), helpers.path_graph(n),
                   helpers.cycle_graph(n)]
    corpus += [helpers.random_chordal_graph(rng, rng.randint(2, 10))
               for _ in range(100)]
    corpus += [_random_base(rng, rng.randint(2, 10), 45) for _ in range(300)]
    for g in corpus:
        root = minimal_completion_root(g)
        assert root == prune(Completion.full(g))
        if is_chordal(g):
            assert root == Completion.empty(g)


def test_minimal_completion_root_builds_no_adjacency(monkeypatch):
    # The root starts from K_n, whose adjacency is known without a build,
    # and needs no chordality test: K_n is chordal and every deletion the
    # kernel makes keeps it so.
    calls = []

    def counted(*args):
        calls.append(args)
    monkeypatch.setattr(chordalenum.completions, "_filled_masks", counted)
    monkeypatch.setattr(chordalenum.completions, "_is_chordal_masks", counted)
    for g in (helpers.cycle_graph(7), Graph(30), helpers.complete_graph(6)):
        minimal_completion_root(g)
    assert calls == []


def test_removal_order_frozen_values(c4, c5):
    assert removal_order(Completion.from_edges(c4, [(1, 3)])) == ((0, 2),)
    assert removal_order(Completion.from_edges(c5, [(1, 4), (2, 4)])) == \
        ((0, 2), (0, 3), (1, 3))
    assert removal_order(Completion.from_edges(c5, [(1, 3), (1, 4)])) == \
        ((0, 2), (0, 3), (2, 4))


def test_removal_order_is_permutation_of_complement():
    rng = random.Random(8128)
    for _ in range(100):
        base = _random_base(rng, rng.randint(3, 8), 10)
        f = prune(Completion.full(base))
        order = removal_order(f)
        assert sorted(order) == sorted(f.complement_edges)


def test_removal_order_rejects_non_minimal_completion():
    base = Graph(3)
    padded = Completion.from_edges(base, [(0, 1)])
    assert is_chordal_completion(padded)
    with pytest.raises(ValueError):
        removal_order(padded)


def test_proximity_frozen_values(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    other = Completion.from_edges(c5, [(1, 3), (1, 4)])
    assert proximity(root, removal_order(other)) == 2
    assert proximity(other, removal_order(root)) == 2
    assert proximity(Completion.from_edges(c5, [(0, 2), (0, 3)]),
                     removal_order(root)) == 0


def test_proximity_of_own_order_is_full_length(c5):
    f = Completion.from_edges(c5, [(1, 4), (2, 4)])
    order = removal_order(f)
    assert proximity(f, order) == len(order)


def test_proximity_rejects_foreign_pairs(c5):
    f = Completion.from_edges(c5, [(1, 4)])
    with pytest.raises(GraphInputError):
        proximity(f, [(0, 1)])


def test_flip_frozen_value(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert flip(root, (2, 4)) == Completion.from_edges(c5, [(1, 3), (1, 4)])
    assert flip(root, (4, 2)) == flip(root, (2, 4))


def test_flip_rejects_non_fill_edge(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    with pytest.raises(GraphInputError):
        flip(root, (0, 2))
    with pytest.raises(GraphInputError):
        flip(root, (0, 1))


def test_flip_preserves_chordality():
    rng = random.Random(4181)
    for _ in range(150):
        f = _random_chordal_completion(rng, rng.randint(3, 8))
        for e in f.fill_edges:
            assert is_chordal_completion(flip(f, e)), (f, e)


def test_flip_graph_matches_completion_flip(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert flip_graph(root.supergraph(), (2, 4)) == \
        flip(root, (2, 4)).supergraph()
    with pytest.raises(GraphInputError):
        flip_graph(c5, (0, 2))


def test_flip_graph_preserves_chordality_on_random_chordal_graphs():
    rng = random.Random(2584)
    for _ in range(200):
        g = helpers.random_chordal_graph(rng, rng.randint(2, 10))
        assert is_chordal(g)
        for e in sorted(g.edges):
            assert is_chordal(flip_graph(g, e)), (g.edges, e)


def test_successor_frozen_value(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert successor(root, (1, 4)) == Completion.from_edges(c5, [(0, 2), (2, 4)])
    assert successor(root, (2, 4)) == Completion.from_edges(c5, [(1, 3), (1, 4)])


def test_successor_is_pruned_flip():
    rng = random.Random(6765)
    for _ in range(100):
        base = _random_base(rng, rng.randint(3, 8), 10)
        f = prune(Completion.full(base))
        for e in f.fill_edges:
            s = successor(f, e)
            assert s != f
            assert s == prune(flip(f, e))
            assert is_minimal(s)


def test_successor_rejects_non_fill_edge(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    with pytest.raises(GraphInputError):
        successor(root, (0, 3))


def test_kernel_matches_greedy_retest_reference():
    """prune, successor and removal_order against an independent greedy
    reduction that re-tests chordality with networkx after every drop, with
    no clique criterion and no skipping of stuck pairs."""
    rng = random.Random(1618)
    for _ in range(200):
        f = _random_chordal_completion(rng, rng.randint(3, 10))
        g = f.base
        fill = set(f.fill_edges)
        reduced = prune(f)
        assert set(reduced.fill_edges) == \
            fill - set(helpers.greedy_reduce_by_retest(g, fill, fill)), f
        some = set(f.fill_edges[::2])
        assert set(prune(f, allowed=some).fill_edges) == \
            fill - set(helpers.greedy_reduce_by_retest(g, fill, some)), f
        for e in reduced.fill_edges:
            flipped = set(flip_graph(reduced.supergraph(), e).edges - g.edges)
            expected = flipped - set(
                helpers.greedy_reduce_by_retest(g, flipped, flipped))
            assert set(successor(reduced, e).fill_edges) == expected, (f, e)
        assert removal_order(reduced) == tuple(helpers.greedy_reduce_by_retest(
            g, non_edges(g), reduced.complement_edges)), f
