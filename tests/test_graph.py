"""Graph construction, non-edge bookkeeping, and chordality tests."""

from __future__ import annotations

import itertools
import random

import networkx as nx
import pytest

import helpers
from chordalenum import (Graph, GraphInputError, chordal_completion_system,
                         find_chordless_cycle, is_chordal, non_edges,
                         reverse_search)
from test_acceptance import BIG_INSTANCE_EDGES


def test_build_graph_collapses_duplicate_edges():
    g = Graph(3, [(0, 1), (1, 0)])
    assert g.edges == frozenset({(0, 1)})
    assert g.n == 3


def test_build_graph_rejects_self_loop():
    with pytest.raises(GraphInputError) as exc:
        Graph(2, [(0, 0)])
    assert "(0, 0)" in str(exc.value)


def test_build_graph_rejects_out_of_range_endpoint():
    with pytest.raises(GraphInputError) as exc:
        Graph(3, [(0, 3)])
    assert "(0, 3)" in str(exc.value)


def test_build_graph_rejects_negative_vertex_count():
    with pytest.raises(GraphInputError):
        Graph(-1, [])


def test_graph_rejects_a_vertex_count_too_large_to_build():
    with pytest.raises(GraphInputError, match="too large"):
        Graph(10**19)


def test_adjacency_views_agree():
    g = Graph(5, [(0, 1), (1, 2), (0, 4)])
    assert g.adj[0] == frozenset({1, 4})
    assert g.adj[3] == frozenset()
    assert g.has_edge(1, 0) and not g.has_edge(2, 3)
    for v in range(g.n):
        assert g.adj[v] == frozenset(
            u for u in range(g.n) if g.adj_masks[v] >> u & 1)


def test_non_edges_sorted_and_partition():
    g = helpers.cycle_graph(4)
    assert non_edges(g) == ((0, 2), (1, 3))
    for graph in [helpers.complete_graph(4), helpers.path_graph(5),
                  helpers.cycle_graph(6)]:
        ne = non_edges(graph)
        assert list(ne) == sorted(ne)
        assert set(ne) | graph.edges == set(helpers.all_pairs(graph.n))
        assert not set(ne) & graph.edges


def test_non_edges_of_complete_graph_empty():
    assert non_edges(helpers.complete_graph(5)) == ()


def test_is_chordal_small_cases():
    assert is_chordal(Graph(0))
    assert is_chordal(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert is_chordal(helpers.path_graph(6))
    assert is_chordal(helpers.complete_graph(6))
    assert not is_chordal(helpers.cycle_graph(4))
    assert not is_chordal(helpers.cycle_graph(5))
    assert not is_chordal(helpers.cycle_graph(6))


def test_is_chordal_five_cycle_with_fan_chords():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4), (2, 4)])
    assert helpers.chordal_by_cycle_search(g)
    assert is_chordal(g)


def test_is_chordal_matches_cycle_search_on_atlas():
    for g in helpers.atlas_graphs(6):
        assert is_chordal(g) == helpers.chordal_by_cycle_search(g), g.edges


def test_is_chordal_matches_networkx_on_random_graphs():
    rng = random.Random(90125)
    for _ in range(400):
        n = rng.randint(1, 11)
        k = rng.randint(0, n * (n - 1) // 2)
        g = helpers.random_graph(rng, n, k)
        assert is_chordal(g) == nx.is_chordal(helpers.to_networkx(g)), g.edges
    # Benchmark-size inputs: the filled graphs of the first solutions of the
    # 14-vertex cubic instance, each also with one fill edge removed (never
    # chordal, since the completion is minimal).
    system = chordal_completion_system(Graph(14, BIG_INSTANCE_EDGES))
    for f in itertools.islice(reverse_search(system), 300):
        filled = f.supergraph()
        cut = Graph(14, filled.edges - {rng.choice(f.fill_edges)})
        for g in (filled, cut):
            assert is_chordal(g) == nx.is_chordal(helpers.to_networkx(g)), \
                g.edges


def test_is_chordal_handles_disconnected_graphs():
    two_squares = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0),
                            (4, 5), (5, 6), (6, 7), (7, 4)])
    assert not is_chordal(two_squares)
    square_plus_chord = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2),
                                  (4, 5), (5, 6), (6, 7), (7, 4), (4, 6)])
    assert is_chordal(square_plus_chord)


def test_find_chordless_cycle_on_four_cycle():
    cycle = find_chordless_cycle(helpers.cycle_graph(4))
    assert cycle is not None
    assert set(cycle) == {0, 1, 2, 3}
    assert len(cycle) == 4


def _assert_chordless_cycle(g: Graph, cycle: list[int]) -> None:
    k = len(cycle)
    assert k >= 4
    assert len(set(cycle)) == k
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            assert g.has_edge(cycle[i], cycle[j]) == consecutive


def test_find_chordless_cycle_agrees_with_is_chordal():
    rng = random.Random(5150)
    graphs = helpers.atlas_graphs(6)
    for _ in range(150):
        n = rng.randint(4, 9)
        graphs.append(
            helpers.random_graph(rng, n, rng.randint(0, min(12, n * (n - 1) // 2))))
    for g in graphs:
        witness = find_chordless_cycle(g)
        if is_chordal(g):
            assert witness is None
        else:
            assert witness is not None
            _assert_chordless_cycle(g, witness)


def test_graph_equality_and_hash():
    a = Graph(4, [(0, 1), (2, 3)])
    b = Graph(4, [(2, 3), (1, 0)])
    c = Graph(5, [(0, 1), (2, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != c
