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
from chordalenum.graph import _mcs_violation
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
    assert g.adj_masks == (0b10010, 0b00101, 0b00010, 0, 0b00001)
    assert g.has_edge(1, 0) and not g.has_edge(2, 3)
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)
            assert g.has_edge(u, v) == bool(g.adj_masks[u] >> v & 1)
    # An endpoint outside 0..n-1, negative included, is no edge.
    k3 = helpers.complete_graph(3)
    for u, v in [(0, 3), (3, 0), (0, -1), (-1, 0), (-1, -1), (0, 10**30),
                 (10**30, 1), (-(10**30), 2)]:
        assert k3.has_edge(u, v) is False
    assert Graph(0).has_edge(0, 0) is False


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


class _RowReads(list):
    """Adjacency rows that record, in order, each vertex whose row is read
    for the first time."""

    def __init__(self, rows):
        super().__init__(rows)
        self.first_reads: list[int] = []

    def __getitem__(self, v):
        if v not in self.first_reads:
            self.first_reads.append(v)
        return super().__getitem__(v)


def test_mcs_kernel_matches_linear_scan_mcs():
    # The kernel keeps its unvisited vertices in per-weight levels; it must
    # visit in the order of one weight scan per visit and stop at the same
    # first violation.  It reads a vertex's row first when it visits it
    # (later reads are of rows already visited), so the first reads are its
    # visit order; chordal inputs show the whole of it.
    rng = random.Random(610)
    graphs = helpers.atlas_graphs(7, min_n=0)
    for _ in range(300):
        n = rng.randint(1, 14)
        graphs.append(helpers.random_graph(
            rng, n, rng.randint(0, n * (n - 1) // 2)))
        graphs.append(helpers.random_chordal_graph(rng, n))
    for g in graphs:
        rows = _RowReads(g.adj_masks)
        violation = _mcs_violation(g.n, rows)
        assert violation == _mcs_violation(g.n, g.adj_masks)
        assert ((rows.first_reads, violation)
                == helpers.mcs_by_linear_scan(g)), g.edges


def test_find_chordless_cycle_agrees_with_is_chordal():
    # The witness is the first MCS violation (v, a, b) closed by a shortest
    # a-b path outside N[v], and such a path always exists (the lemma in
    # the kernel's docstring).  Checked on every labelled graph on 6
    # vertices, 14,614 of the 32,768 not chordal, on the atlas, and on
    # seeded random graphs with 4-12 vertices, whose verdict networkx gives.
    def check(g: Graph) -> bool:
        violation = _mcs_violation(g.n, g.adj_masks)
        witness = find_chordless_cycle(g)
        if violation is None:
            assert witness is None and is_chordal(g)
            return False
        v, a, b = violation
        assert witness[-1] == v and {witness[0], witness[-2]} == {a, b}
        _assert_chordless_cycle(g, witness)
        return True

    pairs = helpers.all_pairs(6)
    assert sum(
        check(Graph(6, [e for i, e in enumerate(pairs) if bits >> i & 1]))
        for bits in range(1 << len(pairs))) == 14614
    for g in helpers.atlas_graphs(6):
        check(g)
    rng = random.Random(5150)
    found = 0
    for _ in range(1500):
        n = rng.randint(4, 12)
        g = helpers.random_graph(rng, n, rng.randint(0, n * (n - 1) // 2))
        assert check(g) != nx.is_chordal(helpers.to_networkx(g)), g.edges
        found += not is_chordal(g)
    assert found > 600


def test_graph_equality_and_hash():
    a = Graph(4, [(0, 1), (2, 3)])
    b = Graph(4, [(2, 3), (1, 0)])
    c = Graph(5, [(0, 1), (2, 3)])
    assert a == b and hash(a) == hash(b)
    assert a != c
