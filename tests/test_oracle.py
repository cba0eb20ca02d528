"""Brute-force reference enumeration and verification-report tests."""

from __future__ import annotations

import random
from collections import deque
from itertools import combinations

import networkx as nx
import pytest

import chordalenum.completions
import chordalenum.oracle as oracle
import helpers
from chordalenum import (Completion, Graph, SolutionSet,
                         brute_force_minimal_completions,
                         chordal_completion_system, find_chordless_cycle,
                         is_chordal, is_chordal_completion, non_edges,
                         reverse_search, verify_solution_set,
                         visited_set_search)


def test_brute_force_on_four_cycle_frozen():
    g = helpers.cycle_graph(4)
    result = brute_force_minimal_completions(g)
    assert result.solutions == frozenset({
        Completion.from_edges(g, [(0, 2)]),
        Completion.from_edges(g, [(1, 3)]),
    })
    assert result.duplicates == ()
    assert len(result) == 2


def test_brute_force_on_chordal_graph_is_empty_completion():
    g = helpers.path_graph(5)
    result = brute_force_minimal_completions(g)
    assert result.solutions == frozenset({Completion.empty(g)})


def test_brute_force_catalan_counts():
    assert len(brute_force_minimal_completions(helpers.cycle_graph(5))) == 5
    assert len(brute_force_minimal_completions(helpers.cycle_graph(6))) == 14
    # C9's 27 non-edges are 2^27 subsets, past any subset sweep; one-chord
    # steps reach its Catalan(7) = 429 completions in a few thousand.
    g = helpers.cycle_graph(9)
    family = brute_force_minimal_completions(g, limit=27).solutions
    assert len(family) == 429
    assert family == set(visited_set_search(chordal_completion_system(g)))


def test_brute_force_matches_independent_subset_sweep():
    rng = random.Random(832040)
    graphs = [helpers.cycle_graph(4), helpers.cycle_graph(5),
              helpers.path_graph(4)]
    while len(graphs) < 23:
        g = helpers.random_graph_at_most(rng, rng.randint(3, 5), 7)
        if len(non_edges(g)) <= 7:
            graphs.append(g)
    for g in graphs:
        expected = helpers.minimal_sets_by_subset_sweep(g)
        got = {frozenset(f.fill_edges)
               for f in brute_force_minimal_completions(g).solutions}
        assert got == expected, g.edges


def test_brute_force_refuses_large_ground_sets():
    g = helpers.path_graph(8)
    assert len(non_edges(g)) == 21
    with pytest.raises(ValueError) as exc:
        brute_force_minimal_completions(g)
    assert "21" in str(exc.value) and "20" in str(exc.value)
    raised = brute_force_minimal_completions(g, limit=21)
    assert len(raised) >= 1


def test_solution_set_collect_records_duplicates():
    g = helpers.cycle_graph(4)
    a = Completion.from_edges(g, [(0, 2)])
    b = Completion.from_edges(g, [(1, 3)])
    collected = SolutionSet.collect([a, b, a], source="test")
    assert collected.solutions == frozenset({a, b})
    assert collected.duplicates == (a,)
    assert collected.source == "test"


def test_verify_solution_set_accepts_exact_match():
    g = helpers.cycle_graph(5)
    reference = brute_force_minimal_completions(g)
    produced = SolutionSet.collect(sorted(reference.solutions,
                                          key=lambda f: f.mask), "copy")
    report = verify_solution_set(produced, reference)
    assert report.ok
    assert str(report) == "verification ok"


def test_verify_solution_set_flags_missing_and_extra():
    g = helpers.cycle_graph(4)
    reference = brute_force_minimal_completions(g)
    only_one = Completion.from_edges(g, [(0, 2)])
    other = Completion.from_edges(g, [(1, 3)])
    report = verify_solution_set(
        SolutionSet.collect([only_one], "partial"), reference)
    assert not report.ok
    assert report.missing == (other,)
    assert report.extra == ()
    assert any(line.startswith("missing") for line in str(report).splitlines())


def test_verify_solution_set_flags_non_minimal_members():
    g = helpers.cycle_graph(4)
    reference = brute_force_minimal_completions(g)
    full = Completion.full(g)
    report = verify_solution_set(
        SolutionSet.collect([full], "padded"), reference)
    assert not report.ok
    assert report.not_minimal == (full,)
    assert full in report.extra


def test_verify_solution_set_flags_non_chordal_members():
    g = helpers.cycle_graph(5)
    reference = brute_force_minimal_completions(g)
    hollow = Completion.empty(g)
    report = verify_solution_set(
        SolutionSet.collect([hollow], "broken"), reference)
    assert not report.ok
    assert report.not_chordal == (hollow,)
    # Its report line names a chordless cycle of the filled graph.
    line, = (line for line in str(report).splitlines()
             if line.startswith("not chordal"))
    assert line == "not chordal: Completion({}), chordless cycle 0-1-2-3-4"


def test_verify_report_cycle_runs_through_fill_edges():
    g = helpers.cycle_graph(6)
    broken = Completion.from_edges(g, [(0, 2)])
    report = verify_solution_set(SolutionSet.collect([broken], "broken"),
                                 brute_force_minimal_completions(g))
    line, = (line for line in str(report).splitlines()
             if line.startswith("not chordal"))
    assert line == "not chordal: Completion({0-2}), chordless cycle 0-2-3-4-5"


def test_verify_report_cycles_are_chordless_cycles_of_the_filled_graph():
    # About 200 seeded non-chordal fills of random graphs: each report
    # line's cycle must be an induced cycle of length >= 4 of the filled
    # graph, walked in order, and the one find_chordless_cycle gives.
    rng = random.Random(514229)
    checked = 0
    while checked < 200:
        n = rng.randint(4, 9)
        pairs = n * (n - 1) // 2
        g = helpers.random_graph(rng, n, rng.randint(2, pairs - 1))
        m = len(non_edges(g))
        # Sparse fills leave longer cycles than uniform ones.
        members = {Completion(g, rng.getrandbits(m) & rng.getrandbits(m))
                   for _ in range(3)}
        broken = [f for f in members if not is_chordal_completion(f)]
        if not broken:
            continue
        report = verify_solution_set(SolutionSet.collect(broken, "broken"),
                                     SolutionSet.collect([], "none"))
        lines = [line for line in str(report).splitlines()
                 if line.startswith("not chordal")]
        assert len(lines) == len(broken)
        for f, line in zip(report.not_chordal, lines):
            head, cycle_text = line.split(", chordless cycle ")
            assert head == f"not chordal: {f!r}"
            cycle = [int(v) for v in cycle_text.split("-")]
            filled = helpers.to_networkx(f.supergraph())
            induced = filled.subgraph(cycle)
            assert len(set(cycle)) == len(cycle) >= 4, line
            assert all(d == 2 for _, d in induced.degree()), line
            assert nx.is_connected(induced), line
            assert all(filled.has_edge(a, b)
                       for a, b in zip(cycle, cycle[1:] + cycle[:1])), line
            assert cycle == find_chordless_cycle(f.supergraph()), line
            checked += 1


def test_verify_solution_set_reports_duplicates():
    g = helpers.cycle_graph(4)
    reference = brute_force_minimal_completions(g)
    a = Completion.from_edges(g, [(0, 2)])
    b = Completion.from_edges(g, [(1, 3)])
    report = verify_solution_set(
        SolutionSet.collect([a, b, b], "noisy"), reference)
    assert not report.ok
    assert report.duplicates == (b,)


def test_verify_solution_set_builds_one_adjacency_per_member(monkeypatch):
    # One filled adjacency per member decides both chordality and
    # minimality: a non-chordal, a chordal non-minimal and a minimal member.
    built = []
    build = chordalenum.completions._filled_masks

    def counted(base, mask):
        built.append(mask)
        return build(base, mask)
    monkeypatch.setattr(chordalenum.completions, "_filled_masks", counted)
    g = helpers.cycle_graph(5)
    hollow = Completion.empty(g)
    full = Completion.full(g)
    minimal = Completion.from_edges(g, [(1, 4), (2, 4)])
    produced = SolutionSet.collect([hollow, full, minimal], "mixed")
    report = verify_solution_set(produced, SolutionSet.collect([], "none"))
    assert report.not_chordal == (hollow,)
    assert report.not_minimal == (full,)
    assert sorted(built) == sorted(f.mask for f in (hollow, full, minimal))


def _plain_level_sweep(g: Graph) -> frozenset:
    """The oracle's sweep without certificates: every unskipped subset gets
    a chordality test."""
    m = len(non_edges(g))
    accepted_masks: list[int] = []
    out = []
    for size in range(m + 1):
        level_exhausted = True
        for combo in combinations(range(m), size):
            mask = sum(1 << i for i in combo)
            if any(s & mask == s for s in accepted_masks):
                continue
            f = Completion(g, mask)
            if is_chordal_completion(f):
                accepted_masks.append(mask)
                out.append(f)
            else:
                level_exhausted = False
        if level_exhausted:
            break
    return frozenset(out)


def test_pruned_sweep_matches_plain_sweep_and_subset_sweep():
    rng = random.Random(196418)
    graphs = helpers.atlas_graphs(6, min_n=0)
    graphs += [helpers.random_graph_at_most(rng, rng.randint(5, 8), 12)
               for _ in range(30)]
    chordal = [helpers.random_chordal_graph(rng, rng.randint(3, 7))
               for _ in range(10)]
    chordal += [Graph(n) for n in range(7)]
    chordal += [helpers.complete_graph(n) for n in range(8)]
    for g in graphs + chordal:
        got = brute_force_minimal_completions(g, limit=21).solutions
        assert got == _plain_level_sweep(g), g.edges
        if len(non_edges(g)) <= 6:
            assert ({frozenset(f.fill_edges) for f in got}
                    == helpers.minimal_sets_by_subset_sweep(g)), g.edges
        if g in chordal:
            # Chordal inputs (m = 0 among them) keep only the empty fill.
            assert got == frozenset({Completion.empty(g)})


def test_certificate_rejects_every_subset_it_covers():
    # A rejected S gives (E | K, E) from a chordless cycle of G+S.  Every T
    # that contains E and misses K must be non-chordal, by networkx too.
    rng = random.Random(514229)
    certified = 0
    while certified < 60:
        g = helpers.random_graph_at_most(rng, rng.randint(4, 8), 12)
        m = len(non_edges(g))
        s = rng.getrandbits(m)
        if is_chordal_completion(Completion(g, s)):
            continue
        pairs, e = oracle._certificate(g, s)
        # E | K holds exactly the non-edges of G between cycle vertices.
        cycle = find_chordless_cycle(Completion(g, s).supergraph())
        ne = non_edges(g)
        assert pairs == sum(1 << ne.index(p) for p in combinations(
            sorted(cycle), 2) if p in ne)
        k = pairs & ~e
        assert e & ~s == 0 and k & s == 0
        free = ((1 << m) - 1) & ~pairs
        for _ in range(15):
            t = e | rng.getrandbits(m) & free
            f = Completion(g, t)
            assert not is_chordal_completion(f)
            assert not nx.is_chordal(helpers.to_networkx(f.supergraph()))
        certified += 1


def test_oracle_chordality_test_counts_are_frozen(monkeypatch):
    # Certificates leave few fill sets to test (the plain sweep tests these
    # graphs 211, 514, 997 and 514 times), and one-chord steps few to visit
    # (the level sweep visited 466, 2,047, 2,047 and 2,047).  A change to
    # the search or to the chordless-cycle witness that moves the counts on
    # purpose updates them.
    calls = []
    visits = []
    test = oracle.is_chordal_completion

    def counted(f):
        calls.append(f.mask)
        return test(f)

    class CountedQueue(deque):
        def popleft(self):
            visits.append(None)
            return super().popleft()
    monkeypatch.setattr(oracle, "is_chordal_completion", counted)
    monkeypatch.setattr(oracle, "deque", CountedQueue)
    rng = random.Random(317811)
    cases = [helpers.cycle_graph(6)]
    while len(cases) < 4:
        g = helpers.random_graph(rng, 7, 11)
        if not is_chordal(g):
            cases.append(g)
    counts = []
    for g in cases:
        calls.clear()
        visits.clear()
        brute_force_minimal_completions(g)
        counts.append((len(calls), len(visits)))
    assert counts == [(36, 45), (3, 3), (13, 20), (3, 3)]


def test_oracle_family_is_chordal_antichain_equal_to_reverse_search():
    rng = random.Random(121393)
    for _ in range(300):
        g = helpers.random_graph_at_most(rng, rng.randint(1, 8), 14)
        family = brute_force_minimal_completions(g).solutions
        masks = [f.mask for f in family]
        assert all(nx.is_chordal(helpers.to_networkx(f.supergraph()))
                   for f in family), g.edges
        assert not any(a != b and a & b == a for a in masks for b in masks), \
            g.edges
        assert family == set(reverse_search(chordal_completion_system(g))), \
            g.edges


def test_modes_and_oracle_agree_on_larger_random_graphs():
    # Beyond the acceptance corpus: 9-10 vertices, 15-18 non-edges.
    rng = random.Random(832040)
    for _ in range(8):
        g = helpers.random_graph(rng, rng.randint(9, 10), rng.randint(15, 18))
        system = chordal_completion_system(g)
        expected = brute_force_minimal_completions(g).solutions
        assert set(reverse_search(system)) == expected, g.edges
        assert set(visited_set_search(system)) == expected, g.edges
