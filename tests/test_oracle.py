"""Brute-force reference enumeration and verification-report tests."""

from __future__ import annotations

import random

import pytest

import helpers
from chordalenum import (Completion, SolutionSet,
                         brute_force_minimal_completions, non_edges,
                         verify_solution_set)


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


def test_verify_solution_set_reports_duplicates():
    g = helpers.cycle_graph(4)
    reference = brute_force_minimal_completions(g)
    a = Completion.from_edges(g, [(0, 2)])
    b = Completion.from_edges(g, [(1, 3)])
    report = verify_solution_set(
        SolutionSet.collect([a, b, b], "noisy"), reference)
    assert not report.ok
    assert report.duplicates == (b,)
