"""Package-level API surface tests."""

from __future__ import annotations

import doctest

import pytest

import chordalenum
import helpers
from chordalenum import TraversalStats, minimal_chordal_completions


def test_module_doctests_pass():
    failures, tried = doctest.testmod(chordalenum)
    assert tried > 0
    assert failures == 0


def test_all_exports_resolve():
    for name in chordalenum.__all__:
        assert hasattr(chordalenum, name), name


def test_version_string():
    assert chordalenum.__version__.count(".") == 2


def test_minimal_chordal_completions_modes_agree():
    g = helpers.cycle_graph(6)
    default = set(minimal_chordal_completions(g))
    baseline = set(minimal_chordal_completions(g, mode="visited_set"))
    assert default == baseline
    assert len(default) == 14


def test_minimal_chordal_completions_accepts_stats():
    g = helpers.cycle_graph(5)
    stats = TraversalStats()
    count = sum(1 for _ in minimal_chordal_completions(g, stats=stats))
    assert count == stats.solutions == 5


def test_minimal_chordal_completions_rejects_unknown_mode():
    g = helpers.cycle_graph(4)
    with pytest.raises(ValueError, match="unknown mode"):
        list(minimal_chordal_completions(g, mode="dfs"))


def test_unknown_mode_is_rejected_before_any_work(monkeypatch):
    built = []
    monkeypatch.setattr(chordalenum, "chordal_completion_system",
                        built.append)
    with pytest.raises(ValueError, match="unknown mode"):
        minimal_chordal_completions(helpers.cycle_graph(4), mode="dfs")
    assert built == []
