"""Package-level API surface tests."""

from __future__ import annotations

import ast
import contextlib
import doctest
import io
import pathlib
import re

import pytest

import chordalenum
import helpers
from chordalenum import TraversalStats, minimal_chordal_completions

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FENCE = re.compile(r"^```(\w*)\n(.*?)^```\n", re.MULTILINE | re.DOTALL)


def _library_usage() -> str:
    """The README's "Library usage" section, up to the next heading."""
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library usage\n", 1)[1].split("\n## ", 1)[0]


def test_module_doctests_pass():
    failures, tried = doctest.testmod(chordalenum)
    assert tried > 0
    assert failures == 0


def test_all_exports_resolve():
    for name in chordalenum.__all__:
        assert hasattr(chordalenum, name), name


def test_readme_library_usage_names_exactly_the_exports():
    # Inline code spans that are a name, or a name called with arguments,
    # outside the fenced blocks.
    prose = FENCE.sub("", _library_usage())
    named = {m.group(1) for m in re.finditer(
        r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", prose)}
    assert named == set(chordalenum.__all__)


def test_readme_python_example_replays():
    blocks = FENCE.findall(_library_usage())
    (lang, code), (_, shown) = blocks[:2]
    assert lang == "python"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    assert printed.getvalue() == shown


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


def test_every_import_is_used_or_exported():
    # No linter runs here, so this stands in for an unused-import check: a
    # name that a module of the package imports is read in that module or
    # listed in its __all__, so a deletion leaves no orphaned import.
    for path in sorted(pathlib.Path(chordalenum.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        assert not imported - used - exported, path.name
