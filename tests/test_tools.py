"""Smoke tests of the measuring scripts in ``tools/``, which the perf claims
in CHANGES.md rest on."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load_code_lines():
    spec = importlib.util.spec_from_file_location(
        "code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("options", [
    ["--workload", "verify_small"],
    ["--workload", "scale_rs", "--vertices", "8"],
    ["--workload", "cubic14_vs"],
    ["--workload", "cubic14_rs"],
])
def test_ab_compares_the_working_tree_with_itself(options):
    # Both sides are this checkout, so the digests must agree, and so must
    # the work counters of a search workload (verify_small prints none).
    searches = "verify_small" not in options
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         *options, "--inputs", "1"],
        capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode == 0, done.stderr
    assert "digests: identical" in done.stdout
    assert "B/A CPU-time ratio: median" in done.stdout
    assert ("counters: identical" in done.stdout) == searches
    assert ("counters B: solutions " in done.stdout) == searches


# Code lines: ``x = 1``, the three lines of the string token, ``def f():``,
# the two lines of the return expression, ``class C:`` and ``y = 2``.
SYNTHETIC = '''"""Module docstring,
on two lines."""

# A comment line.

x = 1  # a trailing comment
s = """a string
token on
three lines"""


def f():
    """Function docstring."""
    return (1 +
            2)


class C:
    """Class docstring,

    with a blank line inside."""

    y = 2
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks(tmp_path,
                                                              capsys):
    code_lines = _load_code_lines()
    (tmp_path / "synthetic.py").write_text(SYNTHETIC, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n',
                                       encoding="utf-8")
    assert code_lines.code_lines(tmp_path / "synthetic.py") == 9
    assert code_lines.code_lines(tmp_path / "empty.py") == 0
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == [
        f"{'empty.py':16} {0:6,}", f"{'synthetic.py':16} {9:6,}",
        f"{'total':16} {9:6,}", ""]
