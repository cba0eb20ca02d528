"""Command line interface tests: parsing, commands, exit codes, formats."""

from __future__ import annotations

import argparse
import codecs
import importlib
import io
import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

import chordalenum
import chordalenum.cli as cli
from chordalenum import GraphInputError, minimal_chordal_completions
from chordalenum.cli import (RunConfig, build_parser, main, parse_graph_input,
                             run)

C4_EDGE_LIST = "0 1\n1 2\n2 3\n3 0\n"
C5_EDGE_LIST = "0 1\n1 2\n2 3\n3 4\n4 0\n"
C5_DIMACS = "c five cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.with_name("pyproject.toml")
# A README transcript: "$ printf '<input>' | chordalenum <command> -", then
# the output lines shown, up to a blank line, a fence or the next prompt.
TRANSCRIPT = re.compile(r"^\$ printf '([^']*)' \| chordalenum (\w+) -\n"
                        r"((?:[^\n$`][^\n]*\n)*)", re.MULTILINE)


def _run(config: RunConfig) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    code = run(config, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def test_parse_edge_list_labels_by_first_appearance():
    g, labels = parse_graph_input("b a\nc b # trailing comment\n\n# note\n")
    assert labels == ("b", "a", "c")
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (0, 2)})


def test_parse_edge_list_errors_carry_line_numbers():
    with pytest.raises(GraphInputError, match="line 2"):
        parse_graph_input("a b\na b c\n")
    with pytest.raises(GraphInputError, match="line 3"):
        parse_graph_input("a b\nb c\nd d\n")


def test_parse_dimacs_basic():
    g, labels = parse_graph_input(C5_DIMACS)
    assert g.n == 5
    assert labels == ("1", "2", "3", "4", "5")
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})


def test_parse_dimacs_errors():
    cases = [
        ("p edge 2 1\np edge 2 1\ne 1 2\n", "duplicate problem line"),
        ("p vertex 2 1\ne 1 2\n", "expected 'p edge"),
        ("e 1 2\np edge 2 1\n", "edge before the problem line"),
        ("p edge 2 1\ne 1 3\n", "outside 1..2"),
        ("p edge 2 1\ne 1 1\n", "self-loop"),
        ("p edge 3 2\ne 1 2\n", "declares 2 edges but 1"),
        ("p edge 2 1\nq 1 2\n", "unrecognized"),
        ("e 1 2\n", "edge before the problem line"),
        ("c only comments\n", "missing 'p edge"),
        ("p edge two 1\ne 1 2\n", "non-integer"),
    ]
    for text, fragment in cases:
        with pytest.raises(GraphInputError, match=fragment):
            parse_graph_input(text, input_format="dimacs")


def test_parse_auto_detects_dimacs_header():
    g, _ = parse_graph_input(C5_DIMACS, input_format="auto")
    assert g.n == 5
    g, _ = parse_graph_input(C4_EDGE_LIST, input_format="auto")
    assert g.n == 4
    # An edge-list line has two tokens even when a vertex is labelled p; a
    # malformed header still reaches the dimacs parser's error.
    g, labels = parse_graph_input("p q\nq r\nr s  # four-cycle\ns p\n",
                                  input_format="auto")
    assert g.n == 4 and labels == ("p", "q", "r", "s")
    with pytest.raises(GraphInputError, match="expected 'p edge"):
        parse_graph_input("p vertex 2 1\ne 1 2\n", input_format="auto")


def test_enumerate_four_cycle_golden_output():
    code, out, err = _run(RunConfig(command="enumerate", text=C4_EDGE_LIST))
    assert code == 0
    assert out == "1-3\n0-2\n"
    assert err == ""


def test_enumerate_respects_string_labels():
    code, out, _ = _run(RunConfig(command="enumerate",
                                  text="a b\nb c\nc d\nd a\n"))
    assert code == 0
    assert out == "b-d\na-c\n"


def test_enumerate_prints_dash_for_empty_fill():
    code, out, _ = _run(RunConfig(command="enumerate", text="a b\nb c\n"))
    assert code == 0
    assert out == "-\n"


def test_enumerate_jsonlines_format():
    config = RunConfig(command="enumerate", text=C5_DIMACS,
                       output_format="jsonlines")
    code, out, _ = _run(config)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    fills = {frozenset(tuple(pair) for pair in json.loads(line)["fill"])
             for line in lines}
    assert fills == {
        frozenset({("2", "5"), ("3", "5")}),
        frozenset({("1", "3"), ("1", "4")}),
        frozenset({("1", "3"), ("3", "5")}),
        frozenset({("2", "4"), ("1", "4")}),
        frozenset({("2", "4"), ("2", "5")}),
    }


def test_enumerate_limit_stops_early():
    config = RunConfig(command="enumerate", text=C5_EDGE_LIST, limit=2)
    code, out, _ = _run(config)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_limit_zero_emits_nothing():
    code, out, _ = _run(RunConfig(command="enumerate", text=C5_EDGE_LIST,
                                  limit=0))
    assert (code, out) == (0, "")
    code, out, _ = _run(RunConfig(command="count", text=C5_EDGE_LIST,
                                  limit=0))
    assert (code, out) == (0, "0\n")
    code, out, _ = _run(RunConfig(command="bench", text=C5_EDGE_LIST,
                                  limit=0))
    assert code == 0
    assert "solutions=0" in out


@pytest.mark.parametrize("command", ["enumerate", "count", "bench"])
def test_negative_limit_exits_two(tmp_path, capsys, command):
    path = tmp_path / "five.txt"
    path.write_text(C5_EDGE_LIST)
    assert main([command, str(path), "--limit", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nonnegative" in captured.err


@pytest.mark.parametrize("command", ["enumerate", "count", "bench"])
def test_limit_past_maxsize_is_no_limit(tmp_path, capsys, command):
    # ``islice`` takes no stop past sys.maxsize; no input has that many
    # solutions, so such a limit cuts nothing.
    huge = sys.maxsize + 1
    path = tmp_path / "five.txt"
    path.write_text(C5_EDGE_LIST)
    assert main([command, str(path), "--limit", str(huge)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    code, via_run, _ = _run(RunConfig(command=command, text=C5_EDGE_LIST,
                                      limit=huge))
    assert code == 0
    _, unlimited, _ = _run(RunConfig(command=command, text=C5_EDGE_LIST))
    for out in (captured.out, via_run):
        if command == "bench":
            assert out.splitlines()[0] == "solutions=5"
        else:
            assert out == unlimited


@pytest.mark.parametrize("command", ["enumerate", "count", "bench"])
def test_unknown_mode_exits_two(command):
    code, out, err = _run(RunConfig(command=command, text=C4_EDGE_LIST,
                                    mode="bogus"))
    assert (code, out) == (2, "")
    assert err == "error: --mode must be one of reverse_search, " \
        "visited_set, got 'bogus'\n"


def test_unknown_output_format_exits_two():
    code, out, err = _run(RunConfig(command="enumerate", text=C4_EDGE_LIST,
                                    output_format="bogus"))
    assert (code, out) == (2, "")
    assert err == "error: --format must be one of edges, jsonlines, " \
        "got 'bogus'\n"


def test_enumerate_stats_go_to_stderr():
    config = RunConfig(command="enumerate", text=C4_EDGE_LIST, stats=True)
    code, out, err = _run(config)
    assert code == 0
    assert "solutions=2" in err
    assert "peak_retained=" in err
    assert "1-3" in out


def test_count_both_modes():
    for mode in ("reverse_search", "visited_set"):
        code, out, _ = _run(RunConfig(command="count", text=C5_EDGE_LIST,
                                      mode=mode))
        assert code == 0
        assert out == "5\n"


def test_count_six_cycle():
    text = "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
    code, out, _ = _run(RunConfig(command="count", text=text))
    assert code == 0
    assert out == "14\n"


def test_verify_reports_ok():
    code, out, _ = _run(RunConfig(command="verify", text=C5_EDGE_LIST))
    assert code == 0
    assert "reverse_search solutions: 5" in out
    assert "visited_set solutions: 5" in out
    assert "modes agree: yes" in out
    assert "oracle solutions: 5" in out
    assert "verification ok" in out


def test_verify_skips_oracle_above_limit():
    config = RunConfig(command="verify", text=C5_EDGE_LIST, oracle_limit=3)
    code, out, _ = _run(config)
    assert code == 0
    assert "oracle skipped: 5 non-edges exceed the limit of 3" in out
    assert "modes agree: yes" in out
    assert "verification ok" in out


@pytest.mark.parametrize("oracle_limit", [20, 3])
def test_verify_fails_on_a_shared_non_minimal_emission(monkeypatch,
                                                        oracle_limit):
    # Both modes emit the full completion in place of the smallest
    # solution, so they agree; the run must fail with or without the oracle.
    def with_full(search):
        def swapped(system, stats=None):
            results = list(search(system, stats))
            smallest = min(results, key=lambda f: f.mask)
            return iter([chordalenum.Completion.full(f.base)
                         if f == smallest else f for f in results])
        return swapped
    for name in ("reverse_search", "visited_set_search"):
        monkeypatch.setattr(cli, name, with_full(getattr(cli, name)))
    six_cycle = "".join(f"{v} {(v + 1) % 6}\n" for v in range(6))
    config = RunConfig(command="verify", text=six_cycle,
                       oracle_limit=oracle_limit)
    code, out, _ = _run(config)
    assert code == 1
    assert "modes agree: yes" in out
    assert "not minimal: " in out


def test_verify_runs_the_oracle_on_a_nine_cycle(tmp_path, capsys):
    # 27 non-edges: 2^27 fill sets for a subset sweep, a few thousand for
    # the oracle's one-chord search.
    path = tmp_path / "nine.txt"
    path.write_text("".join(f"{v} {(v + 1) % 9}\n" for v in range(9)))
    assert main(["verify", str(path), "--oracle-limit", "27"]) == 0
    out = capsys.readouterr().out
    assert "oracle solutions: 429" in out
    assert "verification ok" in out


def test_negative_oracle_limit_exits_two(tmp_path, capsys):
    path = tmp_path / "five.txt"
    path.write_text(C5_EDGE_LIST)
    assert main(["verify", str(path), "--oracle-limit", "-5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "--oracle-limit must be nonnegative" in captured.err


def test_verify_fails_when_a_solution_is_dropped(monkeypatch):
    real = cli.reverse_search

    def lossy(system, stats=None):
        results = list(real(system, stats))
        return iter(results[:-1])

    monkeypatch.setattr(cli, "reverse_search", lossy)
    code, out, _ = _run(RunConfig(command="verify", text=C5_EDGE_LIST))
    assert code == 1
    assert "modes agree: no" in out
    assert "missing:" in out


def test_verify_fails_on_duplicates(monkeypatch):
    real = cli.reverse_search

    def stuttering(system, stats=None):
        results = list(real(system, stats))
        return iter(results + results[:1])

    monkeypatch.setattr(cli, "reverse_search", stuttering)
    code, out, _ = _run(RunConfig(command="verify", text=C5_EDGE_LIST))
    assert code == 1
    assert "reverse_search duplicates: 1" in out


def test_bench_reports_delay_fields():
    code, out, _ = _run(RunConfig(command="bench", text=C5_EDGE_LIST))
    assert code == 0
    assert "solutions=5" in out
    assert "total_s=" in out
    assert "delay_ms min=" in out
    assert "first_decile_max_ms=" in out
    assert "peak_retained=" in out


def test_run_returns_two_on_bad_input():
    code, _, err = _run(RunConfig(command="enumerate", text="a a\n"))
    assert code == 2
    assert err.startswith("error:")


def test_main_reads_file(tmp_path, capsys):
    path = tmp_path / "square.txt"
    path.write_text(C4_EDGE_LIST)
    assert main(["count", str(path)]) == 0
    assert capsys.readouterr().out == "2\n"


def test_main_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(C4_EDGE_LIST))
    assert main(["enumerate"]) == 0
    assert capsys.readouterr().out == "1-3\n0-2\n"


def test_main_missing_file_exits_two(tmp_path, capsys):
    missing = tmp_path / "absent.txt"
    assert main(["count", str(missing)]) == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_main_non_utf8_file_exits_two(tmp_path, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n1 \xff\n")
    assert main(["enumerate", str(path)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_main_non_utf8_stdin_exits_two(monkeypatch, capsys):
    # The stream decodes as the interpreter's stdin does under a C locale,
    # where the bad byte would otherwise come through as a vertex label.
    stdin = io.TextIOWrapper(io.BytesIO(b"0 1\n1 2\n2 \xff\n\xff 0\n"),
                             encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert main(["enumerate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "standard input is not UTF-8" in captured.err


def test_main_huge_vertex_count_exits_two(monkeypatch, capsys):
    # Too large to index a list, and too large to allocate one.
    for n in (10**19, 10**15):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"p edge {n} 0\n"))
        assert main(["count", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: vertex count {n} is too large\n"


def test_main_too_many_non_edges_exits_two():
    # 20,000 vertices build, but their ~2e8 non-edges do not fit under the
    # child's address-space cap; the cap applies to that child only.
    resource = pytest.importorskip("resource")
    cap = 512 * 2**20

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "chordalenum", "count", "-"],
        input="p edge 20000 0\n", capture_output=True, text=True,
        timeout=120, preexec_fn=limit_memory)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_readme_transcripts_replay(monkeypatch, capsys):
    transcripts = TRANSCRIPT.findall(README.read_text(encoding="utf-8"))
    assert {command for _, command, _ in transcripts} == \
        {"enumerate", "count", "verify"}
    for printed, command, shown in transcripts:
        stdin = codecs.decode(printed, "unicode_escape")
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main([command, "-"]) == 0
        assert capsys.readouterr().out == shown, (command, printed)


@pytest.mark.parametrize("command", ["enumerate", "count", "verify",
                                     "bench"])
def test_main_leaves_defaults_to_run_config(tmp_path, monkeypatch, command):
    path = tmp_path / "five.txt"
    path.write_text(C5_EDGE_LIST)
    handed = []
    monkeypatch.setattr(cli, "run", lambda config: handed.append(config) or 0)
    assert main([command, str(path)]) == 0
    assert handed == [RunConfig(command=command, text=C5_EDGE_LIST)]


def test_mode_choices_are_the_library_modes():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("enumerate", "count", "bench"):
        mode = next(a for a in sub.choices[command]._actions
                    if a.dest == "mode")
        assert list(mode.choices) == list(chordalenum.MODES)
    g, _ = parse_graph_input(C5_EDGE_LIST)
    for name in chordalenum.MODES:
        assert len(list(minimal_chordal_completions(g, name))) == 5


def test_main_interrupt_exits_130(tmp_path, monkeypatch, capsys):
    def interrupted(config, out=None, err=None):
        raise KeyboardInterrupt

    path = tmp_path / "five.txt"
    path.write_text(C5_EDGE_LIST)
    monkeypatch.setattr(cli, "run", interrupted)
    assert main(["count", str(path)]) == 130
    assert "Traceback" not in capsys.readouterr().err


def test_main_forwards_cli_flags(tmp_path, capsys):
    path = tmp_path / "five.col"
    path.write_text(C5_DIMACS)
    assert main(["enumerate", str(path), "--input-format", "dimacs",
                 "--format", "jsonlines", "--limit", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        assert set(json.loads(line)) == {"fill"}


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "chordalenum.cli", "count", "-"],
        input=C5_EDGE_LIST, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_package_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "chordalenum", "count", "-"],
        input=C5_EDGE_LIST, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "5\n"


def test_enumerate_into_closed_pipe_exits_zero():
    # C11 prints about 160 KB, more than the pipe and stdout buffers hold,
    # so the process is still writing when the reader goes away.
    text = "".join(f"{i} {(i + 1) % 11}\n" for i in range(11))
    with subprocess.Popen(
            [sys.executable, "-m", "chordalenum.cli", "enumerate", "-",
             "--mode", "visited_set"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE) as proc:
        proc.stdin.write(text.encode())
        proc.stdin.close()
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in err


def test_console_script_smoke():
    script = shutil.which("chordalenum")
    if script is not None:
        command = [script]
    else:
        # Not installed: run the entry point pyproject.toml declares for it.
        declared = re.search(r'^\[project\.scripts\]\nchordalenum = "(.+)"$',
                             PYPROJECT.read_text(encoding="utf-8"), re.M)
        assert declared is not None
        module, attr = declared.group(1).split(":")
        assert getattr(importlib.import_module(module), attr) is main
        command = [sys.executable, "-c",
                   f"import sys; from {module} import {attr}; "
                   f"sys.exit({attr}())"]
    proc = subprocess.run(command + ["enumerate", "-"], input=C4_EDGE_LIST,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout == "1-3\n0-2\n"
