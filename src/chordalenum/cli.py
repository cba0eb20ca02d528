"""Command line interface for enumerating minimal chordal completions.

Commands: ``enumerate`` streams solutions, ``count`` totals them, ``verify``
cross-checks both traversal modes (and the brute-force oracle when the
non-edge set is small enough), ``bench`` measures inter-emission delay.

Exit codes: 0 success, 1 verification failure, 2 bad input, 130 interrupted.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Optional, TextIO

from . import MODES, minimal_chordal_completions
from .completions import Completion
from .engine import (TraversalStats, chordal_completion_system, reverse_search,
                     visited_set_search)
from .graph import Graph, GraphInputError, non_edges
from .oracle import (DEFAULT_GROUND_LIMIT, SolutionSet,
                     brute_force_minimal_completions, verify_solution_set)


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs, normalized from argparse.

    The field defaults are the CLI's defaults; they are stated nowhere else.
    """

    command: str
    text: str
    input_format: str = "auto"
    mode: str = "reverse_search"
    limit: Optional[int] = None
    output_format: str = "edges"
    stats: bool = False
    oracle_limit: int = DEFAULT_GROUND_LIMIT


def parse_graph_input(text: str, input_format: str = "auto"
                      ) -> tuple[Graph, tuple[str, ...]]:
    """Parse graph text into a graph plus the original vertex labels.

    ``edge_list``: one edge per line as two whitespace-separated labels,
    ``#`` starts a comment; vertices are numbered by first appearance.
    ``dimacs``: a single ``p edge <n> <m>`` header, ``c`` comments, and
    exactly ``m`` lines ``e <u> <v>`` with 1-based endpoints.
    ``auto`` picks dimacs when a ``p`` header line is present: one whose
    first token is ``p`` and which does not have the two tokens of an
    edge-list line (so a vertex may be labelled ``p``).
    """
    parse = INPUT_FORMATS.get(input_format)
    if parse is None:
        raise GraphInputError(f"unknown input format {input_format!r}")
    return parse(text)


def _parse_auto(text: str) -> tuple[Graph, tuple[str, ...]]:
    has_header = any(
        tokens[:1] == ["p"] and len(tokens) != 2
        for tokens in (line.split("#", 1)[0].split()
                       for line in text.splitlines()))
    return _parse_dimacs(text) if has_header else _parse_edge_list(text)


def _parse_edge_list(text: str) -> tuple[Graph, tuple[str, ...]]:
    labels: dict[str, int] = {}
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphInputError(
                f"line {ln}: expected two vertex labels, got {len(tokens)}")
        if tokens[0] == tokens[1]:
            raise GraphInputError(
                f"line {ln}: self-loop {tokens[0]} {tokens[1]}")
        pair = []
        for tok in tokens:
            if tok not in labels:
                labels[tok] = len(labels)
            pair.append(labels[tok])
        edges.append((pair[0], pair[1]))
    ordered = tuple(sorted(labels, key=labels.get))
    return Graph(len(labels), edges), ordered


def _parse_dimacs(text: str) -> tuple[Graph, tuple[str, ...]]:
    n = None
    declared_m = 0
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if n is not None:
                raise GraphInputError(f"line {ln}: duplicate problem line")
            if len(tokens) != 4 or tokens[1] != "edge":
                raise GraphInputError(
                    f"line {ln}: expected 'p edge <n> <m>'")
            try:
                n, declared_m = int(tokens[2]), int(tokens[3])
            except ValueError:
                raise GraphInputError(
                    f"line {ln}: non-integer sizes in problem line") from None
            if n < 0 or declared_m < 0:
                raise GraphInputError(f"line {ln}: negative size")
        elif tokens[0] == "e":
            if n is None:
                raise GraphInputError(
                    f"line {ln}: edge before the problem line")
            if len(tokens) != 3:
                raise GraphInputError(f"line {ln}: expected 'e <u> <v>'")
            try:
                u, v = int(tokens[1]), int(tokens[2])
            except ValueError:
                raise GraphInputError(
                    f"line {ln}: non-integer endpoint") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphInputError(
                    f"line {ln}: endpoint outside 1..{n}")
            if u == v:
                raise GraphInputError(f"line {ln}: self-loop e {u} {v}")
            edges.append((u - 1, v - 1))
        else:
            raise GraphInputError(
                f"line {ln}: unrecognized dimacs line {tokens[0]!r}")
    if n is None:
        raise GraphInputError("missing 'p edge <n> <m>' problem line")
    if len(edges) != declared_m:
        raise GraphInputError(
            f"problem line declares {declared_m} edges but {len(edges)} "
            "'e' lines found")
    return Graph(n, edges), tuple(str(v) for v in range(1, n + 1))


INPUT_FORMATS = {"auto": _parse_auto, "edge_list": _parse_edge_list,
                 "dimacs": _parse_dimacs}


def _format_edges(f: Completion, labels: tuple[str, ...]) -> str:
    if not f.mask:
        return "-"
    return ",".join(f"{labels[u]}-{labels[v]}" for u, v in f.fill_edges)


def _format_jsonline(f: Completion, labels: tuple[str, ...]) -> str:
    return json.dumps(
        {"fill": [[labels[u], labels[v]] for u, v in f.fill_edges]},
        separators=(",", ":"))


OUTPUT_FORMATS = {"edges": _format_edges, "jsonlines": _format_jsonline}


def _solutions(config: RunConfig, stats: TraversalStats
               ) -> tuple[tuple[str, ...], Iterator[Completion]]:
    """The input's vertex labels and its solutions, cut at the limit.

    The input is parsed here, before the first solution is asked for.  A
    limit past ``sys.maxsize`` (more than ``islice`` takes) is no limit.
    """
    g, labels = parse_graph_input(config.text, config.input_format)
    limit = None if config.limit is None else min(config.limit, sys.maxsize)
    return labels, islice(minimal_chordal_completions(g, config.mode, stats),
                          limit)


def _print_stats(stats: TraversalStats, out: TextIO) -> None:
    for name, value in stats.as_dict().items():
        print(f"{name}={value}", file=out)


def _cmd_enumerate(config: RunConfig, out: TextIO, err: TextIO) -> int:
    """Stream all solutions."""
    stats = TraversalStats()
    labels, solutions = _solutions(config, stats)
    fmt = OUTPUT_FORMATS[config.output_format]
    for f in solutions:
        print(fmt(f, labels), file=out)
    if config.stats:
        _print_stats(stats, err)
    return 0


def _cmd_count(config: RunConfig, out: TextIO, err: TextIO) -> int:
    """Count all solutions."""
    stats = TraversalStats()
    _, solutions = _solutions(config, stats)
    print(sum(1 for _ in solutions), file=out)
    if config.stats:
        _print_stats(stats, err)
    return 0


def _cmd_verify(config: RunConfig, out: TextIO, err: TextIO) -> int:
    """Cross-check both modes and the brute-force oracle (the visited-set
    family above the oracle limit), and re-validate every member."""
    g, _ = parse_graph_input(config.text, config.input_format)
    system = chordal_completion_system(g)
    produced = SolutionSet.collect(reverse_search(system),
                                   source="reverse_search")
    baseline = SolutionSet.collect(visited_set_search(system),
                                   source="visited_set")
    for found in (produced, baseline):
        print(f"{found.source} solutions: {len(found)}", file=out)
    for found in (produced, baseline):
        if found.duplicates:
            print(f"{found.source} duplicates: {len(found.duplicates)}",
                  file=out)
    modes_agree = produced.solutions == baseline.solutions
    ok = modes_agree and not (produced.duplicates or baseline.duplicates)
    print(f"modes agree: {'yes' if modes_agree else 'no'}", file=out)
    ground = len(non_edges(g))
    if ground <= config.oracle_limit:
        reference = brute_force_minimal_completions(g, limit=config.oracle_limit)
        print(f"oracle solutions: {len(reference)}", file=out)
    else:
        # The visited-set family stands in for the oracle's; the report
        # still re-validates every member.
        reference = baseline
        print(f"oracle skipped: {ground} non-edges exceed the limit of "
              f"{config.oracle_limit}", file=out)
    report = verify_solution_set(produced, reference)
    print(str(report), file=out)
    return 0 if ok and report.ok else 1


def _cmd_bench(config: RunConfig, out: TextIO, err: TextIO) -> int:
    """Measure inter-solution delay."""
    stats = TraversalStats()
    _, it = _solutions(config, stats)
    gaps = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        last = start
        for _ in it:
            now = time.perf_counter()
            gaps.append(now - last)
            last = now
        total = last - start
    finally:
        if gc_was_enabled:
            gc.enable()
    print(f"solutions={len(gaps)}", file=out)
    print(f"total_s={total:.3f}", file=out)
    if gaps:
        gaps_ms = sorted(delta * 1000 for delta in gaps)
        decile = max(1, len(gaps) // 10)
        first_max = max(gaps[:decile]) * 1000
        last_max = max(gaps[-decile:]) * 1000
        ratio = last_max / first_max if first_max > 0 else float("inf")
        print(f"delay_ms min={gaps_ms[0]:.4f} "
              f"median={statistics.median(gaps_ms):.4f} "
              f"max={gaps_ms[-1]:.4f}", file=out)
        print(f"first_decile_max_ms={first_max:.4f} "
              f"last_decile_max_ms={last_max:.4f} "
              f"ratio={ratio:.3f}", file=out)
    print(f"peak_retained={stats.peak_retained}", file=out)
    return 0


COMMANDS = {"enumerate": _cmd_enumerate, "count": _cmd_count,
            "verify": _cmd_verify, "bench": _cmd_bench}


def _read_input(path: str) -> str:
    source = "standard input" if path == "-" else path
    try:
        if path == "-":
            # Decode strictly here: the interpreter's own stdin decoder may
            # pass bad bytes through (surrogateescape under a C locale).  A
            # text stream without a byte buffer is read as it is.
            raw = getattr(sys.stdin, "buffer", None)
            if raw is None:
                return sys.stdin.read()
            return raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise GraphInputError(f"cannot read {source}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise GraphInputError(f"{source} is not UTF-8 text: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser.  A flag left off the command line is left out of
    the parsed namespace; its default is the ``RunConfig`` field's."""
    parser = argparse.ArgumentParser(
        prog="chordalenum",
        description="Enumerate all minimal chordal completions of a graph.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, command in COMMANDS.items():
        p = commands[name] = sub.add_parser(
            name, help=command.__doc__, argument_default=argparse.SUPPRESS)
        p.add_argument("path", nargs="?", default="-",
                       help="input file, or - for stdin (default)")
        p.add_argument("--input-format", choices=INPUT_FORMATS)
    for name in ("enumerate", "count", "bench"):
        commands[name].add_argument("--mode", choices=MODES)
        commands[name].add_argument("--limit", type=int,
                                    help="stop after this many solutions")
    for name in ("enumerate", "count"):
        commands[name].add_argument("--stats", action="store_true",
                                    help="print work counters to stderr")
    commands["enumerate"].add_argument("--format", choices=OUTPUT_FORMATS,
                                       dest="output_format")
    commands["verify"].add_argument(
        "--oracle-limit", type=int,
        help="skip the oracle above this many non-edges")
    return parser


def run(config: RunConfig, out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Execute one parsed CLI invocation; returns the exit code.

    ``out`` and ``err`` default to the process streams at call time, so
    redirecting ``sys.stdout`` before calling works as expected.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    try:
        if config.limit is not None and config.limit < 0:
            raise GraphInputError(
                f"--limit must be nonnegative, got {config.limit}")
        if config.oracle_limit < 0:
            raise GraphInputError("--oracle-limit must be nonnegative, "
                                  f"got {config.oracle_limit}")
        for flag, value, table in (("--mode", config.mode, MODES),
                                   ("--format", config.output_format,
                                    OUTPUT_FORMATS)):
            if value not in table:
                raise GraphInputError(f"{flag} must be one of "
                                      f"{', '.join(table)}, got {value!r}")
        if config.command not in COMMANDS:
            raise GraphInputError(f"unknown command {config.command!r}")
        return COMMANDS[config.command](config, out, err)
    except GraphInputError as exc:
        print(f"error: {exc}", file=err)
        return 2


def main(argv: Optional[list[str]] = None) -> int:
    args = vars(build_parser().parse_args(argv))
    try:
        config = RunConfig(text=_read_input(args.pop("path")), **args)
        code = run(config)
        sys.stdout.flush()
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader went away (e.g. ``| head``); nothing failed.  Point
        # stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # Ctrl-C: exit as a shell reports a command killed by SIGINT.
        return 130
    return code


if __name__ == "__main__":
    sys.exit(main())
