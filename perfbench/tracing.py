"""Per-layer tracing from outside the package.

The traced run wraps the ``SetSystem`` callables with ``dataclasses.replace``
and rebinds module-level functions at the package's module boundaries for
the duration of the run only.  Each call becomes a span (layer, start, end,
parent) held in flat arrays and written out when the run ends; a layer's
self time is its spans' durations minus the part their child spans cover.

Layers, named after the package's modules:

- ``engine``: one span per ``next()`` on a traversal, i.e. the child scan,
  first-occurrence dedup, parent-check and backtrack walks and owner scan;
- ``completions.neighbor_at`` (child scan, first-occurrence dedup and owner
  scan) and ``completions.next_step`` (parent-check and backtrack walks),
  both the ``_successor_mask`` kernel; ``completions.ordering``: ``RemovalTrace``
  construction; ``completions.proximity``: ``proximity``, including the lazy
  trace extension; ``completions.excludes``: ``position_excludes``;
  ``completions.root``: ``minimal_completion_root`` during set-up;
- ``graph.build`` (``Graph`` construction), ``graph.non_edges`` and
  ``graph.chordality`` (``is_chordal_completion`` as the oracle calls it);
- ``oracle.brute_force`` and ``oracle.verify``;
- ``cli.parse`` and ``cli.run``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import statistics
import time
from array import array
from pathlib import Path

from chordalenum import TraversalStats, cli, engine, oracle

LAYERS = ("setup", "engine", "completions.neighbor_at",
          "completions.next_step", "completions.ordering",
          "completions.proximity", "completions.excludes", "completions.root",
          "graph.build", "graph.non_edges", "graph.chordality",
          "oracle.brute_force", "oracle.verify", "cli.parse", "cli.run")
LAYER_ID = {name: i for i, name in enumerate(LAYERS)}


def _nth_bit(mask: int, j: int) -> int:
    for _ in range(j):
        mask &= mask - 1
    return (mask & -mask).bit_length() - 1


class Tracer:
    """Span recorder plus the call counts the per-layer ratios need."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        # Per wrapped system, so that equal masks over different graphs stay
        # distinct: the (mask, key) of every successor call and the mask of
        # every trace build, made distinct only when the run is analysed.
        self.successor_keys: list[tuple[list, list]] = []
        self.target_masks: list[list] = []
        self.excluded = 0
        self.stats: list[TraversalStats] = []

    def _open(self, layer: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, layer: str, fn, *args):
        return self.wrapped(layer, fn)(*args)

    def wrapped(self, layer: str, fn):
        lid = LAYER_ID[layer]
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(lid)
            result = fn(*args, **kwargs)
            close(idx)
            return result
        return traced

    def iterate(self, layer: str, iterator):
        """Yield from ``iterator`` with one span per ``next()``."""
        lid = LAYER_ID[layer]
        while True:
            idx = self._open(lid)
            try:
                item = next(iterator)
            except StopIteration:
                self._close(idx)
                return
            self._close(idx)
            yield item

    def wrap_system(self, system):
        open_, close = self._open, self._close
        scan_id, step_id = LAYER_ID["completions.neighbor_at"], LAYER_ID[
            "completions.next_step"]
        order_id = LAYER_ID["completions.ordering"]
        prox_id, excl_id = LAYER_ID["completions.proximity"], LAYER_ID[
            "completions.excludes"]
        key_masks: list[int] = []
        keys: list[int] = []
        targets: list[int] = []
        self.successor_keys.append((key_masks, keys))
        self.target_masks.append(targets)
        neighbor_at, next_step = system.neighbor_at, system.next_step
        ordering, proximity = system.ordering, system.proximity
        excludes = system.position_excludes

        def t_neighbor_at(f, j):
            idx = open_(scan_id)
            result = neighbor_at(f, j)
            close(idx)
            key_masks.append(f.mask)
            keys.append(~j)
            return result

        def t_next_step(f, target, order, i):
            idx = open_(step_id)
            result = next_step(f, target, order, i)
            close(idx)
            key_masks.append(f.mask)
            keys.append(order.element(i))
            return result

        def t_ordering(f):
            idx = open_(order_id)
            result = ordering(f)
            close(idx)
            targets.append(f.mask)
            return result

        def t_proximity(f, order, start=0):
            idx = open_(prox_id)
            result = proximity(f, order, start)
            close(idx)
            return result

        def t_excludes(f, j, cand):
            idx = open_(excl_id)
            result = excludes(f, j, cand)
            close(idx)
            if result:
                self.excluded += 1
            return result

        return dataclasses.replace(
            system, neighbor_at=t_neighbor_at, next_step=t_next_step,
            ordering=t_ordering, proximity=t_proximity,
            position_excludes=t_excludes)

    def traced_search(self, search):
        """``search`` with its stats recorded and one engine span per
        emission."""
        def traced(system, stats=None):
            if stats is None:
                stats = TraversalStats()
            self.stats.append(stats)
            return self.iterate("engine", search(system, stats))
        return traced

    @contextlib.contextmanager
    def rebound(self):
        """Rebind the package's module-level entry points to traced
        versions until the block exits."""
        targets = [
            (engine, "minimal_completion_root", "completions.root"),
            (engine, "non_edges", "graph.non_edges"),
            (oracle, "is_chordal_completion", "graph.chordality"),
            (cli, "parse_graph_input", "cli.parse"),
            (cli, "brute_force_minimal_completions", "oracle.brute_force"),
            (cli, "verify_solution_set", "oracle.verify"),
        ]
        saved = [(mod, name, getattr(mod, name)) for mod, name, _ in targets]
        saved += [(cli, name, getattr(cli, name)) for name in
                  ("chordal_completion_system", "reverse_search",
                   "visited_set_search")]
        try:
            for mod, name, layer in targets:
                setattr(mod, name, self.wrapped(layer, getattr(mod, name)))
            build = cli.chordal_completion_system
            cli.chordal_completion_system = lambda g: self.wrap_system(
                self.call("setup", build, g))
            cli.reverse_search = self.traced_search(cli.reverse_search)
            cli.visited_set_search = self.traced_search(
                cli.visited_set_search)
            yield self
        finally:
            for mod, name, value in saved:
                setattr(mod, name, value)

    # -- analysis -------------------------------------------------------

    def layer_times(self) -> tuple[list, list, list, list]:
        """Per layer: span count, total ns, self ns, and every duration."""
        n = len(self.layer)
        child = [0] * n
        count = [0] * len(LAYERS)
        total = [0] * len(LAYERS)
        own = [0] * len(LAYERS)
        durations: list[list] = [[] for _ in LAYERS]
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        for i in range(n - 1, -1, -1):
            d = end[i] - start[i]
            lid = layer[i]
            count[lid] += 1
            total[lid] += d
            own[lid] += d - child[i]
            durations[lid].append(d)
            if parent[i] >= 0:
                child[parent[i]] += d
        return count, total, own, durations

    def write(self, path: Path) -> None:
        """Write the spans as gzipped tab-separated lines, times in ns from
        the first span's start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("layer\tstart_ns\tend_ns\tparent\n")
            for i in range(len(self.layer)):
                out.write(f"{LAYERS[self.layer[i]]}\t{self.start[i] - t0}\t"
                          f"{self.end[i] - t0}\t{self.parent[i]}\n")

    def per_layer(self, passes, region: str) -> tuple[dict, dict]:
        """Per-layer metrics of a traced run, plus notes printed beside
        them; ``region`` is the layer whose spans make up the measured time
        (the enumeration or the verify calls)."""
        count, total, own, durations = self.layer_times()
        by_name = {name: (count[i], total[i]) for i, name in enumerate(LAYERS)}
        scan, step = (by_name["completions.neighbor_at"],
                      by_name["completions.next_step"])
        by_name["successor"] = (scan[0] + step[0], scan[1] + step[1])
        region_ns = by_name[region][1]
        solutions = sum(s.solutions for s in self.stats)
        distinct = sum(
            len({(mask, _nth_bit(mask, ~key) if key < 0 else key)
                 for mask, key in zip(masks, keys)})
            for masks, keys in self.successor_keys)
        distinct_targets = sum(len(set(t)) for t in self.target_masks)

        def ratio(a, b):
            return a / b if b else 0.0

        def calls(layer):
            return by_name[layer][0]

        def mean_us(layer):
            return ratio(by_name[layer][1], by_name[layer][0]) / 1e3

        def share(layer):
            return ratio(by_name[layer][1], region_ns)

        def median_s(layer):
            d = durations[LAYER_ID[layer]]
            return statistics.median(d) / 1e9 if d else 0.0

        def per_solution(n):
            return ratio(n, solutions)

        s = self.stats
        checks = sum(x.check_walks for x in s)
        metrics = {
            "engine.neighbor_evals_per_solution":
                (per_solution(sum(x.neighbor_evals for x in s)), "count"),
            "engine.check_walks_per_solution": (per_solution(checks), "count"),
            "engine.walk_steps_per_solution":
                (per_solution(sum(x.walk_steps for x in s)), "count"),
            "engine.backtrack_walks_per_solution":
                (per_solution(sum(x.backtrack_walks for x in s)), "count"),
            "engine.check_walk_yield": (ratio(solutions, checks), "ratio"),
            "engine.self_s_per_solution":
                (per_solution(own[LAYER_ID["engine"]] / 1e9), "s"),
            "engine.peak_retained":
                (max((x.peak_retained for x in s), default=0), "count"),
            "completions.successor_calls_per_solution":
                (per_solution(calls("successor")), "count"),
            "completions.successor_us": (mean_us("successor"), "us"),
            "completions.successor_share": (share("successor"), "ratio"),
            "completions.successor_repeat_ratio":
                (ratio(calls("successor"), distinct), "ratio"),
            "completions.trace_builds_per_solution":
                (per_solution(calls("completions.ordering")), "count"),
            "completions.trace_repeat_ratio":
                (ratio(calls("completions.ordering"), distinct_targets),
                 "ratio"),
            "completions.proximity_us":
                (mean_us("completions.proximity"), "us"),
            "completions.proximity_share":
                (share("completions.proximity"), "ratio"),
            "completions.excludes_calls_per_solution":
                (per_solution(calls("completions.excludes")), "count"),
            "completions.excludes_prune_ratio":
                (ratio(self.excluded, calls("completions.excludes")), "ratio"),
            "completions.root_s": (median_s("completions.root"), "s"),
            "graph.non_edges_s": (median_s("graph.non_edges"), "s"),
            "graph.chordality_tests_per_graph":
                (ratio(calls("graph.chordality"), len(passes)), "count"),
            "graph.chordality_us": (mean_us("graph.chordality"), "us"),
            "oracle.brute_force_share":
                (share("oracle.brute_force"), "ratio"),
            "oracle.verify_share": (share("oracle.verify"), "ratio"),
            "cli.parse_share": (share("cli.parse"), "ratio"),
        }
        notes = {
            "completions.successor_share":
                f"neighbor_at {share('completions.neighbor_at'):.3f}, "
                f"next_step {share('completions.next_step'):.3f}",
            "engine.self_s_per_solution":
                f"engine self share {ratio(own[LAYER_ID['engine']], region_ns):.3f}",
            "completions.trace_builds_per_solution":
                f"ordering share {share('completions.ordering'):.3f}",
        }
        return metrics, notes
