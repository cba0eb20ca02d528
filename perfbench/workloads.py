"""Workload inputs and the measured loops of the chordalenum benchmark.

Every input is a plain edge list derived from the run's ``--seed``; the
program under test sees nothing else.  The enumeration workloads relabel a
fixed base graph, so every seed has the same solution count and the same
structure while the ground order, and with it the traversal, changes.  That
keeps the spread across seeds small enough to detect a regression.

Between emissions the measured loops pause for a ``Sampler``, which times
a fixed reference loop (to scale the run's times to a reference host speed)
and the set-ups, and leaves that time out of theirs.
"""

from __future__ import annotations

import io
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from chordalenum import (Graph, TraversalStats, chordal_completion_system,
                         reverse_search, visited_set_search)
from chordalenum.cli import RunConfig, run as cli_run

clock = time.perf_counter

# The 14-vertex cubic acceptance instance (17,697 minimal completions,
# 70 non-edges), frozen in the acceptance suite and copied here unchanged.
CUBIC14_EDGES = (
    (0, 1), (0, 3), (0, 5), (1, 2), (1, 3), (2, 8), (2, 11), (3, 12),
    (4, 6), (4, 11), (4, 13), (5, 8), (5, 9), (6, 9), (6, 13), (7, 9),
    (7, 10), (7, 12), (8, 10), (10, 13), (11, 12),
)
CUBIC14_SOLUTIONS = 17697

VERIFY_N = 7
VERIFY_NON_EDGES = 11

DEFAULT_SEED = 0

# The host's speed drifts between states about 1.3-1.5x apart, for a second
# to minutes at a time, with CPU time equal to wall time (no steal).  So every
# CAL_EVERY seconds of a run, between emissions (or between graphs), the
# measured loops pause for a calibration sample: CAL_REPS runs of a fixed
# pure-Python reference loop.  Each stretch of the run between two samples is
# scaled by REF_SAMPLE_S over the median of the 2 * CAL_WINDOW samples around
# it, so reported times are those of a host on which one sample takes
# REF_SAMPLE_S (about this host's usual speed).
CAL_EVERY = 0.1
CAL_REPS = 2
CAL_WINDOW = 3
REF_SAMPLE_S = 0.0036

# Set-up is timed on the run's first SETUP_INPUTS inputs, a round (each of
# them once) every SETUP_EVERY seconds of the run.  One relabelling's set-up
# time follows its root's fill size, so a run times many of them, not only
# those it has time to enumerate; and the rounds are spread over the whole
# run rather than bunched into the milliseconds one round takes.
SETUP_INPUTS = 40
SETUP_EVERY = 0.5


def reference_loop() -> int:
    """The calibration work: integer arithmetic, shifts and dict stores, as
    in the package's bitmask kernels, but fixed, so that its time follows
    the host alone."""
    s = 0
    d = {}
    for i in range(4000):
        m = (i * 2654435761) & 0xFFFFFFFFFFFF
        s ^= m >> 3
        d[i & 255] = s & 1023
    return s


@dataclass(frozen=True)
class Input:
    """One graph handed to the program.  ``perm[v]`` is the label the base
    graph's vertex ``v`` carries here (None for unrelabelled inputs)."""

    n: int
    edges: tuple
    perm: Optional[tuple] = None

    def dimacs(self) -> str:
        lines = [f"p edge {self.n} {len(self.edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in self.edges]
        return "\n".join(lines) + "\n"


def relabel(name: str, n: int, edges, seed: int, index: int) -> Input:
    perm = list(range(n))
    random.Random(f"{name}:{seed}:{index}").shuffle(perm)
    return Input(n, tuple(sorted(tuple(sorted((perm[u], perm[v])))
                                 for u, v in edges)), tuple(perm))


def small_graph(seed: int, index: int) -> Input:
    rng = random.Random(f"verify_small:{seed}:{index}")
    pairs = [(u, v) for u in range(VERIFY_N) for v in range(u + 1, VERIFY_N)]
    missing = set(rng.sample(pairs, VERIFY_NON_EDGES))
    return Input(VERIFY_N, tuple(e for e in pairs if e not in missing))


@dataclass(frozen=True)
class Workload:
    """How one workload makes its inputs and how its delays are read.

    ``limit`` is the fixed output prefix per input (None: the whole
    output).
    """

    name: str
    mode: str  # "reverse_search", "visited_set" or "verify"
    make_input: Callable[[int, int], Input]
    limit: Optional[int] = None
    expected_count: Optional[int] = None
    base_edges: tuple = ()


WORKLOADS = {w.name: w for w in (
    Workload("cubic14_rs", "reverse_search",
             lambda s, k: relabel("cubic14", 14, CUBIC14_EDGES, s, k),
             limit=250, base_edges=CUBIC14_EDGES),
    Workload("cubic14_vs", "visited_set",
             lambda s, k: relabel("cubic14", 14, CUBIC14_EDGES, s, k),
             expected_count=CUBIC14_SOLUTIONS,
             base_edges=CUBIC14_EDGES),
    Workload("verify_small", "verify", small_graph),
)}


@dataclass
class Pass:
    """What one input produced: the clock at the start of the enumeration
    (or of the verify call), a timestamp per emission, the outputs, and the
    process's peak resident memory when it ended."""

    index: int
    input: Input
    start: float
    stamps: list
    masks: list
    stats: Optional[TraversalStats] = None
    exit_code: int = 0
    text: str = ""
    solutions: int = 0
    rss_mib: float = 0.0
    # (first interval, sampler count): from that interval of ``intervals``
    # on, the time is scaled by the sampler's factor for that count.
    cuts: list = field(default_factory=lambda: [(0, 0)])

    @property
    def elapsed(self) -> float:
        return self.stamps[-1] - self.start if self.stamps else 0.0

    def intervals(self) -> list[float]:
        """Start to first emission, then between consecutive emissions."""
        return [b - a for a, b in zip([self.start] + self.stamps, self.stamps)]


def build_system(inp: Input, hooks=None):
    """Edge list to a ready ``SetSystem`` on a fresh ``Graph``."""
    if hooks is None:
        return chordal_completion_system(Graph(inp.n, inp.edges))
    g = hooks.call("graph.build", Graph, inp.n, inp.edges)
    return hooks.wrap_system(
        hooks.call("setup", chordal_completion_system, g))


class Sampler:
    """Takes the calibration samples and times set-ups of a run's first
    SETUP_INPUTS inputs, one round at a time.  The measured loops call
    ``tick`` between emissions; work runs only when it is due, and they
    leave its time out of their own."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.inputs = [w.make_input(seed, index)
                       for index in range(SETUP_INPUTS)]
        # Per input: (set-up seconds, samples taken when it was timed).
        self.setups: list[list[tuple[float, int]]] = [[] for _ in self.inputs]
        self.cal: list[float] = []
        self.due = self.setup_due = clock()

    @property
    def count(self) -> int:
        """Samples taken so far; what a stretch of the run starting now
        records to be scaled by ``factor``."""
        return len(self.cal)

    def tick(self) -> float:
        """Take a sample, and run a set-up round, if due; returns the
        seconds that took."""
        began = clock()
        if began < self.due:
            return 0.0
        for _ in range(CAL_REPS):
            reference_loop()
        self.cal.append(clock() - began)
        if began >= self.setup_due:
            for inp, times in zip(self.inputs, self.setups):
                t0 = clock()
                build_system(inp)
                times.append((clock() - t0, self.count))
            self.setup_due = clock() + SETUP_EVERY
        ended = clock()
        self.due = ended + CAL_EVERY
        return ended - began

    def factor(self, count: int) -> float:
        """Scale for a stretch that began when ``count`` samples were taken:
        it lies between samples ``count - 1`` and ``count``."""
        around = self.cal[max(0, count - CAL_WINDOW):count + CAL_WINDOW]
        return REF_SAMPLE_S / statistics.median(around)

    def setup_medians(self) -> list[float]:
        """Each input's median scaled set-up time."""
        return [statistics.median(t * self.factor(c) for t, c in times)
                for times in self.setups]


def run_pass(w: Workload, seed: int, index: int, hooks=None,
             sampler: Optional[Sampler] = None) -> Pass:
    """Set up and measure one input of ``w``.  ``hooks`` is a tracer; with
    None nothing but the timestamps is recorded.  ``sampler`` times set-ups
    between emissions."""
    inp = w.make_input(seed, index)
    first = sampler.count if sampler is not None else 0
    if w.mode == "verify":
        p = _verify_pass(index, inp, hooks)
        p.cuts = [(0, first)]
    else:
        p = _enumeration_pass(w, index, inp, build_system(inp, hooks), hooks,
                              sampler)
    p.rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return p


def _enumeration_pass(w: Workload, index: int, inp: Input, system, hooks,
                      sampler: Optional[Sampler]) -> Pass:
    stats = TraversalStats()
    search = reverse_search if w.mode == "reverse_search" else visited_set_search
    if hooks is not None:
        search = hooks.traced_search(search)
    it = search(system, stats)
    stamps: list[float] = []
    masks: list[int] = []
    limit = w.limit
    cuts = [(0, sampler.count if sampler is not None else 0)]
    paused = 0.0
    start = clock()
    for f in it:
        stamps.append(clock() - paused)
        masks.append(f.mask)
        if limit is not None and len(masks) >= limit:
            break
        if sampler is not None:
            took = sampler.tick()
            if took:
                paused += took
                cuts.append((len(stamps), sampler.count))
    it.close()
    return Pass(index, inp, start, stamps, masks, stats,
                solutions=len(masks), cuts=cuts)


def _verify_pass(index: int, inp: Input, hooks) -> Pass:
    text = inp.dimacs()
    out = io.StringIO()
    config = RunConfig(command="verify", text=text)
    start = clock()
    if hooks is None:
        code = cli_run(config, out=out, err=out)
    else:
        code = hooks.call("cli.run", cli_run, config, out, out)
    stamps = [clock()]
    report = out.getvalue()
    solutions = 0
    for line in report.splitlines():
        if line.startswith("reverse_search solutions:"):
            solutions = int(line.split(":")[1])
    return Pass(index, inp, start, stamps, [], exit_code=code,
                text=report, solutions=solutions)


def run_for(w: Workload, seed: int, seconds: float, hooks=None,
            count: Optional[int] = None,
            sampler: Optional[Sampler] = None) -> list[Pass]:
    """Measure inputs 0, 1, 2, ... while another input of the mean length
    so far still fits in ``seconds`` (at least one input), or exactly
    ``count`` inputs when given.  ``sampler`` times set-ups before each
    input and between emissions."""
    passes: list[Pass] = []
    begin = clock()
    while True:
        used = clock() - begin
        if count is not None:
            if len(passes) >= count:
                break
        elif passes and used * (len(passes) + 1) / len(passes) > seconds:
            break
        if sampler is not None:
            sampler.tick()
        passes.append(run_pass(w, seed, len(passes), hooks, sampler))
    return passes
