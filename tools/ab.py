"""Compare the CPU time of two versions of chordalenum in one interpreter.

Usage::

    python3 tools/ab.py A B
        --workload cubic14_rs|cubic14_vs|verify_small|scale_rs
        [--inputs N] [--seed N] [--vertices N]

A and B are git revisions of this repository or paths to checkouts.  Each
one's ``src/chordalenum`` is copied to a temporary directory (with
``git archive`` for a revision) and imported under its own package name,
so both run in this one interpreter on the same heap and host state.  The
inputs are the workload's inputs of ``--seed`` (default 0), made by
``perfbench/workloads.py`` (imported, never edited); a claim read on the
seed used while writing a change can be checked on another.  Each input runs
twice per version, as A B B A on even inputs and B A A B on odd ones, so
that a drift of the host's speed over the four runs cancels; a garbage
collection precedes each run.

For every input it compares the digests of what the two versions emitted
and takes the ratio of B's CPU time to A's, each summed over its two runs.
It prints the median, the quartiles and the total (B's summed time over
A's) of those ratios.  Under that line it prints the same figures for each
side's second run over its first, an A/A and a B/B comparison that shows
the noise of this very run beside the result.  For the reverse-search and
visited-set workloads it then prints each side's ``TraversalStats.as_dict()``
and, where that side's ``TraversalStats`` has them, its ``record_verdicts``
and ``held_backtracks``, from its first run of every input, summed over the
inputs (``peak_retained`` is their maximum), and whether the two sides'
counters are identical: an exact work-count effect shows there without the
timing noise.  It exits 1 if any digest differs.  Standard library and git only.

``cubic14_rs`` enumerates the benchmark's prefix of each input
(``Workload.limit``, 250 solutions); ``cubic14_vs`` is cut to its first
``VS_PREFIX`` solutions of 17,697.  ``scale_rs`` is not a benchmark
workload: its inputs are random cubic graphs on ``--vertices`` vertices
(default 40, an even number), one per seed and input index, of which
reverse search enumerates the first ``SCALE_PREFIX`` solutions, so that
growth with n is timed the same way.  ``--inputs`` (at least 1) sets how
many inputs run.
An A/A run (the same revision twice) shows the noise too: a small number
of inputs can read a few percent away from 1.  The ``filter`` argument of
``tarfile`` extraction is used where this Python has it (3.10.12, 3.11.4
and later).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import io
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from itertools import islice
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "chordalenum"
INPUTS = {"cubic14_rs": 40, "cubic14_vs": 12, "verify_small": 2000,
          "scale_rs": 6}
VS_PREFIX = 2000  # cubic14_vs solutions enumerated per input
SCALE_PREFIX = 25  # scale_rs solutions enumerated per input
# Counters that as_dict() leaves out: check_walks + record_verdicts is the
# number of path tests, backtrack_walks + held_backtracks of backtracks.
EXTRA_COUNTERS = ("record_verdicts", "held_backtracks")


class Cubic(NamedTuple):
    """A ``scale_rs`` input: a graph on ``n`` vertices."""
    n: int
    edges: tuple


def random_cubic(n: int, rng: random.Random) -> Cubic:
    """A random simple cubic graph on ``n`` vertices (``n`` even): a
    configuration-model pairing of three stubs per vertex, drawn again until
    it has no loop and no repeated edge."""
    stubs = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v))
                 for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(edges) == len(stubs) // 2:
            return Cubic(n, tuple(sorted(edges)))


def extract(version: str, into: Path) -> Path:
    """Copy ``src/chordalenum`` of a checkout path or a git revision into
    ``into``; returns the package directory."""
    target = into / "chordalenum"
    source = Path(version) / PACKAGE
    if source.is_dir():
        shutil.copytree(source, target,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return target
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", version, str(PACKAGE)],
        capture_output=True, check=False)
    if archive.returncode:
        raise SystemExit(f"ab: {version!r} is neither a checkout nor a "
                         f"revision: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into / "tree", filter="data")
        else:
            tar.extractall(into / "tree")
    (into / "tree" / PACKAGE).rename(target)
    return target


def load(directory: Path, name: str):
    """Import the package in ``directory`` as ``name``, with its modules."""
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py",
        submodule_search_locations=[str(directory)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(name + ".cli")
    return package


def workload_inputs(package, workload: str, seed: int, count: int,
                    vertices: int) -> tuple[list, int]:
    """The first ``count`` inputs of ``workload`` at ``seed`` and its solution
    prefix per input.  A benchmark workload's come from
    ``perfbench/workloads.py``, which imports ``chordalenum``: ``package``
    stands in for it while the module loads."""
    if workload == "scale_rs":
        return [random_cubic(vertices, random.Random(f"{seed}/{index}"))
                for index in range(count)], SCALE_PREFIX
    saved = {k: sys.modules.get(k) for k in ("chordalenum", "chordalenum.cli")}
    sys.modules["chordalenum"] = package
    sys.modules["chordalenum.cli"] = package.cli
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
        for key, module in saved.items():
            if module is None:
                del sys.modules[key]
            else:
                sys.modules[key] = module
    w = workloads.WORKLOADS[workload]
    limit = VS_PREFIX if workload == "cubic14_vs" else w.limit
    return [w.make_input(seed, index) for index in range(count)], limit


def run_one(package, workload: str, inp, limit) -> tuple[float, str, dict]:
    """CPU seconds of one input under ``package``, set-up included, the
    digest of what it emitted and the search's counters (empty for
    ``verify_small``): ``TraversalStats.as_dict()`` and the ``EXTRA_COUNTERS``
    this version's ``TraversalStats`` has."""
    digest = hashlib.sha256()
    counters = {}
    gc.collect()
    start = time.process_time()
    if workload == "verify_small":
        out = io.StringIO()
        config = package.cli.RunConfig(command="verify", text=inp.dimacs())
        code = package.cli.run(config, out=out, err=out)
        items = [code, out.getvalue()]
    else:
        system = package.chordal_completion_system(
            package.Graph(inp.n, inp.edges))
        search = (package.visited_set_search if workload == "cubic14_vs"
                  else package.reverse_search)
        stats = package.TraversalStats()
        items = [f.mask for f in islice(search(system, stats), limit)]
        counters = stats.as_dict()
        counters.update((name, getattr(stats, name))
                        for name in EXTRA_COUNTERS if hasattr(stats, name))
    elapsed = time.process_time() - start
    for item in items:
        digest.update(f"{item},".encode())
    return elapsed, digest.hexdigest()[:16], counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("a", help="git revision or checkout path")
    parser.add_argument("b", help="git revision or checkout path")
    parser.add_argument("--workload", required=True, choices=sorted(INPUTS))
    parser.add_argument("--inputs", type=positive, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vertices", type=int, default=40,
                        help="scale_rs graph size (even)")
    args = parser.parse_args(argv)
    if args.vertices % 2 or args.vertices < 4:
        parser.error("--vertices must be an even number, at least 4")
    count = args.inputs if args.inputs is not None else INPUTS[args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        packages = [load(extract(version, Path(tmp) / side),
                         f"chordalenum_ab_{side}")
                    for version, side in ((args.a, "a"), (args.b, "b"))]
        inputs, limit = workload_inputs(packages[0], args.workload,
                                        args.seed, count, args.vertices)
        runs, differ = [], 0  # per input and side: its two times in order
        counts = [{}, {}]  # per side: counters summed over first runs
        for index, inp in enumerate(inputs):
            times, digests = [[], []], [set(), set()]
            first = index % 2
            for side in (first, 1 - first, 1 - first, first):
                elapsed, digest, counters = run_one(
                    packages[side], args.workload, inp, limit)
                if not times[side]:
                    add_counters(counts[side], counters)
                times[side].append(elapsed)
                digests[side].add(digest)
            (da, db) = digests
            if da != db:
                differ += 1
                print(f"input {index}: digests {sorted(da)} (A) != "
                      f"{sorted(db)} (B)")
            runs.append(times)
    totals = [sum(sum(t[side]) for t in runs) for side in (0, 1)]
    size = f" n={args.vertices}" if args.workload == "scale_rs" else ""
    print(f"{args.workload}{size} seed {args.seed}: {len(inputs)} inputs, "
          f"limit {limit}; A {args.a}, B {args.b}")
    print(f"digests: {'identical' if not differ else f'{differ} differ'}")
    print(f"CPU s: A {totals[0]:.2f}, B {totals[1]:.2f}")
    print(summary("B/A CPU-time ratio",
                  [(sum(t[0]), sum(t[1])) for t in runs]))
    for side, name in ((0, "A/A"), (1, "B/B")):
        print(summary(f"{name} (second run over first)",
                      [tuple(t[side]) for t in runs]))
    if counts[0]:  # verify_small counts nothing
        for side, name in ((0, "A"), (1, "B")):
            print(f"counters {name}: " + ", ".join(
                f"{key} {value:,}" for key, value in counts[side].items()))
        print("counters: "
              + ("identical" if counts[0] == counts[1] else "differ"))
    return 1 if differ else 0


def add_counters(total: dict, counters: dict) -> None:
    """Add ``counters`` into ``total``, keeping the larger
    ``peak_retained``."""
    for key, value in counters.items():
        total[key] = (max(total.get(key, 0), value) if key == "peak_retained"
                      else total.get(key, 0) + value)


def positive(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not at least 1")
    return value


def summary(label: str, pairs: list) -> str:
    """The median, quartiles and total of the ratios ``new / old`` over
    ``pairs`` of CPU times ``(old, new)``, as one line."""
    ratios = [new / old for old, new in pairs]
    q1, median, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 \
        else ratios * 3
    total = sum(new for _, new in pairs) / sum(old for old, _ in pairs)
    return (f"{label}: median {median:.4f}, quartiles {q1:.4f} to "
            f"{q3:.4f}, total {total:.4f}")


if __name__ == "__main__":
    sys.exit(main())
