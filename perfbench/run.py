"""Benchmark of chordalenum: delay, throughput and memory on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cubic14_rs --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written under ``.perfbench-out/``).
``--workload all`` runs every workload in turn, each in a fresh interpreter.
End-to-end times are scaled to a reference host speed measured beside the
work (see ``workloads.Sampler``); the unscaled rate is printed beside them.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("cubic14_rs", "cubic14_vs", "verify_small")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package() -> None:
    """Put the checkout's own sources first on the path; refuse to run
    without them rather than measure some other installed copy."""
    if not (SRC / "chordalenum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no chordalenum sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import chordalenum
    if Path(chordalenum.__file__).resolve().parent != SRC / "chordalenum":
        raise SystemExit("perfbench: imported chordalenum from "
                         f"{chordalenum.__file__}, not from {SRC}")


def measure(w, seed: int, seconds: float, trace: bool, frozen: dict):
    """Run workload ``w``; returns the result dict, the printable notes
    and the failed checks.  ``frozen`` holds the recorded digests the
    outputs are checked against."""
    from checks import Checker, pass_digest
    from metrics import end_to_end
    from workloads import Sampler, run_for

    name = w.name
    checker = Checker()
    if not trace:
        sampler = Sampler(w, seed)
        passes = run_for(w, seed, seconds, sampler=sampler)
        metrics, notes = end_to_end(passes, sampler)
    else:
        from tracing import Tracer
        passes = run_for(w, seed, seconds / 2)
        tracer = Tracer()
        with tracer.rebound():
            traced = run_for(w, seed, 0, hooks=tracer, count=len(passes))
        for plain, other in zip(passes, traced):
            checker.check(pass_digest(plain) == pass_digest(other),
                          f"{name} seed {seed} input {plain.index}: traced "
                          "emission sequence differs from the untraced one")
        region = "cli.run" if w.mode == "verify" else "engine"
        metrics, notes = tracer.per_layer(traced, region)
        metrics["trace_overhead"] = (
            sum(p.elapsed for p in traced) / sum(p.elapsed for p in passes),
            "ratio")
        trace_path = OUT_DIR / f"trace-{name}-seed{seed}.tsv.gz"
        tracer.write(trace_path)
        notes["trace_overhead"] = f"spans in {trace_path.name}"
    for p in passes:
        checker.check_pass(w, seed, p, frozen)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    return result, notes, checker.failures


def print_report(name: str, result: dict, notes: dict) -> None:
    rows = [(key, m["value"], m["unit"], notes.get(key, ""))
            for key, m in result["metrics"].items()]
    rows.append(("failed_share", result["failed"] / result["attempted"],
                 "ratio", f"{result['failed']}/{result['attempted']} output "
                 "checks failed"))
    for key, value, unit, note in rows:
        print(f"{name:<13} {key:<42} {value:>14.6g} {unit:<6} {note}")


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, so no heap is shared."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise SystemExit(f"perfbench: {name} printed no result "
                             f"(exit {proc.returncode})")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
        code = code or proc.returncode
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    from checks import load_frozen
    from workloads import WORKLOADS
    result, notes, failures = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        load_frozen())
    print_report(args.workload, result, notes)
    for failure in failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
