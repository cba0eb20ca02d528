"""Self-tests of the benchmark.  Run from the root of a checkout with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import (OUT_DIR, ROOT, WORKLOAD_NAMES, import_package,  # noqa: E402
                 measure)

import_package()

from chordalenum import (Graph, chordal_completion_system,  # noqa: E402
                         reverse_search)
from checks import Checker, digest, load_frozen, pass_digest  # noqa: E402
from metrics import scaled_intervals  # noqa: E402
from workloads import (REF_SAMPLE_S, WORKLOADS, Input, Pass,  # noqa: E402
                       Sampler, relabel, run_for, run_pass)

C6 = tuple((v, (v + 1) % 6) for v in range(6))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny(name: str):
    """The workload at smoke size: short prefixes, and a six-cycle (14 solutions) in place of the full 14-vertex output."""
    w = WORKLOADS[name]
    changes = {"name": f"tiny_{name}"}
    if w.limit is not None:
        changes["limit"] = 3
    if w.expected_count is not None:
        changes.update(make_input=lambda s, k: relabel("c6", 6, C6, s, k),
                       expected_count=14, base_edges=C6)
    return dataclasses.replace(w, **changes)


def c6_frozen() -> dict:
    masks = sorted(f.mask for f in reverse_search(
        chordal_completion_system(Graph(6, C6))))
    return {"seed": 0, "sequence": {}, "full_set": {"tiny_cubic14_vs":
                                                    digest(masks)}}


def benchmark_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_declared_metric(name, trace):
    result, _, failures = measure(tiny(name), 3, 0, trace, c6_frozen())
    assert failures == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = benchmark_metrics()["per_layer" if trace else "end_to_end"]
    got = {key: m["unit"] for key, m in result["metrics"].items()}
    assert got == declared
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_metric_names_and_units_are_well_formed():
    for group in benchmark_metrics().values():
        for name, unit in group.items():
            assert NAME.fullmatch(name) and len(name) <= 64, name
            assert UNIT.fullmatch(unit), (name, unit)


def test_frozen_sequence_matches_and_tampering_trips_the_check():
    w = WORKLOADS["cubic14_rs"]
    frozen = load_frozen()
    p = run_pass(w, frozen["seed"], 0)
    clean = Checker()
    clean.check_pass(w, frozen["seed"], p, frozen)
    assert clean.failed == 0 and clean.attempted == len(p.masks) + 3

    swapped = dataclasses.replace(p, masks=[p.masks[1], p.masks[0]]
                                  + p.masks[2:])
    duplicated = dataclasses.replace(p, masks=p.masks[:-1] + [p.masks[0]])
    last = p.masks[-1]
    unfilled = next(i for i in range(70) if not last >> i & 1)
    extra_fill = dataclasses.replace(p, masks=p.masks[:-1]
                                     + [last | 1 << unfilled])
    for tampered, reason in ((swapped, "emission sequence"),
                             (duplicated, "duplicate"),
                             (extra_fill, "not a minimal")):
        checker = Checker()
        checker.check_pass(w, frozen["seed"], tampered, frozen)
        assert any(reason in f for f in checker.failures), checker.failures


def test_wrong_solution_set_trips_the_full_output_check():
    w = tiny("cubic14_vs")
    p = run_for(w, 5, 0)[0]
    short = dataclasses.replace(p, masks=p.masks[:-1])
    checker = Checker()
    checker.check_pass(w, 5, short, c6_frozen())
    assert checker.failed == 2


def test_failed_verify_counts_as_failed():
    w = tiny("verify_small")
    p = run_for(w, 1, 0)[0]
    checker = Checker()
    checker.check_pass(w, 1, dataclasses.replace(p, exit_code=1), {})
    assert checker.failed == 1 and checker.attempted == 1


def test_traced_and_untraced_digests_agree_for_the_same_input():
    w = tiny("cubic14_rs")
    plain = run_pass(w, 9, 0)
    from tracing import Tracer
    tracer = Tracer()
    with tracer.rebound():
        traced = run_pass(w, 9, 0, hooks=tracer)
    assert pass_digest(plain) == pass_digest(traced)
    assert len(tracer.layer) > 0


def test_each_stretch_is_scaled_by_the_samples_around_it():
    sampler = Sampler(tiny("cubic14_rs"), 0)
    sampler.cal = [REF_SAMPLE_S / 2] * 4 + [REF_SAMPLE_S * 2] * 10
    p = Pass(0, None, 0.0, [1.0, 2.0, 3.0, 4.0], [],
             cuts=[(0, 1), (2, 12)])
    assert scaled_intervals(p, sampler.factor) == [2.0, 2.0, 0.5, 0.5]
    assert p.intervals() == [1.0, 1.0, 1.0, 1.0]


def test_command_line_offers_every_workload():
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


def test_inputs_depend_only_on_the_seed():
    for w in WORKLOADS.values():
        assert w.make_input(4, 1) == w.make_input(4, 1)
        assert w.make_input(4, 1) != w.make_input(5, 1)
        assert isinstance(w.make_input(4, 1), Input)


def test_refuses_to_run_without_the_package_sources():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cubic14_rs",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
            check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
