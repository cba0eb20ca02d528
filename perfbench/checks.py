"""Output checks, run after the timed region.

Frozen values in ``frozen.json`` were recorded at commit 5b68206 with
``freeze.py``: per-input digests of the emission sequence for
the default seed, and the sorted-mask digest of the full reverse-search
output of the 14-vertex instance (a 75-second run, so it is not repeated).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from chordalenum import Completion, Graph, is_minimal, non_edges

FROZEN_PATH = Path(__file__).resolve().parent / "frozen.json"


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(str(item).encode())
        h.update(b",")
    return h.hexdigest()[:16]


def pass_digest(p) -> str:
    """Digest of what one input emitted, in emission order."""
    return digest([p.text]) if p.text else digest(p.masks)


def base_masks(p, base_edges) -> list[int]:
    """The pass's solutions as fill masks over the unrelabelled base graph,
    so that every seed can be compared against one frozen set."""
    inv = [0] * p.input.n
    for v, label in enumerate(p.input.perm):
        inv[label] = v
    g = Graph(p.input.n, p.input.edges)
    base_index = {e: i for i, e in enumerate(
        non_edges(Graph(p.input.n, base_edges)))}
    out = []
    for mask in p.masks:
        acc = 0
        for u, v in Completion(g, mask).fill_edges:
            acc |= 1 << base_index[tuple(sorted((inv[u], inv[v])))]
        out.append(acc)
    return out


def load_frozen() -> dict:
    with open(FROZEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Checker:
    """Counts output checks attempted and failed, with a reason per
    failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check_pass(self, w, seed: int, p, frozen: dict) -> None:
        label = f"{w.name} seed {seed} input {p.index}"
        sequence = frozen.get("sequence", {}).get(w.name, [])
        if seed == frozen.get("seed") and p.index < len(sequence):
            self.check(pass_digest(p) == sequence[p.index],
                       f"{label}: emission sequence differs from the "
                       "frozen one")
        if w.mode == "verify":
            self.check(p.exit_code == 0,
                       f"{label}: verify exited {p.exit_code}")
            return
        self.check(len(set(p.masks)) == len(p.masks),
                   f"{label}: duplicate emissions")
        if w.limit is not None:
            self.check(len(p.masks) == w.limit,
                       f"{label}: {len(p.masks)} emissions, expected "
                       f"{w.limit}")
        g = Graph(p.input.n, p.input.edges)
        for mask in p.masks:
            try:
                ok = is_minimal(Completion(g, mask))
            except ValueError:
                ok = False
            self.check(ok, f"{label}: emission {mask:#x} is not a minimal "
                           "chordal completion")
        if w.expected_count is not None:
            self.check(len(p.masks) == w.expected_count,
                       f"{label}: {len(p.masks)} solutions, expected "
                       f"{w.expected_count}")
            self.check(digest(sorted(base_masks(p, w.base_edges)))
                       == frozen["full_set"][w.name],
                       f"{label}: solution set differs from the frozen "
                       "reverse-search output")
