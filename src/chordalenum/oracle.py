"""Brute-force reference enumeration and solution-set verification.

The oracle sweeps subsets of the non-edges in increasing cardinality,
keeping the chordal ones whose proper subsets were all rejected.  It exists
to check the clever enumeration, so it shares as little machinery with it as
possible: no flips, no canonical orderings, just subset generation, superset
pruning, and the chordality test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .completions import Completion, is_chordal_completion, is_minimal
from .graph import Graph, non_edges

DEFAULT_GROUND_LIMIT = 20


@dataclass(frozen=True)
class SolutionSet:
    """A collected family of completions plus its provenance.

    ``duplicates`` keeps anything the producer emitted more than once;
    ``solutions`` is the deduplicated family.
    """

    solutions: frozenset[Completion]
    source: str
    duplicates: tuple[Completion, ...] = ()

    @classmethod
    def collect(cls, produced: Iterable[Completion],
                source: str) -> "SolutionSet":
        seen: set[Completion] = set()
        dups: list[Completion] = []
        for f in produced:
            if f in seen:
                dups.append(f)
            else:
                seen.add(f)
        return cls(solutions=frozenset(seen), source=source,
                   duplicates=tuple(dups))

    def __len__(self) -> int:
        return len(self.solutions)


def brute_force_minimal_completions(g: Graph,
                                    limit: int = DEFAULT_GROUND_LIMIT
                                    ) -> SolutionSet:
    """Every minimal chordal completion of ``g``, by exhaustive subset sweep.

    Subsets of the non-edges are visited in increasing cardinality; a subset
    is skipped when it contains an already-accepted completion, accepted when
    chordal, and rejected otherwise.  The sweep stops after the first level
    where every subset was skipped or accepted, since any larger minimal
    completion would contain an unskipped, unaccepted subset at that level.

    Refuses ground sets larger than ``limit`` (the sweep is exponential).
    """
    ne = non_edges(g)
    m = len(ne)
    if m > limit:
        raise ValueError(
            f"brute-force sweep over {m} non-edges exceeds the limit of "
            f"{limit}; raise the limit explicitly to force it")
    accepted_masks: list[int] = []
    out: list[Completion] = []
    for size in range(m + 1):
        level_exhausted = True
        for combo in combinations(range(m), size):
            mask = 0
            for i in combo:
                mask |= 1 << i
            if any(s & mask == s for s in accepted_masks):
                continue
            f = Completion(g, mask)
            if is_chordal_completion(f):
                accepted_masks.append(mask)
                out.append(f)
            else:
                level_exhausted = False
        if level_exhausted:
            break
    return SolutionSet.collect(out, source="brute-force")


@dataclass(frozen=True)
class VerificationReport:
    """Differences between a produced family and a reference family.

    Empty (``ok``) exactly when the two agree element for element and every
    produced member is a duplicate-free minimal chordal completion.
    """

    missing: tuple[Completion, ...] = ()
    extra: tuple[Completion, ...] = ()
    not_chordal: tuple[Completion, ...] = ()
    not_minimal: tuple[Completion, ...] = ()
    duplicates: tuple[Completion, ...] = ()

    @property
    def ok(self) -> bool:
        return not (self.missing or self.extra or self.not_chordal
                    or self.not_minimal or self.duplicates)

    def __str__(self) -> str:
        if self.ok:
            return "verification ok"
        return "\n".join(
            f"{label}: {f!r}"
            for label, group in (("missing", self.missing),
                                 ("extra", self.extra),
                                 ("not chordal", self.not_chordal),
                                 ("not minimal", self.not_minimal),
                                 ("duplicate", self.duplicates))
            for f in group)


def verify_solution_set(produced: SolutionSet,
                        reference: SolutionSet) -> VerificationReport:
    """Compare a produced family against a trusted reference.

    Every produced member is additionally re-validated: it must be chordal
    and pass the removability check (no fill edge individually droppable).
    """
    not_chordal = []
    not_minimal = []
    for f in sorted(produced.solutions, key=lambda f: f.mask):
        if not is_chordal_completion(f):
            not_chordal.append(f)
        elif not is_minimal(f):
            not_minimal.append(f)
    key = lambda f: f.mask
    return VerificationReport(
        missing=tuple(sorted(reference.solutions - produced.solutions, key=key)),
        extra=tuple(sorted(produced.solutions - reference.solutions, key=key)),
        not_chordal=tuple(not_chordal),
        not_minimal=tuple(not_minimal),
        duplicates=produced.duplicates,
    )
