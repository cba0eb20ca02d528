"""Brute-force reference enumeration and solution-set verification.

The oracle searches fill sets breadth first: it starts from the empty fill
and grows fill sets one chord at a time.  A fill set that fails the
chordality test leaves a certificate, a chordless cycle of the filled
graph.  A later fill set that fills the same cycle sides and none of the
cycle's other pairs leaves that cycle chordless, so it is rejected without
a test.  Every chordal superset of a rejected fill set fills one of the
cycle's chords, so those chords are the only steps out of it.  The oracle
exists to check the clever enumeration, so it shares as little machinery
with it as possible: no flips, no canonical orderings, just one-chord
growth, superset pruning, chordless-cycle certificates, and the chordality
test.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .completions import (Completion, _filled_masks, is_chordal_completion,
                          is_minimal)
from .graph import (Graph, _chordless_cycle_masks, _iter_bits,
                    non_edge_incidence, non_edges)

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
    """Every minimal chordal completion of ``g``, by breadth-first search
    over fill sets.

    Fill sets leave a first-in, first-out queue, so their sizes never
    decrease; the queue starts with the empty fill.  A fill set S is dropped
    when it contains an already-accepted completion, rejected when a
    certificate covers it, otherwise accepted when chordal and rejected
    when not.  A rejected S enqueues S + k for each chord k of its
    certificate's cycle that makes a fill set not seen before.

    Each chordality rejection of a fill set S records a certificate from a
    chordless cycle Z of G+S: the set E of Z's consecutive pairs that are
    non-edges of G (so in S), and the set K of its non-consecutive pairs
    (all non-edges of G, since Z is chordless in G+S).  A fill set T that
    contains E and misses K keeps every edge of Z and adds no chord, so Z is
    a chordless cycle of G+T and T is rejected without a chordality test.

    A chordal T that contains a rejected S must fill a chord in K, so every
    minimal completion M is reached by one-chord steps through fill sets
    inside M, none of them chordal or dropped.  Every chordal proper subset
    of a fill set contains a smaller minimal completion, accepted first, so
    each accepted fill set is already inclusion-minimal.

    Refuses ground sets larger than ``limit``: the number of fill sets
    visited, like the number of minimal completions, can grow exponentially
    with the number of non-edges.
    """
    m = len(non_edges(g))
    if m > limit:
        raise ValueError(
            f"brute-force sweep over {m} non-edges exceeds the limit of "
            f"{limit}; raise the limit explicitly to force it")
    accepted_masks: list[int] = []
    # (E | K, E) per certificate: T contains E and misses K exactly when
    # T & (E | K) == E.
    certificates: list[tuple[int, int]] = []
    queue, seen = deque([0]), {0}
    while queue:
        mask = queue.popleft()
        # Plain loops, not any() over generators: a generator per test
        # costs more than the test.
        for s in accepted_masks:
            if s & mask == s:
                break
        else:
            for pairs, filled in certificates:
                if mask & pairs == filled:
                    break
            else:
                if is_chordal_completion(Completion(g, mask)):
                    accepted_masks.append(mask)
                    continue
                pairs, filled = _certificate(g, mask)
                certificates.append((pairs, filled))
            # Rejected, by a certificate or by the test: step to each chord.
            for i in _iter_bits(pairs & ~filled):
                child = mask | 1 << i
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
    return SolutionSet.collect((Completion(g, s) for s in accepted_masks),
                               source="brute-force")


def _certificate(g: Graph, mask: int) -> tuple[int, int]:
    """The certificate of a non-chordal fill ``mask`` as (E | K, E).

    Every pair of a chordless cycle Z of G+S that is a non-edge of G is
    either one of Z's edges, so filled by S, or one of its non-consecutive
    pairs, so outside S: E and K are those pairs inside and outside ``mask``.
    """
    incident = non_edge_incidence(g)
    # The non-edges of G with both ends on Z, met the way the flip meets
    # those inside a common neighborhood: each vertex's incidence row
    # against the rows of the vertices before it.
    pairs = seen = 0
    for v in _chordless_cycle_masks(g.n, _filled_masks(g, mask)):
        pairs |= incident[v] & seen
        seen |= incident[v]
    return pairs, pairs & mask


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
        lines = []
        for label, group in (("missing", self.missing),
                             ("extra", self.extra),
                             ("not chordal", self.not_chordal),
                             ("not minimal", self.not_minimal),
                             ("duplicate", self.duplicates)):
            for f in group:
                line = f"{label}: {f!r}"
                if label == "not chordal":
                    cycle = _chordless_cycle_masks(
                        f.base.n, _filled_masks(f.base, f.mask))
                    line += f", chordless cycle {'-'.join(map(str, cycle))}"
                lines.append(line)
        return "\n".join(lines)


def verify_solution_set(produced: SolutionSet,
                        reference: SolutionSet) -> VerificationReport:
    """Compare a produced family against a trusted reference.

    Every produced member is additionally re-validated: it must be chordal
    and pass the removability check (no fill edge individually droppable).
    One chordality test per member decides both: ``is_minimal`` raises
    ``ValueError`` on a member that is not chordal.
    """
    key = lambda f: f.mask
    not_chordal = []
    not_minimal = []
    for f in sorted(produced.solutions, key=key):
        try:
            minimal = is_minimal(f)
        except ValueError:
            not_chordal.append(f)
            continue
        if not minimal:
            not_minimal.append(f)
    return VerificationReport(
        missing=tuple(sorted(reference.solutions - produced.solutions, key=key)),
        extra=tuple(sorted(produced.solutions - reference.solutions, key=key)),
        not_chordal=tuple(not_chordal),
        not_minimal=tuple(not_minimal),
        duplicates=produced.duplicates,
    )
