"""Fill-edge sets over a base graph and the minimal-completion operations.

A completion is a set of non-edges of a base graph, the fill edges; adding
them to the graph may or may not make it chordal.  A chordal completion is
minimal when no proper subset of its fill is itself a chordal completion.
Everything here identifies a completion with the bitmask of its fill over the
base graph's sorted non-edge list, which keeps the hot operations (removal
traces, flips, greedy reduction) to a handful of integer operations each.

One greedy-deletion kernel, ``_reduce``, does every reduction: the root, the
removal traces, the successors, ``prune`` and the minimality tests.  Each
caller runs it in one call, which either drains it or stops it after its
first deletion inside a given mask; a removal trace keeps the kernel's
returned state and resumes it when asked for more.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .graph import (Edge, Graph, GraphInputError, _iter_bits, _mcs_violation,
                    ground_index, non_edge_incidence, non_edges)


class Completion:
    """An immutable fill-edge set over a fixed base graph.

    ``mask`` has bit i set when ``non_edges(base)[i]`` is a fill edge.  The
    class does not require the filled graph to be chordal; the operations
    that need chordality or minimality check their own preconditions.
    """

    __slots__ = ("base", "mask")

    def __init__(self, base: Graph, mask: int) -> None:
        self.base = base
        self.mask = mask

    @classmethod
    def from_edges(cls, base: Graph, fill: Iterable[Edge]) -> "Completion":
        mask = 0
        for u, v in fill:
            i = ground_index(base, u, v)
            if i is None:
                raise GraphInputError(
                    f"({u}, {v}) is not a non-edge of the base graph")
            mask |= 1 << i
        return cls(base, mask)

    @classmethod
    def full(cls, base: Graph) -> "Completion":
        """The completion that fills every non-edge (always chordal)."""
        return cls(base, (1 << len(non_edges(base))) - 1)

    @classmethod
    def empty(cls, base: Graph) -> "Completion":
        return cls(base, 0)

    @property
    def fill_edges(self) -> tuple[Edge, ...]:
        """The fill edges in the ground order (sorted vertex pairs)."""
        ne = non_edges(self.base)
        return tuple(ne[i] for i in _iter_bits(self.mask))

    @property
    def complement_edges(self) -> tuple[Edge, ...]:
        """The non-edges left unfilled, in the ground order."""
        ne = non_edges(self.base)
        return tuple(e for i, e in enumerate(ne) if not self.mask >> i & 1)

    def size(self) -> int:
        return self.mask.bit_count()

    def supergraph(self) -> Graph:
        """The base graph with the fill edges added."""
        return Graph(self.base.n,
                     tuple(self.base.edges) + self.fill_edges)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Completion):
            return NotImplemented
        return self.mask == other.mask and (self.base is other.base
                                            or self.base == other.base)

    def __hash__(self) -> int:
        return hash((self.base.n, self.mask))

    def __repr__(self) -> str:
        inside = ", ".join(f"{u}-{v}" for u, v in self.fill_edges)
        return f"Completion({{{inside}}})"


def _filled_masks(base: Graph, mask: int) -> list[int]:
    """Adjacency bitmasks of ``base`` plus the fill ``mask`` (a fresh
    mutable list)."""
    ne = non_edges(base)
    masks = list(base.adj_masks)
    while mask:
        low = mask & -mask
        u, v = ne[low.bit_length() - 1]
        masks[u] |= 1 << v
        masks[v] |= 1 << u
        mask ^= low
    return masks


def _flip(base: Graph, masks: list[int], mask: int,
          i: int) -> tuple[int, int, int]:
    """Flip kernel: drop fill index ``i`` from ``mask`` and add every
    non-edge lying inside the common neighborhood of its endpoints.

    ``masks`` must be the filled adjacency of ``mask``; it is edited in
    place into the flipped mask's.  Returns the flipped mask, ``near``,
    the fill pairs joining an endpoint x or y of the flipped edge to a
    vertex of C, the common neighborhood of x and y, and ``cover``, the
    vertices outside C and x.

    C plus x is a clique of the flipped graph H': x sees every vertex of C,
    as C is its common neighborhood with y, and the flip joins every pair
    inside C.  So every pair missing from H' has an end outside that
    clique, and ``cover`` is a valid cover for ``_reduce`` on the flipped
    adjacency.

    When ``mask`` is a minimal completion, with filled graph H, no fill
    pair of the flipped graph H' outside ``near`` is removable: each pair
    ab of the four kinds below keeps, in its common neighborhood in H', two
    vertices with no edge between them.  H' is H minus xy plus a clique on
    C.  Every fill pair of H other than xy has such a missing pair p, q in
    its common neighborhood in H, as ``mask`` is minimal, and the pair p, q
    is never x, y unless a, b are both in C.

    - a, b both outside C and {x, y}: their rows are unchanged.  If p and q
      were both in C, the 4-cycle p-a-q-x of the chordal H, whose chord pq
      is missing, would need the chord a-x, and likewise a-y would be an
      edge, which puts a in C; so pq is still missing in H'.
    - a = x (or y) and b outside C: b is not adjacent to y, so the common
      neighborhood is unchanged, and the same 4-cycle argument through y
      (p-b-q-y) keeps p, q from lying both in C.
    - a in C and b outside C and {x, y}: the common neighborhood only
      grows, and p, q cannot both lie in C, or the 4-cycle p-b-q-x would
      make b adjacent to x, and likewise to y, so b would be in C.
    - a, b both in C: x and y are both common neighbors, and xy is now
      missing.
    """
    x, y = non_edges(base)[i]
    incident = non_edge_incidence(base)
    cn = masks[x] & masks[y]
    within = 0
    seen = 0
    m = cn
    while m:
        low = m & -m
        v = low.bit_length() - 1
        masks[v] |= cn ^ low
        iv = incident[v]
        within |= iv & seen
        seen |= iv
        m ^= low
    masks[x] ^= 1 << y
    masks[y] ^= 1 << x
    return ((mask | within) ^ (1 << i), (incident[x] | incident[y]) & seen,
            ~(cn | 1 << x))


def _reduce(base: Graph, masks: list[int], candidates: int, cover: int = -1,
            stuck: int = 0, stop: int = 0,
            out: Optional[list[int]] = None) -> tuple[int, int, int]:
    """Greedy-deletion kernel, the one loop that deletes fill edges.

    Repeatedly deletes from ``masks``, in place, the smallest-index non-edge
    in ``candidates`` whose endpoints' common neighborhood in ``masks`` is a
    clique (so deleting it keeps a chordal graph chordal), and appends its
    index to ``out`` when given; every candidate must be an edge of
    ``masks``.  Stops after deleting an index in ``stop`` (-1: after the
    first deletion; 0: never), or when no candidate is removable.  Returns
    ``(candidates, cover, stuck)`` as they then stand: the first is what is
    left of the candidates, and passed back with the same ``masks`` the
    three resume the reduction where it stopped.  Once no candidate is
    removable every one left is stuck, so a resumed call returns at once,
    with no deletion.

    ``cover`` must hold an endpoint of every edge missing from ``masks``
    (default: every vertex).  The clique test looks only at the common
    neighbors inside it: a missing edge between two common neighbors is
    seen from either end, so from the end the cover holds.  Each deletion
    adds an endpoint of the edge it removes.  A caller may pass any such
    cover, such as the complement of a clique of ``masks``: the test stays
    exact, so the deletions, ``out`` and the returned candidates and stuck
    pairs do not depend on it, only the work of each test does.

    The loop keeps one mask, the candidates still to test, which starts as
    ``candidates`` less ``stuck``; ``stuck`` may hold only pairs not
    removable in ``masks``.  A failed test drops its pair from the mask,
    and deleting edge (u, v) adds back the candidates at u or v.  No other
    pair needs a new test: one disjoint from {u, v} keeps its common
    neighborhood, which only gains violations.  So the smallest removable
    index is the same as with no pair skipped, and the stuck pairs returned
    are the candidates outside the mask.
    """
    ne = non_edges(base)
    incident = non_edge_incidence(base)
    m = candidates & ~stuck
    while m:
        low = m & -m
        m ^= low
        i = low.bit_length() - 1
        u, v = ne[i]
        cn = masks[u] & masks[v]
        c = cn & cover
        while c:
            cl = c & -c
            # w is in cn and never in masks[w], so cn misses an edge at w
            # exactly when more than w itself is outside masks[w].
            if cn & ~masks[cl.bit_length() - 1] != cl:
                break
            c ^= cl
        else:
            # The common neighborhood is a clique: delete the pair.
            masks[u] ^= 1 << v
            masks[v] ^= 1 << u
            cover |= 1 << u
            candidates ^= low
            m = candidates & (m | incident[u] | incident[v])
            if out is not None:
                out.append(i)
            if stop & low:
                break
    return candidates, cover, candidates & ~m


def is_chordal_completion(f: Completion) -> bool:
    """Whether the base graph plus the fill edges is chordal."""
    return _mcs_violation(f.base.n, _filled_masks(f.base, f.mask)) is None


@lru_cache(maxsize=None)
def _complete(n: int) -> tuple[int, ...]:
    """Adjacency bitmasks of the complete graph K_n, where the root and
    every removal trace start their reduction.  Cached, since every trace
    over one base starts from the same rows; callers copy it to a list."""
    return tuple(((1 << n) - 1) & ~(1 << v) for v in range(n))


def _require_chordal(f: Completion, op: str) -> list[int]:
    """The filled adjacency of ``f``, built once and checked chordal (a
    fresh mutable list); ``op`` names the caller in the error."""
    masks = _filled_masks(f.base, f.mask)
    if _mcs_violation(f.base.n, masks) is not None:
        raise ValueError(f"{op} requires a chordal completion")
    return masks


def _require_minimal(f: Completion, op: str) -> list[int]:
    """``_require_chordal``, and also checked minimal: the kernel finds no
    removable fill edge, so it leaves the adjacency as built."""
    masks = _require_chordal(f, op)
    if _reduce(f.base, masks, f.mask, stop=-1)[0] != f.mask:
        raise ValueError(f"{op} requires a minimal chordal completion")
    return masks


def _allowed_mask(f: Completion, allowed: Optional[Iterable[Edge]]) -> int:
    if allowed is None:
        return f.mask
    mask = 0
    for u, v in allowed:
        i = ground_index(f.base, u, v)
        if i is not None:
            mask |= 1 << i
    return mask & f.mask


def removable_edges(f: Completion,
                    allowed: Optional[Iterable[Edge]] = None) -> frozenset[Edge]:
    """Fill edges whose individual removal keeps the completion chordal.

    Only edges in ``allowed`` (default: all fill edges) are considered.  A
    fill edge e = (x, y) is removable exactly when the common neighborhood of
    x and y in the filled graph induces a clique; that criterion is what this
    function evaluates.
    """
    masks = _require_chordal(f, "removable_edges")
    ne = non_edges(f.base)
    return frozenset(
        ne[i] for i in _iter_bits(_allowed_mask(f, allowed))
        if not _reduce(f.base, list(masks), 1 << i, stop=-1)[0])


def prune(f: Completion,
          allowed: Optional[Iterable[Edge]] = None) -> Completion:
    """Greedily delete removable fill edges, smallest ground index first,
    restricted to ``allowed``, until none is removable.

    With ``allowed=None`` the result is a minimal chordal completion
    contained in ``f``.
    """
    allowed_mask = _allowed_mask(f, allowed)
    rest = _reduce(f.base, _require_chordal(f, "prune"), allowed_mask)[0]
    return Completion(f.base, f.mask ^ allowed_mask ^ rest)


def is_minimal(f: Completion) -> bool:
    """Whether the chordal completion ``f`` is minimal (no fill edge can be
    dropped without breaking chordality); raises ``ValueError`` when ``f``
    is not chordal."""
    masks = _require_chordal(f, "is_minimal")
    return _reduce(f.base, masks, f.mask, stop=-1)[0] == f.mask


class RemovalTrace:
    """Canonical removal trace of a completion's complement, grown on demand.

    Starting from the full completion, the trace repeatedly deletes the
    smallest-index removable non-fill edge.  Proximity queries usually need
    only a prefix of it, so the trace keeps the kernel's state and resumes
    it only as far as a query reads: ``prefix_against`` runs it in one call
    to the first element inside the fill it is given (its fill hit), and
    ``element`` to the position asked for.
    Assumes the underlying completion is minimal (the trace drains the whole
    complement for any chordal completion, minimal or not, so callers that
    cannot guarantee minimality must check it separately).  The trace of a
    completion that is not chordal ends where the reduction stalls, short of
    the complement.

    ``trace[:n]`` is the tuple of the trace's first n elements, like a
    tuple prefix; the trace is computed as far as position n - 1 and no
    further (to its end for ``trace[:]`` and a negative n).
    """

    __slots__ = ("_run", "_seq", "_stop")

    def __init__(self, f: Completion) -> None:
        rest = (1 << len(non_edges(f.base))) - 1 & ~f.mask
        # The kernel's arguments: base, adjacency, candidates, cover and
        # stuck pairs.  K_n misses no edge, so the empty set covers them.
        self._run = [f.base, list(_complete(f.base.n)), rest, 0, 0]
        self._seq: list[int] = []
        self._stop = rest.bit_count()  # the length once known, else a bound

    def __getitem__(self, key: slice) -> tuple[int, ...]:
        if not isinstance(key, slice):
            raise TypeError("a removal trace slices only as trace[:n]")
        if key.stop is None or key.stop < 0:
            self.force()  # in one call; a negative stop counts from the end
        start, stop, step = key.indices(self._stop)
        if start or step != 1:
            raise TypeError("a removal trace slices only as trace[:n]")
        if stop:
            self.element(stop - 1)
        return tuple(self._seq[:stop])

    def element(self, pos: int) -> Optional[int]:
        """The non-edge index at trace position ``pos``, or None past the
        end."""
        if pos < 0:
            raise IndexError(f"removal trace position {pos} is negative")
        seq = self._seq
        while len(seq) <= pos < self._stop:
            self._pull(-1)
        return seq[pos] if pos < self._stop else None

    def prefix_against(self, fill_mask: int, start: int = 0) -> int:
        """Position of the first trace element inside ``fill_mask`` at or
        after ``start``, or the trace length if none is.  Positions before
        ``start`` are assumed already checked."""
        if start < 0:
            raise IndexError(f"removal trace position {start} is negative")
        seq = self._seq
        i = start
        while True:
            end = len(seq)
            while i < end:
                if fill_mask >> seq[i] & 1:
                    return i
                i += 1
            if i >= self._stop:
                return self._stop
            self._pull(fill_mask)
            # Of the elements the pull added, only the last can lie inside
            # fill_mask.
            i = max(i, len(seq) - 1)

    def _pull(self, stop: int) -> None:
        """Resume the kernel until it deletes an index in ``stop``.  When the
        reduction ends instead, so does the trace: at the complement, or
        short of it for a completion that is not chordal."""
        run, seq = self._run, self._seq
        before = len(seq)
        run[2:] = _reduce(*run, stop=stop, out=seq)
        if len(seq) == before or not stop >> seq[-1] & 1:
            self._stop = len(seq)

    def force(self) -> tuple[int, ...]:
        seq = self._seq
        while len(seq) < self._stop:
            self._pull(0)
        return tuple(seq)


def removal_order(f: Completion) -> tuple[Edge, ...]:
    """Canonical ordering of the unfilled non-edges of a minimal completion.

    This is the order in which the greedy reduction of the full completion,
    restricted to the complement of ``f``, deletes them; it is the canonical
    form the enumeration engine keys its parent relation on.
    """
    _require_minimal(f, "removal_order")
    ne = non_edges(f.base)
    return tuple(ne[i] for i in RemovalTrace(f).force())


def proximity(f: Completion, order: Sequence[Edge]) -> int:
    """Length of the longest prefix of ``order`` that avoids the fill of
    ``f``, i.e. stays inside its complement.

    ``order`` is typically the :func:`removal_order` of another completion of
    the same base graph; passing it in precomputed keeps repeated proximity
    queries against one target cheap.
    """
    i = 0
    for u, v in order:
        j = ground_index(f.base, u, v)
        if j is None:
            raise GraphInputError(
                f"({u}, {v}) is not a non-edge of the base graph")
        if f.mask >> j & 1:
            break
        i += 1
    return i


def _fill_index(f: Completion, e: Edge) -> int:
    u, v = e
    i = ground_index(f.base, u, v)
    if i is None or not f.mask >> i & 1:
        raise GraphInputError(f"({u}, {v}) is not a fill edge of this completion")
    return i


def flip(f: Completion, e: Edge) -> Completion:
    """Remove fill edge ``e`` and complete the common neighborhood of its
    endpoints (in the filled graph) into a clique.

    When ``f`` is chordal the result is again a chordal completion; this is
    the step the enumeration uses to move between minimal completions.
    """
    return Completion(f.base, _flip(f.base, _filled_masks(f.base, f.mask),
                                    f.mask, _fill_index(f, e))[0])


def successor(f: Completion, e: Edge) -> Completion:
    """Flip ``e`` out of a minimal completion and greedily reduce the result
    back to a minimal one; raises ``ValueError`` when ``f`` is not a
    minimal chordal completion.

    One adjacency serves both kernels.  The reduction starts with every
    flipped fill pair stuck except ``near``, those joining the flipped
    edge's ends to their common neighborhood: ``_flip`` proves, case by
    case, that no other pair is removable right after the flip.  Its clique
    tests skip the vertices of ``_flip``'s clique, that common
    neighborhood plus one end, as no missing pair lies inside it.
    """
    i = _fill_index(f, e)
    masks = _require_minimal(f, "successor")
    mask, near, cover = _flip(f.base, masks, f.mask, i)
    return Completion(f.base, _reduce(f.base, masks, mask, cover,
                                      mask & ~near)[0])


def minimal_completion_root(g: Graph) -> Completion:
    """The canonical starting solution: greedy reduction of the full
    completion.  Every enumeration of minimal completions is rooted here."""
    # K_n misses no edge, so the empty set covers them.
    return Completion(g, _reduce(g, list(_complete(g.n)),
                                 (1 << len(non_edges(g))) - 1, cover=0)[0])
