"""Fill-edge sets over a base graph and the minimal-completion operations.

A completion is a set of non-edges of a base graph, the fill edges; adding
them to the graph may or may not make it chordal.  A chordal completion is
minimal when no proper subset of its fill is itself a chordal completion.
Everything here identifies a completion with the bitmask of its fill over the
base graph's sorted non-edge list, which keeps the hot operations (removal
traces, flips, greedy reduction) to a handful of integer operations each.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

from .graph import (Edge, Graph, GraphInputError, _is_chordal_masks,
                    _iter_bits, ground_index, non_edge_incidence, non_edges)


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


def _flip(base: Graph, masks: list[int], mask: int, i: int) -> int:
    """Flip kernel: drop fill index ``i`` from ``mask`` and add every
    non-edge lying inside the common neighborhood of its endpoints.

    ``masks`` must be the filled adjacency of ``mask``; it is edited in
    place into the flipped mask's, which is returned.
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
        within |= incident[v] & seen
        seen |= incident[v]
        m ^= low
    masks[x] &= ~(1 << y)
    masks[y] &= ~(1 << x)
    return (mask | within) & ~(1 << i)


def _deletions(base: Graph, masks: list[int], candidates: int,
               cover: int = -1) -> Iterator[int]:
    """Greedy reduction kernel.

    Repeatedly finds the smallest-index non-edge in ``candidates`` whose
    endpoints' common neighborhood in ``masks`` is a clique (so deleting it
    keeps a chordal graph chordal), deletes it from ``masks`` in place and
    yields its index; stops when no candidate is removable.

    ``cover`` must hold an endpoint of every edge missing from ``masks``
    (default: every vertex).  The clique test looks only at the common
    neighbors inside it: a missing edge between two common neighbors is
    seen from either end, so from the end the cover holds.
    """
    # Deleting edge (u, v) cannot unblock a pair disjoint from {u, v}: that
    # pair's common neighborhood is unchanged and only gains violations.  So
    # pairs once found stuck are skipped until a deletion touches one of
    # their endpoints; the smallest removable index is the same either way.
    ne = non_edges(base)
    incident = non_edge_incidence(base)
    stuck = 0
    while True:
        m = candidates & ~stuck
        while m:
            low = m & -m
            i = low.bit_length() - 1
            u, v = ne[i]
            cn = masks[u] & masks[v]
            c = cn & cover
            while c:
                cl = c & -c
                # w is in cn and never in masks[w], so cn misses an edge at
                # w exactly when more than w itself is outside masks[w].
                if cn & ~masks[cl.bit_length() - 1] != cl:
                    break
                c ^= cl
            if not c:
                break
            stuck |= low
            m ^= low
        else:
            return
        masks[u] &= ~(1 << v)
        masks[v] &= ~(1 << u)
        cover |= 1 << u
        candidates ^= low
        stuck &= ~(incident[u] | incident[v])
        yield i


def is_chordal_completion(f: Completion) -> bool:
    """Whether the base graph plus the fill edges is chordal."""
    return _is_chordal_masks(f.base.n, _filled_masks(f.base, f.mask))


def _from_complete(base: Graph, candidates: int) -> Iterator[int]:
    """``_deletions`` run from the complete graph K_n over ``candidates``:
    the greedy reduction that defines the root and every removal trace."""
    n = base.n
    full = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
    # K_n misses no edge, so the empty set covers them; each deletion then
    # adds one endpoint.
    return _deletions(base, full, candidates, 0)


def _require_chordal(f: Completion, op: str) -> list[int]:
    """The filled adjacency of ``f``, built once and checked chordal (a
    fresh mutable list); ``op`` names the caller in the error."""
    masks = _filled_masks(f.base, f.mask)
    if not _is_chordal_masks(f.base.n, masks):
        raise ValueError(f"{op} requires a chordal completion")
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
        if next(_deletions(f.base, list(masks), 1 << i), None) is not None)


def prune(f: Completion,
          allowed: Optional[Iterable[Edge]] = None) -> Completion:
    """Greedily delete removable fill edges, smallest ground index first,
    restricted to ``allowed``, until none is removable.

    With ``allowed=None`` the result is a minimal chordal completion
    contained in ``f``.
    """
    masks = _require_chordal(f, "prune")
    mask = f.mask
    for i in _deletions(f.base, masks, _allowed_mask(f, allowed)):
        mask ^= 1 << i
    return Completion(f.base, mask)


def is_minimal(f: Completion) -> bool:
    """Whether ``f`` is a minimal chordal completion (chordal, and no fill
    edge can be dropped without breaking chordality)."""
    kernel = _deletions(f.base, _require_chordal(f, "is_minimal"), f.mask)
    return next(kernel, None) is None


class RemovalTrace:
    """Canonical removal trace of a completion's complement, grown on demand.

    Starting from the full completion, the trace repeatedly deletes the
    smallest-index removable non-fill edge.  Proximity queries usually need
    only a prefix of it, so elements are computed one at a time and cached.
    Assumes the underlying completion is minimal (the trace drains the whole
    complement for any chordal completion, minimal or not, so callers that
    cannot guarantee minimality must check it separately).

    ``trace[:n]`` is the trace cut after its first n elements, like a tuple
    prefix: a trace of its own whose proximity is ``min(proximity, n)``,
    which has no element at position n or later, and which shares the
    elements computed so far (and computed from now on) with ``trace``; it
    never computes an element past its end.
    """

    __slots__ = ("_deletions", "_seq", "_stop")

    def __init__(self, f: Completion) -> None:
        rest = (1 << len(non_edges(f.base))) - 1 & ~f.mask
        self._deletions = _from_complete(f.base, rest)
        self._seq: list[int] = []
        self._stop = rest.bit_count()

    def __getitem__(self, key: slice) -> "RemovalTrace":
        if not isinstance(key, slice):
            raise TypeError("a removal trace slices only as trace[:n]")
        start, stop, step = key.indices(self._stop)
        if start or step != 1:
            raise TypeError("a removal trace slices only as trace[:n]")
        view = RemovalTrace.__new__(RemovalTrace)
        view._deletions = self._deletions
        view._seq = self._seq
        view._stop = stop
        return view

    def element(self, pos: int) -> Optional[int]:
        """The non-edge index at trace position ``pos``, or None past the
        end."""
        if pos >= self._stop:
            return None
        seq = self._seq
        while len(seq) <= pos:
            self._extend()
        return seq[pos]

    def prefix_against(self, fill_mask: int, start: int = 0) -> int:
        """Position of the first trace element inside ``fill_mask`` at or
        after ``start``, or the trace length if none is.  Positions before
        ``start`` are assumed already checked."""
        seq = self._seq
        stop = self._stop
        i = start
        while i < stop:
            if i < len(seq):
                if fill_mask >> seq[i] & 1:
                    return i
                i += 1
            else:
                self._extend()
        return stop

    def _extend(self) -> None:
        i = next(self._deletions, None)
        if i is None:
            raise ValueError("removal trace stalled: not a chordal completion")
        self._seq.append(i)

    def force(self) -> tuple[int, ...]:
        seq = self._seq
        while len(seq) < self._stop:
            self._extend()
        return tuple(seq[:self._stop])


def removal_order(f: Completion) -> tuple[Edge, ...]:
    """Canonical ordering of the unfilled non-edges of a minimal completion.

    This is the order in which the greedy reduction of the full completion,
    restricted to the complement of ``f``, deletes them; it is the canonical
    form the enumeration engine keys its parent relation on.
    """
    if not is_minimal(f):
        raise ValueError("removal_order requires a minimal chordal completion")
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
                                    f.mask, _fill_index(f, e)))


def _successor_mask(base: Graph, mask: int, i: int, masks: list[int]) -> int:
    """Flip fill index ``i`` out of ``mask``, then greedily reduce; one
    adjacency serves both halves.

    ``masks`` must be the filled adjacency of ``mask`` (as ``_filled_masks``
    builds it); it is edited in place and ends as the result's.
    """
    mask = _flip(base, masks, mask, i)
    for j in _deletions(base, masks, mask):
        mask ^= 1 << j
    return mask


def successor(f: Completion, e: Edge) -> Completion:
    """Flip ``e`` out of a minimal completion and greedily reduce the result
    back to a minimal one."""
    return Completion(f.base, _successor_mask(
        f.base, f.mask, _fill_index(f, e), _filled_masks(f.base, f.mask)))


def minimal_completion_root(g: Graph) -> Completion:
    """The canonical starting solution: greedy reduction of the full
    completion.  Every enumeration of minimal completions is rooted here."""
    mask = (1 << len(non_edges(g))) - 1
    for i in _from_complete(g, mask):
        mask ^= 1 << i
    return Completion(g, mask)
