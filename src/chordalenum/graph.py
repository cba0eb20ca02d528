"""Simple undirected graphs with a fixed vertex numbering.

Vertices are the integers ``0..n-1``.  Adjacency is kept once, as
per-vertex integer bitmasks (``adj_masks``): bit u of row v is set when u-v
is an edge.  The chordality test and the completion machinery operate on
these rows directly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

Edge = tuple[int, int]


class GraphInputError(ValueError):
    """Malformed graph input: bad endpoint, self-loop, a graph too large to
    build or to list the non-edges of, or unparsable text."""


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple undirected graph.

    Duplicate edges, including reversed duplicates, collapse to one edge.
    Self-loops and out-of-range endpoints raise :class:`GraphInputError`.
    Derived data that the completion machinery needs repeatedly (the sorted
    non-edge list, its index map, and per-vertex masks of incident non-edge
    indices) is computed lazily and cached on the instance.
    """

    __slots__ = ("n", "edges", "adj_masks", "_non_edges", "_ne_index",
                 "_ne_incident")

    def __init__(self, n: int, edge_list: Iterable[Edge] = ()) -> None:
        if n < 0:
            raise GraphInputError(f"vertex count must be nonnegative, got {n}")
        try:
            masks = [0] * n
        except (OverflowError, MemoryError):
            raise GraphInputError(f"vertex count {n} is too large") from None
        for u, v in edge_list:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphInputError(
                    f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphInputError(f"self-loop ({u}, {v}) is not a valid edge")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self.n = n
        self.adj_masks = tuple(masks)
        self.edges = frozenset(
            (u, v) for u in range(n) for v in _iter_bits(masks[u]) if u < v)
        self._non_edges: Optional[tuple[Edge, ...]] = None
        self._ne_index: Optional[dict[Edge, int]] = None
        self._ne_incident: Optional[tuple[int, ...]] = None

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v and self.adj_masks[u] >> v & 1 == 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def non_edges(g: Graph) -> tuple[Edge, ...]:
    """All vertex pairs of ``g`` that are not edges, in lexicographic order.

    This fixed ordering is the ground order every completion, canonical
    ordering, and traversal in this package refers to.
    """
    if g._non_edges is None:
        try:
            g._non_edges = tuple(
                (u, v) for u in range(g.n) for v in range(u + 1, g.n)
                if not g.adj_masks[u] >> v & 1)
        except MemoryError:
            raise GraphInputError(
                f"{g.n} vertices with {len(g.edges)} edges leave too many "
                "non-edges to list") from None
    return g._non_edges


def ground_index(g: Graph, u: int, v: int) -> Optional[int]:
    """Position of the pair {u, v}, in either order, in :func:`non_edges`;
    None when it is not a non-edge of ``g``."""
    if g._ne_index is None:
        g._ne_index = {e: i for i, e in enumerate(non_edges(g))}
    return g._ne_index.get((u, v) if u < v else (v, u))


def non_edge_incidence(g: Graph) -> tuple[int, ...]:
    """Per-vertex bitmasks over non-edge indices: bit i is set at vertex v
    when v is an endpoint of ``non_edges(g)[i]``."""
    if g._ne_incident is None:
        inc = [0] * g.n
        for i, (u, v) in enumerate(non_edges(g)):
            inc[u] |= 1 << i
            inc[v] |= 1 << i
        g._ne_incident = tuple(inc)
    return g._ne_incident


def _mcs_violation(n: int, adj_masks) -> Optional[tuple[int, int, int]]:
    """One pass of maximum cardinality search (MCS) over a bitmask
    adjacency: None when the graph is chordal, else its first violation
    (v, a, b).

    MCS visits next an unvisited vertex with the most visited neighbors,
    the lowest-numbered one on ties.  The unvisited vertices are kept in
    levels, one bitmask per weight, so a visit lifts each unvisited neighbor
    one level instead of rescanning every weight.  As each vertex v is
    visited the loop checks that its neighbors visited before it form a
    clique.  The first v that fails is returned with a, the lowest of them
    not adjacent to all the others, and b, the lowest of them not adjacent
    to a (a < b).  Passing every check says the reverse of the visit order
    is a perfect elimination order, so the graph is chordal; and on a
    chordal graph the reverse of any MCS order is a perfect elimination
    order (Tarjan and Yannakakis, SIAM J. Comput. 1984), so no chordal
    graph fails.
    """
    full = (1 << n) - 1
    levels = [full] + [0] * n
    top = visited = 0
    while visited != full:
        level = levels[top]
        while not level:
            top -= 1
            level = levels[top]
        low = level & -level
        levels[top] = level ^ low
        v = low.bit_length() - 1
        row = adj_masks[v]
        earlier = row & visited
        # Each a in earlier must see the rest of it.  a is never in its own
        # row, so earlier misses an edge at a exactly when more than a is
        # outside that row.  The highest a needs no check: a miss at it is
        # a miss at a lower one.
        m = earlier
        while m & (m - 1):
            bit = m & -m
            missed = earlier & ~adj_masks[bit.bit_length() - 1] ^ bit
            if missed:
                return (v, bit.bit_length() - 1,
                        (missed & -missed).bit_length() - 1)
            m ^= bit
        visited |= low
        # Lift each unvisited neighbor one level, from the top level down
        # so that no vertex is lifted twice.
        lift = row & ~visited
        k = top
        while lift:
            moved = levels[k] & lift
            if moved:
                levels[k] ^= moved
                levels[k + 1] |= moved
                lift ^= moved
                if k == top:
                    top += 1
            k -= 1
    return None


def is_chordal(g: Graph) -> bool:
    """Whether every cycle of length at least four in ``g`` has a chord."""
    return _mcs_violation(g.n, g.adj_masks) is None


def find_chordless_cycle(g: Graph) -> Optional[list[int]]:
    """Return an induced cycle of length >= 4 as a vertex list, or None.

    Returns None iff the graph is chordal.
    """
    return _chordless_cycle_masks(g.n, g.adj_masks)


def _chordless_cycle_masks(n: int, adj_masks) -> Optional[list[int]]:
    """A chordless cycle of a bitmask adjacency, as a vertex list; None when
    the graph is chordal.  One MCS pass and one breadth-first search.

    The cycle closes the first violation (v, a, b) of :func:`_mcs_violation`
    with a shortest a-b path whose interior avoids N[v], listed as the path
    followed by v.  It is chordless: v sees only a and b on it, a and b are
    not adjacent, and a chord of the path would shorten it.

    Such a path exists, by the MCS weight rule.  While MCS runs, write A(x)
    for the visited neighbors of an unvisited x and w(x) = |A(x)| for its
    weight, say z is above y when w(z) > w(y), and call the components of
    the visited vertices outside N(y) the y-regions.  After every visit,
    for all unvisited y and z:

    (R) one y-region meets A(z) for every z above y;
    (P) if w(z) >= w(y), every p in A(y) - A(z) reaches A(z) through a
        y-region: by a path whose vertices after p are visited and outside
        N(y), and whose last vertex is in A(z).

    Both hold before the first visit, and they survive the visit of a
    vertex u, which has the largest weight.  (R): if u is in N(y), w(y)
    grows and the y-regions stay, so each z above y after the visit was
    above it before.  If not, u joins a y-region that meets A(z) for every
    z that u lifts above y; and if some z was above y before, so was u, so
    the region of (R) meets A(u) and becomes part of u's.  (P): an old p
    keeps its path, unless u, outside N(y) and adjacent to z, lifted w(z)
    up to w(y).  Then p is adjacent to u or reaches A(u) by (P) for (y, u),
    and u, outside N(y) and now in A(z), ends the path.  A new p = u, in
    A(y) and not in A(z), means z was above y before the visit, and so was
    u; the y-region of (R) then joins a neighbor of u to A(z).

    Now let c be whichever of a and b was visited later, and d the other.
    Take (P) with y = v and z = c just before c was visited: c had the
    largest weight, and d, in A(v) and not adjacent to c, reaches A(c)
    through a v-region.  With c added, that is an a-b path whose interior
    avoids N[v].
    """
    violation = _mcs_violation(n, adj_masks)
    if violation is None:
        return None
    v, a, b = violation
    allowed = ~(adj_masks[v] | 1 << v) | 1 << b
    # Breadth first by layers from a, then back from b through the lowest
    # neighbor in each earlier layer.
    layers = [1 << a]
    seen = 1 << a
    while not seen >> b & 1:
        frontier = 0
        for u in _iter_bits(layers[-1]):
            frontier |= adj_masks[u]
        frontier &= allowed & ~seen
        if not frontier:
            raise AssertionError("an MCS violation always closes a cycle")
        layers.append(frontier)
        seen |= frontier
    path = [b]
    for layer in reversed(layers[:-1]):
        back = layer & adj_masks[path[-1]]
        path.append((back & -back).bit_length() - 1)
    path.reverse()
    path.append(v)
    return path
