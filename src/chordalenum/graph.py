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


def _is_chordal_masks(n: int, adj_masks) -> bool:
    """Chordality test on a bitmask adjacency, in one pass of maximum
    cardinality search (MCS).

    MCS visits next an unvisited vertex with the most visited neighbors.
    As each vertex is visited the loop checks that its neighbors visited
    before it form a clique, and rejects on the first that do not.  That
    condition on every vertex says the reverse of the visit order is a
    perfect elimination order, so passing it proves the graph chordal; and
    on a chordal graph the reverse of any MCS order is a perfect
    elimination order (Tarjan and Yannakakis, SIAM J. Comput. 1984), so no
    chordal graph is rejected.
    """
    weights = [0] * n
    unvisited = (1 << n) - 1
    while unvisited:
        best, best_w = -1, -1
        m = unvisited
        while m:
            low = m & -m
            v = low.bit_length() - 1
            if weights[v] > best_w:
                best, best_w = v, weights[v]
            m ^= low
        earlier = adj_masks[best] & ~unvisited
        m = earlier
        while m:
            low = m & -m
            # u is in earlier and never in its own adjacency, so earlier
            # misses an edge at u exactly when more than u is outside it.
            if earlier & ~adj_masks[low.bit_length() - 1] != low:
                return False
            m ^= low
        unvisited ^= 1 << best
        m = adj_masks[best] & unvisited
        while m:
            low = m & -m
            weights[low.bit_length() - 1] += 1
            m ^= low
    return True


def is_chordal(g: Graph) -> bool:
    """Whether every cycle of length at least four in ``g`` has a chord."""
    return _is_chordal_masks(g.n, g.adj_masks)


def find_chordless_cycle(g: Graph) -> Optional[list[int]]:
    """Return an induced cycle of length >= 4 as a vertex list, or None.

    Returns None iff the graph is chordal.
    """
    if is_chordal(g):
        return None
    return _chordless_cycle_masks(g.n, g.adj_masks)


def _chordless_cycle_masks(n: int, adj_masks) -> list[int]:
    """A chordless cycle of a non-chordal bitmask adjacency, as a vertex list.

    Picks a vertex v with two non-adjacent neighbors a < b and a shortest a-b
    path whose interior avoids N[v].  The cycle v, a, ..., b is chordless: v
    sees only a and b on it, and a chord of the path would shorten it.  Every
    non-chordal graph has such a triple (take v on a chordless cycle).
    """
    for v in range(n):
        nb = adj_masks[v]
        # The interior may use any vertex outside N[v]; b ends the path.
        outside = ~(nb | 1 << v)
        for a in _iter_bits(nb):
            for b in _iter_bits(nb & ~adj_masks[a] & ~((2 << a) - 1)):
                path = _shortest_path_masks(adj_masks, a, b, outside | 1 << b)
                if path is not None:
                    return [v] + path
    raise AssertionError("non-chordal graph must contain a chordless cycle")


def _shortest_path_masks(adj_masks, a: int, b: int,
                         allowed: int) -> Optional[list[int]]:
    """Shortest a-b path through the vertices of ``allowed``, as a vertex
    list; None when there is none.  Breadth-first by layers, then back from
    b through the lowest neighbor in each earlier layer."""
    layers = [1 << a]
    seen = 1 << a
    while not seen >> b & 1:
        frontier = 0
        for u in _iter_bits(layers[-1]):
            frontier |= adj_masks[u]
        frontier &= allowed & ~seen
        if not frontier:
            return None
        layers.append(frontier)
        seen |= frontier
    path = [b]
    for layer in reversed(layers[:-1]):
        back = layer & adj_masks[path[-1]]
        path.append((back & -back).bit_length() - 1)
    path.reverse()
    return path
