"""Simple undirected graphs with a fixed vertex numbering.

Vertices are the integers ``0..n-1``.  Adjacency is kept both as per-vertex
frozensets (convenient for callers) and as per-vertex integer bitmasks, which
is the representation the chordality test and the completion machinery
operate on.
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

    __slots__ = ("n", "edges", "adj", "adj_masks", "_non_edges", "_ne_index",
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
        self.adj = tuple(frozenset(_iter_bits(m)) for m in masks)
        self.edges = frozenset(
            (u, v) for u in range(n) for v in self.adj[u] if u < v)
        self._non_edges: Optional[tuple[Edge, ...]] = None
        self._ne_index: Optional[dict[Edge, int]] = None
        self._ne_incident: Optional[tuple[int, ...]] = None

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u] if 0 <= u < self.n else False

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
                if v not in g.adj[u])
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

    Returns None iff the graph is chordal.  The witness is found by picking a
    vertex v with two non-adjacent neighbors a, b and a shortest a-b path
    avoiding the rest of N[v]; shortestness makes the cycle through v
    chordless.  The witness is re-verified before being returned.
    """
    if is_chordal(g):
        return None
    for v in range(g.n):
        nb = sorted(g.adj[v])
        for ai in range(len(nb)):
            for bi in range(ai + 1, len(nb)):
                a, b = nb[ai], nb[bi]
                if g.has_edge(a, b):
                    continue
                blocked = (g.adj[v] | {v}) - {a, b}
                path = _shortest_path_avoiding(g, a, b, blocked)
                if path is None:
                    continue
                cycle = [v] + path
                if _is_chordless_cycle(g, cycle):
                    return cycle
    raise AssertionError("non-chordal graph must contain a chordless cycle")


def _shortest_path_avoiding(g: Graph, a: int, b: int,
                            blocked: frozenset[int]) -> Optional[list[int]]:
    """Shortest a-b path whose interior avoids ``blocked``, as a vertex list."""
    prev = {a: -1}
    frontier = [a]
    while frontier:
        nxt = []
        for u in frontier:
            for w in sorted(g.adj[u]):
                if w in prev or (w in blocked and w != b):
                    continue
                prev[w] = u
                if w == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(prev[path[-1]])
                    path.reverse()
                    return path
                nxt.append(w)
        frontier = nxt
    return None


def _is_chordless_cycle(g: Graph, cycle: list[int]) -> bool:
    k = len(cycle)
    if k < 4 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = g.has_edge(cycle[i], cycle[j])
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                return False
    return True
