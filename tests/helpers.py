"""Shared test fixtures: graph builders, independent reference checks, and a
synthetic set system for exercising the generic engine."""

from __future__ import annotations

import random
from itertools import combinations

import networkx as nx

from chordalenum import (Completion, Graph, GraphInputError, SetSystem,
                         canonical_path, is_chordal_completion, next_toward)

_ATLAS = None


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def all_pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def atlas_graphs(max_n: int, min_n: int = 1) -> list[Graph]:
    """Every graph with min_n..max_n vertices, one per isomorphism class."""
    global _ATLAS
    if _ATLAS is None:
        _ATLAS = nx.graph_atlas_g()
    out = []
    for h in _ATLAS:
        n = h.number_of_nodes()
        if min_n <= n <= max_n:
            out.append(Graph(n, list(h.edges())))
    return out


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def chordal_by_cycle_search(g: Graph) -> bool:
    """Reference chordality test: a graph is chordal iff no vertex subset
    induces a cycle of length at least four.  Exponential; keep n small."""
    for size in range(4, g.n + 1):
        for sub in combinations(range(g.n), size):
            inside = sum(1 << v for v in sub)
            if any((g.adj_masks[v] & inside).bit_count() != 2 for v in sub):
                continue
            # 2-regular: a disjoint union of cycles; connected means one
            # cycle, and any induced cycle here has length >= 4.
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                nxt = []
                for u in frontier:
                    for w in sub:
                        if g.adj_masks[u] >> w & 1 and w not in seen:
                            seen.add(w)
                            nxt.append(w)
                frontier = nxt
            if len(seen) == size:
                return False
    return True


def mcs_by_linear_scan(g: Graph):
    """Reference maximum cardinality search, one weight scan per visit: the
    visit order up to the first vertex whose earlier neighbors are not a
    clique, and that violation (v, a, b) or None.  Ties go to the lowest
    index; a is the lowest earlier neighbor of v not adjacent to all the
    others, and b the lowest earlier neighbor not adjacent to a."""
    weights = [0] * g.n
    visited: list[int] = []
    unvisited = set(range(g.n))
    while unvisited:
        v = max(sorted(unvisited), key=lambda u: weights[u])
        visited.append(v)
        earlier = [u for u in visited if g.has_edge(u, v)]
        for a in sorted(earlier):
            missed = [b for b in sorted(earlier)
                      if b != a and not g.has_edge(a, b)]
            if missed:
                return visited, (v, a, missed[0])
        unvisited.remove(v)
        for u in unvisited:
            if g.has_edge(u, v):
                weights[u] += 1
    return visited, None


def random_graph(rng: random.Random, n: int,
                 non_edge_count: int) -> Graph:
    """Uniform graph on n vertices with exactly the given complement size."""
    pairs = all_pairs(n)
    missing = set(rng.sample(pairs, non_edge_count))
    return Graph(n, [e for e in pairs if e not in missing])


def random_graph_at_most(rng: random.Random, n: int,
                         max_missing: int) -> Graph:
    """Random graph whose complement size is uniform in 0..max_missing,
    clamped to the number of vertex pairs."""
    return random_graph(rng, n, rng.randint(0, min(max_missing,
                                                   n * (n - 1) // 2)))


def random_chordal_graph(rng: random.Random, n: int) -> Graph:
    """Random chordal graph: each new vertex attaches to a clique of the
    current graph (possibly empty), so the insertion order reversed is a
    perfect elimination ordering."""
    adj = [set() for _ in range(n)]
    edges = []
    for v in range(1, n):
        if rng.random() < 0.15:
            continue
        clique: list[int] = []
        candidates = list(range(v))
        rng.shuffle(candidates)
        for u in candidates:
            if all(u in adj[w] for w in clique):
                clique.append(u)
                if rng.random() < 0.4:
                    break
        for u in clique:
            edges.append((u, v))
            adj[u].add(v)
            adj[v].add(u)
    return Graph(n, edges)


def removable_edges_by_retest(f: Completion, allowed=None) -> frozenset:
    """Reference for ``removable_edges``: drop each fill edge in turn (only
    those in ``allowed``, default all) and re-run the full chordality
    test."""
    if not is_chordal_completion(f):
        raise ValueError("removable_edges_by_retest requires a chordal "
                         "completion")
    fill = set(f.fill_edges)
    if allowed is not None:
        fill &= {(u, v) if u < v else (v, u) for u, v in allowed}
    return frozenset(
        e for e in fill
        if is_chordal_completion(
            Completion.from_edges(f.base, set(f.fill_edges) - {e})))


def flip_graph(g: Graph, e: tuple[int, int]) -> Graph:
    """Graph-level flip: delete edge ``e`` and turn the common neighborhood
    of its endpoints into a clique.  Preserves chordality."""
    u, v = e
    if not g.has_edge(u, v):
        raise GraphInputError(f"({u}, {v}) is not an edge of the graph")
    common = g.adj_masks[u] & g.adj_masks[v]
    members = [w for w in range(g.n) if common >> w & 1]
    edges = set(g.edges) - {(min(u, v), max(u, v))}
    edges.update(combinations(members, 2))
    return Graph(g.n, edges)


def greedy_reduce_by_retest(g: Graph, fill, candidates) -> list:
    """Reference for the greedy reduction: starting from ``g`` plus
    ``fill``, repeatedly drop the first edge of ``candidates`` in the ground
    (sorted non-edge) order whose removal leaves the graph chordal under
    ``networkx.is_chordal``.  Returns the dropped edges in drop order."""
    h = to_networkx(g)
    h.add_edges_from(fill)
    remaining = sorted(candidates)
    dropped = []
    while True:
        for e in remaining:
            h.remove_edge(*e)
            if nx.is_chordal(h):
                break
            h.add_edge(*e)
        else:
            return dropped
        remaining.remove(e)
        dropped.append(e)


def clique_removable(rows: list, u: int, v: int) -> bool:
    """Whether edge (u, v) of the adjacency ``rows`` has a clique as its
    endpoints' common neighborhood, so that deleting it keeps a chordal
    graph chordal: every common neighbor sees every other one."""
    common = rows[u] & rows[v]
    return all(common & ~rows[w] == 1 << w
               for w in range(len(rows)) if common >> w & 1)


def greedy_reduce_by_clique_test(rows: list, ne, candidates: int) -> list:
    """Reference for the greedy-deletion kernel: each round tests every
    remaining candidate (bit i of ``candidates`` names the pair ``ne[i]``)
    afresh, smallest index first, with no pair skipped and no cover, and
    deletes the first that ``clique_removable`` accepts from ``rows``, in
    place.  Returns the deleted indices in order."""
    remaining = [i for i in range(len(ne)) if candidates >> i & 1]
    dropped = []
    while True:
        i = next((i for i in remaining if clique_removable(rows, *ne[i])),
                 None)
        if i is None:
            return dropped
        u, v = ne[i]
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        remaining.remove(i)
        dropped.append(i)


def children_by_step_reference(system: SetSystem, f) -> list:
    """Reference for ``children``, deciding each candidate by solutions, not
    positions: the candidate at position j is a child of ``f`` when no
    smaller position produces it, the canonical step out of ``f`` toward it
    lands on it, and ``f`` lies on its canonical path."""
    out = []
    for j in range(system.neighbor_count(f)):
        cand = system.neighbor_at(f, j)
        if cand == system.root or cand == f:
            continue
        if any(system.neighbor_at(f, k) == cand for k in range(j)):
            continue
        if (next_toward(system, f, cand) == cand
                and f in canonical_path(system, cand)):
            out.append(cand)
    return out


def minimal_sets_by_subset_sweep(g: Graph) -> set[frozenset]:
    """Second, independent brute force: all chordal fill sets, filtered to
    the inclusion-minimal ones, with chordality checked through networkx."""
    pairs = [e for e in all_pairs(g.n) if e not in g.edges]
    chordal_masks = []
    for size in range(len(pairs) + 1):
        for combo in combinations(range(len(pairs)), size):
            h = to_networkx(g)
            h.add_edges_from(pairs[i] for i in combo)
            if nx.is_chordal(h):
                chordal_masks.append(frozenset(combo))
    minimal = [s for s in chordal_masks
               if not any(t < s for t in chordal_masks)]
    return {frozenset(pairs[i] for i in s) for s in minimal}


def subset_swap_system(m: int, k: int,
                       with_filter: bool = False) -> SetSystem:
    """Solutions are the k-element subsets of range(m); a neighbor swaps one
    member for one non-member.  The ordering of a subset is its ascending
    sort, the root is the first k naturals, and no specialized next step is
    supplied, so the engine's generic fallback drives everything."""
    universe = list(range(m))

    def neighbor_count(f: frozenset) -> int:
        return k * (m - k)

    def swap_at(f: frozenset, j: int) -> tuple[int, int]:
        inside = sorted(f)
        outside = [u for u in universe if u not in f]
        return inside[j // len(outside)], outside[j % len(outside)]

    def neighbor_at(f: frozenset, j: int) -> frozenset:
        x, u = swap_at(f, j)
        return (f - {x}) | {u}

    def ordering(f: frozenset) -> tuple[int, ...]:
        return tuple(sorted(f))

    def proximity(f: frozenset, order: tuple[int, ...], start: int = 0) -> int:
        i = start
        for pos in range(start, len(order)):
            if order[pos] not in f:
                break
            i += 1
        return i

    def solution_key(f: frozenset) -> tuple[int, ...]:
        return tuple(sorted(f))

    def producing_positions(f: frozenset, cand: frozenset,
                            j: int) -> list[int]:
        # A swap of x for u produces cand only if cand lacks x and holds u.
        return [p for p in range(j)
                if (swap := swap_at(f, p))[0] not in cand and swap[1] in cand]

    return SetSystem(root=frozenset(range(k)),
                     neighbor_count=neighbor_count,
                     neighbor_at=neighbor_at,
                     ordering=ordering,
                     proximity=proximity,
                     solution_key=solution_key,
                     producing_positions=(producing_positions if with_filter
                                          else None))


def first_position_by_scan(system: SetSystem, f, cand, j: int) -> int:
    """Reference for the owner scan: the smallest position below ``j``
    whose neighbor is ``cand``, every position evaluated, else ``j``."""
    return next((k for k in range(j) if system.neighbor_at(f, k) == cand), j)
