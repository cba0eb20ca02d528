"""Completion arithmetic: reduction, removal orders, proximity, flips."""

from __future__ import annotations

import random

import pytest

import chordalenum.completions
from chordalenum.completions import RemovalTrace
import helpers
from chordalenum import (Completion, Graph, GraphInputError,
                         chordal_completion_system, flip, is_chordal,
                         is_chordal_completion, is_minimal,
                         minimal_completion_root, non_edges, proximity, prune,
                         removable_edges, removal_order, successor,
                         visited_set_search)
from helpers import flip_graph, removable_edges_by_retest


@pytest.fixture
def c4():
    return helpers.cycle_graph(4)


@pytest.fixture
def c5():
    return helpers.cycle_graph(5)


def _random_base(rng: random.Random, n: int, max_missing: int) -> Graph:
    return helpers.random_graph(
        rng, n, rng.randint(0, min(max_missing, n * (n - 1) // 2)))


def _random_chordal_completion(rng: random.Random, n: int) -> Completion:
    """A chordal, not necessarily minimal, completion of a random base."""
    k = rng.randint(0, n * (n - 1) // 2)
    base = helpers.random_graph(rng, n, k)
    full = Completion.full(base)
    f = prune(full)
    extra = [e for e in full.fill_edges if e not in set(f.fill_edges)]
    rng.shuffle(extra)
    padded = Completion.from_edges(
        base, f.fill_edges + tuple(extra[:rng.randint(0, len(extra))]))
    return padded if is_chordal_completion(padded) else f


def test_from_edges_normalizes_and_validates(c5):
    f = Completion.from_edges(c5, [(4, 1), (2, 4)])
    assert f.fill_edges == ((1, 4), (2, 4))
    with pytest.raises(GraphInputError):
        Completion.from_edges(c5, [(0, 1)])
    with pytest.raises(GraphInputError):
        Completion.from_edges(c5, [(0, 7)])


def test_full_and_empty_completions(c5):
    full = Completion.full(c5)
    assert full.fill_edges == non_edges(c5)
    assert full.complement_edges == ()
    assert is_chordal_completion(full)
    empty = Completion.empty(c5)
    assert empty.fill_edges == ()
    assert empty.complement_edges == non_edges(c5)
    assert not is_chordal_completion(empty)


def test_fill_and_complement_partition_non_edges(c5):
    f = Completion.from_edges(c5, [(0, 2), (1, 3)])
    assert set(f.fill_edges) | set(f.complement_edges) == set(non_edges(c5))
    assert not set(f.fill_edges) & set(f.complement_edges)
    assert f.size() == 2


def test_supergraph_adds_exactly_the_fill(c5):
    f = Completion.from_edges(c5, [(1, 4), (2, 4)])
    h = f.supergraph()
    assert h.n == c5.n
    assert h.edges == c5.edges | {(1, 4), (2, 4)}
    assert is_chordal(h)


def test_completion_equality_and_hash(c5, c4):
    a = Completion.from_edges(c5, [(1, 4), (2, 4)])
    b = Completion.from_edges(c5, [(2, 4), (4, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Completion.from_edges(c5, [(1, 4)])
    assert a != Completion.from_edges(c4, [(0, 2)])


def test_removable_edges_on_five_cycle_fan(c5):
    f = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert removable_edges(f) == frozenset()
    full = Completion.full(c5)
    assert removable_edges(full) == frozenset(non_edges(c5))
    assert removable_edges(full, allowed=[(0, 2), (1, 3)]) == \
        frozenset({(0, 2), (1, 3)})


def test_removable_edges_requires_chordal_completion(c5):
    with pytest.raises(ValueError):
        removable_edges(Completion.empty(c5))
    with pytest.raises(ValueError):
        removable_edges_by_retest(Completion.empty(c5))


def test_removable_edges_matches_retest_reference():
    rng = random.Random(1729)
    for _ in range(200):
        f = _random_chordal_completion(rng, rng.randint(3, 8))
        assert removable_edges(f) == removable_edges_by_retest(f), f
        some = tuple(f.fill_edges[::2])
        assert removable_edges(f, allowed=some) == \
            removable_edges_by_retest(f, allowed=some)


def test_prune_yields_minimal_subset():
    rng = random.Random(24601)
    for _ in range(150):
        f = _random_chordal_completion(rng, rng.randint(3, 8))
        reduced = prune(f)
        assert reduced.mask & ~f.mask == 0
        assert is_minimal(reduced)
        assert prune(reduced) == reduced


def test_prune_respects_allowed_restriction(c5):
    full = Completion.full(c5)
    kept = prune(full, allowed=[(0, 2), (0, 3)])
    assert set(kept.fill_edges) >= {(1, 3), (1, 4), (2, 4)}
    assert is_chordal_completion(kept)


def test_prune_requires_chordal_completion(c4):
    with pytest.raises(ValueError):
        prune(Completion.empty(c4))


def test_is_minimal_frozen_cases(c4, c5):
    assert is_minimal(Completion.from_edges(c4, [(0, 2)]))
    assert is_minimal(Completion.from_edges(c5, [(1, 4), (2, 4)]))
    assert not is_minimal(Completion.full(c5))
    with pytest.raises(ValueError):
        is_minimal(Completion.empty(c5))


def test_minimal_completion_root_frozen_values(c4, c5):
    assert minimal_completion_root(c4).fill_edges == ((1, 3),)
    assert minimal_completion_root(c5).fill_edges == ((1, 4), (2, 4))
    tree = helpers.path_graph(6)
    assert minimal_completion_root(tree) == Completion.empty(tree)


def test_minimal_completion_root_is_the_pruned_full_completion():
    # The root reduces K_n directly; its definition, the greedy reduction of
    # the full completion, stays the reference.  The corpus holds edgeless,
    # complete and already chordal graphs as well as random ones.
    rng = random.Random(46368)
    corpus = [Graph(0), Graph(1)]
    for n in range(2, 9):
        corpus += [Graph(n), helpers.complete_graph(n), helpers.path_graph(n),
                   helpers.cycle_graph(n)]
    corpus += [helpers.random_chordal_graph(rng, rng.randint(2, 10))
               for _ in range(100)]
    corpus += [_random_base(rng, rng.randint(2, 10), 45) for _ in range(300)]
    for g in corpus:
        root = minimal_completion_root(g)
        assert root == prune(Completion.full(g))
        if is_chordal(g):
            assert root == Completion.empty(g)


def test_minimal_completion_root_builds_no_adjacency(monkeypatch):
    # The root starts from K_n, whose adjacency is known without a build,
    # and needs no chordality test: K_n is chordal and every deletion the
    # kernel makes keeps it so.
    calls = []

    def counted(*args):
        calls.append(args)
    monkeypatch.setattr(chordalenum.completions, "_filled_masks", counted)
    monkeypatch.setattr(chordalenum.completions, "_mcs_violation", counted)
    for g in (helpers.cycle_graph(7), Graph(30), helpers.complete_graph(6)):
        minimal_completion_root(g)
    assert calls == []


def test_removal_order_frozen_values(c4, c5):
    assert removal_order(Completion.from_edges(c4, [(1, 3)])) == ((0, 2),)
    assert removal_order(Completion.from_edges(c5, [(1, 4), (2, 4)])) == \
        ((0, 2), (0, 3), (1, 3))
    assert removal_order(Completion.from_edges(c5, [(1, 3), (1, 4)])) == \
        ((0, 2), (0, 3), (2, 4))


def test_removal_order_is_permutation_of_complement():
    rng = random.Random(8128)
    for _ in range(100):
        base = _random_base(rng, rng.randint(3, 8), 10)
        f = prune(Completion.full(base))
        order = removal_order(f)
        assert sorted(order) == sorted(f.complement_edges)


def test_removal_order_rejects_non_minimal_completion():
    base = Graph(3)
    padded = Completion.from_edges(base, [(0, 1)])
    assert is_chordal_completion(padded)
    with pytest.raises(ValueError, match="^removal_order requires a minimal"):
        removal_order(padded)
    hollow = Completion.empty(helpers.cycle_graph(4))
    with pytest.raises(ValueError, match="^removal_order requires a chordal"):
        removal_order(hollow)


def test_proximity_frozen_values(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    other = Completion.from_edges(c5, [(1, 3), (1, 4)])
    assert proximity(root, removal_order(other)) == 2
    assert proximity(other, removal_order(root)) == 2
    assert proximity(Completion.from_edges(c5, [(0, 2), (0, 3)]),
                     removal_order(root)) == 0


def test_proximity_of_own_order_is_full_length(c5):
    f = Completion.from_edges(c5, [(1, 4), (2, 4)])
    order = removal_order(f)
    assert proximity(f, order) == len(order)


def test_proximity_rejects_foreign_pairs(c5):
    f = Completion.from_edges(c5, [(1, 4)])
    with pytest.raises(GraphInputError):
        proximity(f, [(0, 1)])


def test_flip_frozen_value(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert flip(root, (2, 4)) == Completion.from_edges(c5, [(1, 3), (1, 4)])
    assert flip(root, (4, 2)) == flip(root, (2, 4))


def test_flip_rejects_non_fill_edge(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    with pytest.raises(GraphInputError):
        flip(root, (0, 2))
    with pytest.raises(GraphInputError):
        flip(root, (0, 1))


def test_flip_preserves_chordality():
    rng = random.Random(4181)
    for _ in range(150):
        f = _random_chordal_completion(rng, rng.randint(3, 8))
        for e in f.fill_edges:
            assert is_chordal_completion(flip(f, e)), (f, e)


def test_flip_graph_matches_completion_flip(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert flip_graph(root.supergraph(), (2, 4)) == \
        flip(root, (2, 4)).supergraph()
    with pytest.raises(GraphInputError):
        flip_graph(c5, (0, 2))


def test_flip_graph_preserves_chordality_on_random_chordal_graphs():
    rng = random.Random(2584)
    for _ in range(200):
        g = helpers.random_chordal_graph(rng, rng.randint(2, 10))
        assert is_chordal(g)
        for e in sorted(g.edges):
            assert is_chordal(flip_graph(g, e)), (g.edges, e)


def test_successor_frozen_value(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    assert successor(root, (1, 4)) == Completion.from_edges(c5, [(0, 2), (2, 4)])
    assert successor(root, (2, 4)) == Completion.from_edges(c5, [(1, 3), (1, 4)])


def test_successor_is_pruned_flip():
    rng = random.Random(6765)
    for _ in range(100):
        base = _random_base(rng, rng.randint(3, 8), 10)
        f = prune(Completion.full(base))
        for e in f.fill_edges:
            s = successor(f, e)
            assert s != f
            assert s == prune(flip(f, e))
            assert is_minimal(s)


def test_successor_rejects_non_fill_edge(c5):
    root = Completion.from_edges(c5, [(1, 4), (2, 4)])
    with pytest.raises(GraphInputError):
        successor(root, (0, 3))


def test_successor_rejects_non_chordal_completion():
    # C6 filled by 0-2 and 3-5 keeps the chordless cycle 0-2-3-5.
    f = Completion.from_edges(helpers.cycle_graph(6), [(0, 2), (3, 5)])
    assert not is_chordal_completion(f)
    with pytest.raises(ValueError, match="^successor requires") as exc:
        successor(f, (0, 2))
    assert not isinstance(exc.value, GraphInputError)
    # A bad edge is reported as such before chordality is looked at.
    with pytest.raises(GraphInputError):
        successor(f, (0, 3))


def test_successor_rejects_non_minimal_completion():
    # Both fills are chordal on the edgeless 4-vertex graph, and the empty
    # fill is already one, so {0-1, 0-2} is not minimal.
    f = Completion.from_edges(Graph(4, []), [(0, 1), (0, 2)])
    assert is_chordal_completion(f) and not is_minimal(f)
    with pytest.raises(ValueError,
                       match="^successor requires a minimal chordal completion$"
                       ) as exc:
        successor(f, (0, 1))
    assert not isinstance(exc.value, GraphInputError)
    with pytest.raises(GraphInputError):
        successor(f, (1, 2))


def test_flip_unblocks_only_pairs_at_the_flipped_edge():
    """After e = xy is flipped out of a minimal completion with filled graph
    H, every removable fill pair joins x or y to C, the common neighborhood
    of x and y in H; ``_flip`` returns exactly those fill pairs as ``near``,
    the only pairs the successor's reduction starts by testing.  Its cover
    is exactly the vertices outside C and x, which form a clique of the
    flipped rows, so every pair missing from those rows has an end in the
    cover."""
    rng = random.Random(2971)
    graphs = helpers.atlas_graphs(7) + [
        helpers.random_graph_at_most(rng, rng.randint(4, 12), 12)
        for _ in range(300)]
    flips = 0
    for g in graphs:
        ne = non_edges(g)
        for f in visited_set_search(chordal_completion_system(g)):
            rows = f.supergraph().adj_masks
            for x, y in f.fill_edges:
                c = rows[x] & rows[y]
                flipped = flip(f, (x, y))
                joins = {i for i, (a, b) in enumerate(ne)
                         if flipped.mask >> i & 1
                         and (a in (x, y) and c >> b & 1
                              or b in (x, y) and c >> a & 1)}
                assert {ne.index(p) for p in removable_edges(flipped)} <= \
                    joins, (g.edges, f, (x, y))
                i = ne.index((x, y))
                masks = list(rows)
                mask, near, cover = chordalenum.completions._flip(
                    g, masks, f.mask, i)
                assert (mask, near) == (
                    flipped.mask, sum(1 << j for j in joins)), \
                    (g.edges, f, (x, y))
                assert masks == list(flipped.supergraph().adj_masks)
                clique = c | 1 << x
                assert ~cover == clique, (g.edges, f, (x, y))
                assert not any(clique & ~masks[v] & ~(1 << v)
                               for v in range(g.n) if clique >> v & 1), \
                    (g.edges, f, (x, y))
                assert all(cover >> a & 1 or cover >> b & 1
                           for a in range(g.n) for b in range(a + 1, g.n)
                           if not masks[a] >> b & 1), (g.edges, f, (x, y))
                flips += 1
    assert flips > 6000


def test_kernel_matches_greedy_retest_reference():
    """prune, successor and removal_order against an independent greedy
    reduction that re-tests chordality with networkx after every drop, with
    no clique criterion and no skipping of stuck pairs."""
    rng = random.Random(1618)
    for _ in range(200):
        f = _random_chordal_completion(rng, rng.randint(3, 10))
        g = f.base
        fill = set(f.fill_edges)
        reduced = prune(f)
        assert set(reduced.fill_edges) == \
            fill - set(helpers.greedy_reduce_by_retest(g, fill, fill)), f
        some = set(f.fill_edges[::2])
        assert set(prune(f, allowed=some).fill_edges) == \
            fill - set(helpers.greedy_reduce_by_retest(g, fill, some)), f
        for e in reduced.fill_edges:
            flipped = set(flip_graph(reduced.supergraph(), e).edges - g.edges)
            expected = flipped - set(
                helpers.greedy_reduce_by_retest(g, flipped, flipped))
            assert set(successor(reduced, e).fill_edges) == expected, (f, e)
        assert removal_order(reduced) == tuple(helpers.greedy_reduce_by_retest(
            g, non_edges(g), reduced.complement_edges)), f


def test_kernel_stopped_and_resumed_deletes_as_one_drain():
    """The greedy-deletion kernel, stopped at random stop masks and resumed
    from the state it returns, deletes what one drain deletes, in the same
    order; both equal the networkx re-test reference.  Runs start from a
    filled chordal completion (the cover holds every vertex) and from K_n
    (the empty cover), as the successor and the traces do."""
    rng = random.Random(317811)
    reduce = chordalenum.completions._reduce
    stops = resumed = 0
    for _ in range(300):
        f = _random_chordal_completion(rng, rng.randint(3, 10))
        g = f.base
        ne = non_edges(g)
        every = (1 << len(ne)) - 1
        if rng.random() < 0.5:
            start, cover, fill = f.mask, -1, f.fill_edges
            rows = chordalenum.completions._filled_masks(g, f.mask)
        else:
            start, cover, fill = every, 0, ne
            rows = chordalenum.completions._complete(g.n)
        candidates = start & rng.choice((-1, rng.getrandbits(len(ne))))
        drained = []
        rest = reduce(g, list(rows), candidates, cover, out=drained)[0]
        assert [ne[i] for i in drained] == helpers.greedy_reduce_by_retest(
            g, fill, [ne[i] for i in range(len(ne)) if candidates >> i & 1])
        assert rest == candidates & ~sum(1 << i for i in drained)
        masks = list(rows)
        state = (candidates, cover, 0)
        pieces: list[int] = []
        while True:
            stop = rng.choice((-1, 0, rng.getrandbits(len(ne))))
            before = len(pieces)
            state = reduce(g, masks, *state, stop=stop, out=pieces)
            added = pieces[before:]
            assert not any(stop >> i & 1 for i in added[:-1])
            if not added or not stop >> added[-1] & 1:
                break
            stops += 1
        assert pieces == drained and state[0] == rest
        # Stalled, the kernel returns at once, deleting nothing.
        assert reduce(g, masks, *state, out=pieces) == state
        assert pieces == drained
        resumed += len(drained) > 1
    assert stops > 200 and resumed > 100


def test_kernel_at_larger_sizes_matches_clique_test_reference():
    """The greedy-deletion kernel on random graphs with 12 to 40 vertices,
    whose ground masks span up to 25 30-bit digits, against a reference that
    re-tests every candidate each round with no pair skipped.  Runs start
    from a flipped minimal completion (the flip's cover, and the pairs
    outside ``near`` stuck, as in the successor) and from K_n
    with the complement of a minimal completion or a random subset as the
    candidates (the empty cover, as in the traces).  The
    kernel is stopped at random stop masks and resumed from the state it
    returns; after every call, each pair of the returned stuck set is a
    candidate that is not removable in the returned rows, which a resume
    relies on."""
    rng = random.Random(832040)
    reduce = chordalenum.completions._reduce
    stops = flipped = 0
    for _ in range(200):
        n = rng.randint(12, 40)
        pairs = n * (n - 1) // 2
        g = helpers.random_graph(rng, n, rng.randint(pairs // 2, pairs - n))
        ne = non_edges(g)
        f = minimal_completion_root(g)
        if f.mask and rng.random() < 0.5:
            for _ in range(rng.randint(0, 2)):
                f = successor(f, rng.choice(f.fill_edges))
            rows = chordalenum.completions._filled_masks(g, f.mask)
            i = rng.choice([i for i in range(len(ne)) if f.mask >> i & 1])
            candidates, near, cover = chordalenum.completions._flip(
                g, rows, f.mask, i)
            state = (candidates, cover, candidates & ~near)
            flipped += 1
        else:
            rows = list(chordalenum.completions._complete(n))
            # The complement of a minimal completion, as in its trace, or
            # a random subset of it or of every pair.
            candidates = rng.choice((~f.mask, -1)) & rng.choice(
                (-1, rng.getrandbits(len(ne)))) & (1 << len(ne)) - 1
            state = (candidates, 0, 0)
        expected_rows = list(rows)
        expected = helpers.greedy_reduce_by_clique_test(
            expected_rows, ne, candidates)
        pieces: list[int] = []
        while True:
            stop = 0 if rng.random() < 0.05 else rng.choice(
                (-1, rng.getrandbits(len(ne)) & rng.getrandbits(len(ne))))
            before = len(pieces)
            state = reduce(g, rows, *state, stop=stop, out=pieces)
            rest, _, stuck = state
            assert not stuck & ~rest
            assert not any(helpers.clique_removable(rows, *ne[j])
                           for j in range(len(ne)) if stuck >> j & 1)
            added = pieces[before:]
            if not added or not stop >> added[-1] & 1:
                break
            stops += 1
        assert pieces == expected and rows == expected_rows
        assert rest == candidates & ~sum(1 << j for j in expected) == stuck
    assert stops > 1200 and 80 < flipped < 120


def test_successor_reduction_with_the_flip_cover_matches_the_full_cover():
    """For every fill edge of every minimal completion of the atlas graphs
    up to 7 vertices and of seeded random graphs, the successor's reduction
    run with the cover ``_flip`` returns deletes what it deletes with every
    vertex as the cover, in the same order, and returns the same candidates
    and stuck pairs and leaves the same rows."""
    rng = random.Random(196418)
    reduce = chordalenum.completions._reduce
    graphs = helpers.atlas_graphs(7) + [
        helpers.random_graph_at_most(rng, rng.randint(4, 12), 16)
        for _ in range(300)]
    runs = deleting = 0
    for g in graphs:
        for f in visited_set_search(chordal_completion_system(g)):
            rows = chordalenum.completions._filled_masks(g, f.mask)
            for i in range(len(non_edges(g))):
                if not f.mask >> i & 1:
                    continue
                masks = list(rows)
                mask, near, cover = chordalenum.completions._flip(
                    g, masks, f.mask, i)
                results = []
                for c in (cover, -1):
                    out: list[int] = []
                    reduced = list(masks)
                    state = reduce(g, reduced, mask, c, mask & ~near,
                                   out=out)
                    results.append((state[0], state[2], out, reduced))
                assert results[0] == results[1], (g.edges, f, i)
                runs += 1
                deleting += bool(results[0][2])
    assert runs > 8000 and deleting > 5000


def test_trace_pulled_in_random_pieces_matches_one_force():
    """A removal trace pulled in random pieces, by ``prefix_against`` from
    random starts against random fills, by ``element`` and by prefix reads
    ``trace[:n]``, computes the elements one ``force`` does.  A pull that
    finds its fill hit stops there, and a prefix read at position n - 1; a
    negative n reads the whole trace.  The completions are minimal, chordal
    but not minimal, or not chordal: the last trace ends where the
    reduction stalls, which the networkx re-test reference also does."""
    rng = random.Random(514229)
    hits = 0
    for _ in range(400):
        g = helpers.random_graph_at_most(rng, rng.randint(3, 9), 12)
        ne = non_edges(g)
        sols = list(visited_set_search(chordal_completion_system(g)))
        f = rng.choice(sols + [Completion(g, rng.getrandbits(len(ne)))])
        full = RemovalTrace(f).force()
        assert [ne[i] for i in full] == helpers.greedy_reduce_by_retest(
            g, ne, f.complement_edges)
        if f in sols:
            assert tuple(ne[i] for i in full) == removal_order(f)
        trace = RemovalTrace(f)
        for _ in range(rng.randint(1, 8)):
            known, end = len(trace._seq), len(full)
            n = rng.randint(-2, len(full) + 1)
            read = rng.random() < 0.3
            if rng.random() < 0.6:
                fill = rng.choice([s.mask for s in sols]
                                  + [rng.getrandbits(len(ne))])
                start = rng.randint(0, end)
                i = trace.prefix_against(fill, start)
                assert i == next((p for p in range(start, end)
                                  if fill >> full[p] & 1), end)
                if known <= i < end:
                    assert len(trace._seq) == i + 1
                    hits += 1
            else:
                pos = rng.randint(0, len(full) + 1)
                assert trace.element(pos) == (full[pos] if pos < end
                                              else None)
                if pos < end:
                    assert len(trace._seq) == max(known, pos + 1)
            if read:
                known = len(trace._seq)
                assert trace[:n] == full[:n]
                assert len(trace._seq) == (end if n < 0
                                           else max(known, min(n, end)))
            assert len(trace._seq) <= max(known, end)
            assert trace._seq == list(full[:len(trace._seq)])
        assert trace.force() == full
    assert hits > 50


def test_negative_trace_positions_raise_index_error():
    # A negative position must not read the trace from the end of the
    # elements computed so far: C6's root trace is (0, 1, 2, 3, 4, 6), and
    # after element(3) the list so far ends at 3, not at the trace's 6.
    # The trace is fresh, or holds its first four elements.
    c6 = helpers.cycle_graph(6)
    root = minimal_completion_root(c6)
    for computed in (0, 4):
        trace = RemovalTrace(root)
        if computed:
            assert trace.element(computed - 1) == 3
        for call in (trace.element,
                     lambda p: trace.prefix_against(root.mask, p)):
            for pos in (-1, -2):
                with pytest.raises(IndexError, match=rf"^removal trace "
                                                     rf"position {pos} is "
                                                     r"negative$"):
                    call(pos)
        assert trace.force() == (0, 1, 2, 3, 4, 6)
