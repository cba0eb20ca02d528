"""Generic reverse-search enumeration over proximity-searchable set systems.

The engine walks a spanning arborescence over the solutions of a set system
without storing it.  The arborescence is defined by canonical-path
reconstruction: each solution carries a canonical ordering of its elements,
a proximity measure says how far along that ordering another solution
agrees, and a step position names the neighbor that moves strictly closer
to any target.  The parent of a solution is the last stop before it on the
canonical path from the root; children are recomputed on demand, so the
traversal retains only a constant number of solutions at a time: the
current node, the candidate child, and one neighbor or walk probe.

The canonical walk is written once, in ``_path``: ``canonical_path``,
``next_toward``, ``parent`` and the child test's check walk all read from
it.  The neighbor scan is written once, in the generator
``_children``: ``children`` reads all of it, and ``reverse_search`` takes
one child at a time from a fresh scan.

Solutions must be hashable and comparable with ``==``.  Orderings are
tuples of ground elements, or objects that the system's own proximity and
step understand (the chordal instance's removal trace, which a proximity
query grows in one call up to the first element inside the probe's fill);
``order[:n]`` gives the first n elements as a tuple.

``reverse_search`` also keeps two lists of O(depth) ints for its current
node, with one entry per step from the root: a bitmask of elements outside
that probe's set, the ordering element the step flips and the step's
neighbor position.  Its ancestor chain has one entry per tree edge: every
backtrack, in every system, replays the parent's chain (``_backtrack``),
reading no ordering, so no ordering is carried from node to node.  Where
the system has a ``step_position``, its path record is a path of proven
steps to it, which the child test follows along the candidate's ordering
(``_follow``), walking from the root only when that leaves a step open; a
backtrack gives the parent its chain as its record.  Without one, an entry
holds only the step's position.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import (Any, Callable, Iterable, Iterator, Optional, Sequence,
                    Union)

from .completions import (Completion, RemovalTrace, _filled_masks, _flip,
                          _reduce, minimal_completion_root)
from .graph import Graph, _iter_bits, non_edges


class ProximitySearchError(RuntimeError):
    """A canonical walk could not step: the set system is not proximity
    searchable (or has a bug), or the walk's target is not a solution of the
    system, such as a chordal completion that is not minimal."""


@dataclass(frozen=True)
class SetSystem:
    """Callable description of one enumeration problem.

    ``neighbor_at(f, j)`` must be deterministic in ``j`` for fixed ``f``; the
    scan order over ``j`` is what fixes which neighbor owns a child that can
    be produced several ways.  ``ordering(f)`` returns whatever ordering
    this system's own ``proximity`` and ``step_position`` understand (a
    tuple, or a lazily grown trace); ``order[:n]`` gives its first n
    elements as a tuple.
    ``proximity(f, order, start)`` may assume the first ``start`` ordering
    elements already matched and resume there.

    ``step_position(f, order, i)`` receives the precomputed proximity ``i``
    of ``f`` toward a target whose ordering is ``order`` and returns the
    neighbor position the canonical step takes; the child test compares that
    position with the scan position before it computes any solution.  Every
    step is ``neighbor_at`` at that position.  Without ``step_position`` a
    generic fallback picks the first position of the ``solution_key``-smallest
    neighbor strictly closer to the target (it evaluates every neighbor per
    step, which the specialized position avoids).
    ``producing_positions(f, cand, j)``, when given, returns in increasing
    order the positions below ``j`` that may produce ``cand``; the owner
    scan evaluates only those instead of every position below ``j``.  It is
    only an optimization and must name every position below ``j`` that does
    produce ``cand``.

    With ``step_position`` the child test may decide from the scanning
    node's path record instead of a walk (see ``_follow``), which takes
    three properties of the system: ``proximity(f, order, start)`` is the
    first position at or after ``start`` whose element lies in ``f``'s set
    (the chordal system's fill), or the length; the step out of ``f`` at
    proximity ``i`` reads the ordering only at position ``i`` (the chordal
    step flips the fill edge ``order.element(i)``, at its rank in the
    fill); and ordering elements are ints, which the bitmasks use as bit
    positions.  The bitmasks also rest on proximity search itself: as
    proximity strictly increases along a canonical path, every element
    before a probe's proximity lies outside that probe's set.  A record
    entry is ``(outside, s, k)``: the bitmask, the flipped element and the
    step's neighbor position.  A record need not be a canonical path, as the
    verdicts hold along any path of such steps.  Canonical paths are not
    closed under prefixes: on a child's record, the probe before the parent
    need not be the parent's parent.  So the traversal also keeps the
    ancestor chain, one entry per tree edge, which its backtracks replay.

    The engine reads neither ``next_step`` nor ``position_excludes``.  The
    fields stay only because ``perfbench/tracing.py`` wraps them by name;
    they go when the tracer tags ``neighbor_at`` calls by call site instead
    (ROADMAP item 3).
    """

    root: Any
    neighbor_count: Callable[[Any], int]
    neighbor_at: Callable[[Any, int], Any]
    ordering: Callable[[Any], Any]
    proximity: Callable[[Any, Any, int], int]
    solution_key: Callable[[Any], tuple]
    next_step: Optional[Callable[[Any, Any, Any, int], Any]] = None
    position_excludes: Optional[Callable[[Any, int, Any], bool]] = None
    step_position: Optional[Callable[[Any, Any, int], int]] = None
    producing_positions: Optional[
        Callable[[Any, Any, int], Iterable[int]]] = None


_COUNTERS = ("neighbor_evals", "orderings", "check_walks", "backtrack_walks",
             "walk_steps")


class TraversalStats:
    """Work and memory counters for one traversal.

    ``solutions`` counts emissions, and each name in ``_COUNTERS`` is a work
    counter.  ``peak_retained`` tracks the largest number of solutions the
    traversal retained at once in its named slots (the current node, the
    candidate child or a replay probe, and one neighbor or walk probe); the
    visited-set baseline counts its whole visited set instead.
    ``record_verdicts`` counts the child tests that a path record settled
    instead of a check walk, so ``check_walks + record_verdicts`` is the
    number that reached the path test; it costs no successor call, so it
    is not a work counter, and ``as_dict`` leaves it out.  Every backtrack
    is a walk, a replay of the ancestor chain, which builds no ordering, so
    ``orderings`` counts exactly the child tests' orderings.  With
    ``record_gaps`` the per-emission deltas of the work counters are kept
    in ``gap_<counter>`` lists, which is what the delay-structure
    assertions read.
    """

    __slots__ = ("solutions", *_COUNTERS, "record_verdicts",
                 "peak_retained", "record_gaps",
                 *("gap_" + c for c in _COUNTERS), "_last")

    def __init__(self, record_gaps: bool = False) -> None:
        self.solutions = self.peak_retained = self.record_verdicts = 0
        for c in _COUNTERS:
            setattr(self, c, 0)
            setattr(self, "gap_" + c, [])
        self.record_gaps = record_gaps
        self._last = (0,) * len(_COUNTERS)

    def note_retained(self, count: int) -> None:
        if count > self.peak_retained:
            self.peak_retained = count

    def note_emission(self) -> None:
        self.solutions += 1
        if self.record_gaps:
            now = tuple(getattr(self, c) for c in _COUNTERS)
            for c, a, b in zip(_COUNTERS, now, self._last):
                getattr(self, "gap_" + c).append(a - b)
            self._last = now

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name)
                for name in ("solutions", *_COUNTERS, "peak_retained")}


def _step_position(system: SetSystem, f: Any, order: Sequence,
                   i: int) -> int:
    """The neighbor position of the canonical step out of ``f``, whose
    proximity toward the target ordered by ``order`` is ``i``: the system's
    own ``step_position`` when it has one, else the first position of the
    ``solution_key``-smallest neighbor strictly closer to the target."""
    if system.step_position is not None:
        return system.step_position(f, order, i)
    best = None
    best_key = None
    for j in range(system.neighbor_count(f)):
        nb = system.neighbor_at(f, j)
        if system.proximity(nb, order, 0) > i:
            key = system.solution_key(nb)
            if best is None or key < best_key:
                best, best_key = j, key
        del nb  # dropped before the next neighbor is computed
    if best is None:
        raise ProximitySearchError(
            "no neighbor is closer to the target; the system is not "
            "proximity searchable")
    return best


def _path(system: SetSystem, start: Any, target: Any, order: Sequence,
          stats: TraversalStats) -> Iterator[tuple]:
    """The canonical path from ``start`` to ``target`` (whose ordering is
    ``order``), one ``(probe, i, k)`` at a time: the probe, its proximity
    ``i`` toward the target, and the neighbor position ``k`` of the step
    that reached it.

    ``k`` is None at ``start`` only: every step is ``neighbor_at`` at the
    step position, computed once per step.  ``i`` is None at the target,
    whose proximity is never computed; the check walk passes no target
    (None) and stops reading on its own.  The step out of a probe is
    taken only when the caller asks for the next item, and the proximity
    scan resumes where the previous probe's stopped, since proximity
    strictly increases along the path.
    """
    probe, i, k = start, -1, None
    while probe != target:
        i = system.proximity(probe, order, i + 1)
        yield probe, i, k
        k = _step_position(system, probe, order, i)
        probe = system.neighbor_at(probe, k)
        stats.walk_steps += 1
    yield probe, None, k


def next_toward(system: SetSystem, f: Any, target: Any) -> Any:
    """The canonical next solution after ``f`` on the way to ``target``.

    The result is a neighbor of ``f`` strictly closer to ``target`` under
    the proximity measure.
    """
    if f == target:
        raise ValueError("next_toward needs two distinct solutions")
    walk = _path(system, f, target, system.ordering(target), TraversalStats())
    next(walk)
    return next(walk)[0]


def canonical_path(system: SetSystem, target: Any) -> list:
    """The canonical path from the root to ``target``, both ends included."""
    return [probe for probe, _, _ in _path(
        system, system.root, target, system.ordering(target),
        TraversalStats())]


def parent(system: SetSystem, f: Any) -> Any:
    """The next-to-last solution on the canonical path to ``f``, from a walk
    that holds one probe at a time."""
    if f == system.root:
        raise ValueError("the root solution has no parent")
    return deque(_path(system, system.root, f, system.ordering(f),
                       TraversalStats()), maxlen=2)[0][0]


def _first_position(system: SetSystem, f: Any, cand: Any, j: int,
                    stats: TraversalStats) -> int:
    """The smallest neighbor position of ``f`` producing ``cand``, given
    that position ``j`` produces it.  Only the positions that the system's
    ``producing_positions`` names are evaluated (every position below ``j``
    without it)."""
    producing = system.producing_positions
    for k in range(j) if producing is None else producing(f, cand, j):
        stats.neighbor_evals += 1
        stats.note_retained(3)
        if system.neighbor_at(f, k) == cand:
            return k
    return j


def _prefix_mask(head: Sequence, start: int, stop: int, mask: int) -> int:
    """``mask`` with the elements ``head[start:stop]`` set as bits."""
    for e in head[start:stop]:
        mask |= 1 << e
    return mask


def _follow(record: list, head: Sequence, k: int) -> Union[list, bool, None]:
    """Follow the path record of the scanning node f along ``head``, the
    ordering of a candidate cut after position ``i_f = len(head) - 1``, f's
    proximity toward it; ``k`` is the position of f's step toward it.

    The record is a path of steps from the root to f, canonical or not: a
    descent gives f its canonical path, a backtrack its ancestor chain.  A
    step ``(outside, s, k_t)`` leaves its probe by flipping element ``s``,
    at neighbor position ``k_t``, and the bits of ``outside`` lie outside
    the probe's set.  At each probe the root walk toward the candidate
    scans ``head`` on from the position its last step flipped (see
    ``SetSystem`` for what that takes): skipping bits of ``outside`` and
    meeting ``s`` proves that it takes the same step; reaching ``i_f``
    first proves that it stops at that probe, short of f; any other element
    leaves the step open.  Returns False when the walk stops short, None
    when a step is open, and else the candidate's record: the steps
    followed, each widened by the elements scanned before it (they lie
    outside the probe's set, as the path is now the candidate's canonical
    path), then f's own step, which ends the candidate's canonical path.
    ``head`` holds the elements that the proximity query toward f already
    computed.
    """
    i_f = len(head) - 1
    steps, seen, pos = [], 0, 0
    for outside, s, k_t in record:
        while pos < i_f and (e := head[pos]) != s:
            if not outside >> e & 1:
                return None
            seen |= 1 << e
            pos += 1
        if pos == i_f:
            return False
        steps.append((outside | seen, s, k_t))
        seen |= 1 << s
        pos += 1
    steps.append((_prefix_mask(head, pos, i_f, seen), head[i_f], k))
    return steps


def _walked_record(walk: Iterable, head: Sequence, k: int) -> list:
    """The path record of a child from its check walk, which reached the
    scanning node f: ``walk`` holds each probe's proximity and the position
    of the step out of it but the last, ``head`` the child's ordering up to
    f's proximity and ``k`` the position of f's step to the child."""
    steps, seen, pos = [], 0, 0
    for i, k_t in walk:
        seen, pos = _prefix_mask(head, pos, i, seen), i
        steps.append((seen, head[i], k_t))
    steps.append((_prefix_mask(head, pos, len(head) - 1, seen), head[-1], k))
    return steps


def _is_child(system: SetSystem, f: Any, j: int, stats: TraversalStats,
              record: Optional[list]) -> Optional[tuple[Any, list]]:
    """The neighbor of ``f`` at position ``j`` with its path record if it is
    a child of ``f`` in the arborescence owned by that position, else None.
    The candidate's ordering is built here and dropped.

    ``f`` is the parent iff the canonical step out of ``f`` toward the
    candidate lands on it and ``f`` lies on the canonical path; position
    ``j`` owns the child iff no smaller position produces it.  The step
    takes position ``k``: below ``j`` it either misses the candidate or
    produces it earlier, so the answer is no; at ``j`` it lands by
    construction; above ``j`` one neighbor evaluation settles it.  Only a
    landing step pays for the first-occurrence scan and the path test.

    In a system with a ``step_position`` the path test follows ``record``,
    ``f``'s path record (see ``_follow``), and walks from the root only
    when a step stays open or ``f`` has no record; without one it always
    walks.  The check walk stops on meeting ``f`` or on reaching a probe
    whose proximity is ``i_f``, f's own, or more, since proximity strictly
    increases along the path; the candidate's is the ordering's length,
    more than ``i_f``, so the walk passes no target.  A child found by the
    walk takes the walk's steps as its record (``_walked_record``).  In a
    system without ``step_position`` a child's record is the one entry of
    its tree edge, ``(0, None, k)``, which only the ancestor chain reads.
    """
    stats.neighbor_evals += 1
    cand = system.neighbor_at(f, j)
    stats.note_retained(2)
    if cand == system.root or cand == f:
        return None
    order = system.ordering(cand)
    stats.orderings += 1
    i_f = system.proximity(f, order, 0)
    k = _step_position(system, f, order, i_f)
    if k < j:
        return None
    if k > j:
        stats.neighbor_evals += 1
        stats.note_retained(3)
        if system.neighbor_at(f, k) != cand:
            return None
    if _first_position(system, f, cand, j, stats) < j:
        return None
    # Only a system with a step_position has records to follow.
    head = None if system.step_position is None else order[:i_f + 1]
    if head is not None and record is not None:
        steps = _follow(record, head, k)
        if steps is not None:
            stats.record_verdicts += 1
            return (cand, steps) if steps else None
    stats.check_walks += 1
    stats.note_retained(3)
    proximities, positions = [], []
    for probe, i, step in _path(system, system.root, None, order, stats):
        if step is not None:
            positions.append(step)
        if probe == f:
            break
        if i >= i_f:
            return None
        proximities.append(i)
    return cand, ([(0, None, k)] if head is None else _walked_record(
        zip(proximities, positions), head, k))


def _children(system: SetSystem, f: Any, j: int, stats: TraversalStats,
              record: Optional[list]) -> Iterator[tuple[Any, list]]:
    """The children of ``f`` at neighbor position ``j`` or later, in scan
    order, each with its path record, given ``f``'s ``record`` (see
    ``_is_child``).  The root is never anyone's child."""
    for j in range(j, system.neighbor_count(f)):
        found = _is_child(system, f, j, stats, record)
        if found is not None:
            yield found


def children(system: SetSystem, f: Any) -> list:
    """The children of ``f`` in the arborescence, in scan order; a child
    appears once, at the smallest neighbor position producing it."""
    return [c for c, _ in _children(system, f, 0, TraversalStats(), None)]


def _backtrack(system: SetSystem, node: Any, chain: list,
               stats: TraversalStats) -> tuple[Any, int, list]:
    """The parent of ``node``, the scan position that resumes it (one past
    the position owning ``node``) and the parent's path record.

    ``chain`` is ``node``'s ancestor chain, one entry per tree edge from
    the root; its last entry is popped and the rest, the parent's chain, is
    the parent's record.  The parent is the probe that the parent's chain
    reaches from the root by ``neighbor_at`` at its positions, reading no
    ordering.  Replay is sound in every system: the chain's positions are
    canonical step positions and ``neighbor_at`` is deterministic in its
    position.  The owner of ``node`` is found below the popped step's
    position, which produces ``node``.
    """
    bound = chain.pop()[2]
    stats.backtrack_walks += 1
    stats.note_retained(3)
    up = system.root
    for _, _, k in chain:
        up = system.neighbor_at(up, k)
        stats.walk_steps += 1
    return up, _first_position(system, up, node, bound, stats) + 1, chain


def reverse_search(system: SetSystem,
                   stats: Optional[TraversalStats] = None) -> Iterator[Any]:
    """Enumerate every solution exactly once, depth first, without a visited
    set.

    Solutions at even depth are emitted on entry and solutions at odd depth
    on exit from their subtree, which bounds the work between consecutive
    emissions by a constant number of children scans and backtracking parent
    recomputations.  At any instant at most three solutions are retained:
    the current node, the candidate child under test, and one neighbor or
    walk probe; a backtrack keeps the node it leaves and two probes of its
    replay.

    The traversal's whole state is the current node, its depth parity, the
    neighbor position its scan resumes at, and its path record and ancestor
    chain; no ordering is carried from node to node.
    Record and chain hold, per step from the root, a bitmask of elements
    outside that probe's fill, the ordering element the step flips and the
    step's neighbor position: O(depth) ints each (see ``_follow``; without
    a ``step_position`` an entry is ``(0, None, k)``).  The child test
    follows the record before it walks.  The root's record and chain are
    empty.  A descent gives the child the record of its canonical path and
    appends that record's last step, the tree edge to the child, to the
    chain.  A backtrack pops the
    chain and gives the parent its chain as its record: canonical paths
    are not closed under prefixes, so the child's record without its last
    step may pass the parent's parent by, while the chain never does.

    Every backtrack replays the parent's chain from the root and finds the
    owner of the node it leaves (see ``_backtrack``), so no backtrack walks
    toward an ordering and no parent is kept for one.  Each step takes one
    child from a fresh scan and drops the scan: a scan kept per level would
    be a stack of solutions.
    """
    if stats is None:
        stats = TraversalStats()
    current, odd, j = system.root, False, 0
    chain = record = []  # the root's record and chain are both empty
    stats.note_retained(1)
    stats.note_emission()
    yield current

    while True:
        found = next(_children(system, current, j, stats, record), None)
        if found is not None:
            current, record = found
            chain.append(record[-1])
            odd, j = not odd, 0
            if not odd:
                stats.note_emission()
                yield current
            continue
        # Neighbor scan exhausted: emit odd-depth nodes on the way out.
        if odd:
            stats.note_emission()
            yield current
        if current == system.root:
            return
        current, j, record = _backtrack(system, current, chain, stats)
        odd = not odd


def visited_set_search(system: SetSystem,
                       stats: Optional[TraversalStats] = None) -> Iterator[Any]:
    """Baseline enumeration: breadth-first flood over the neighbor relation
    with an explicit visited set.  Retains every solution seen."""
    if stats is None:
        stats = TraversalStats()
    seen = {system.root}
    stats.note_retained(len(seen))
    queue = deque([system.root])
    while queue:
        f = queue.popleft()
        stats.note_emission()
        yield f
        for j in range(system.neighbor_count(f)):
            stats.neighbor_evals += 1
            nb = system.neighbor_at(f, j)
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
                stats.note_retained(len(seen))


# Fill masks per generation of the chordal system's store, which holds at
# most two generations (see chordal_completion_system).  Chosen by
# measurement on the 14-vertex cubic instance (see CHANGES.md): CPU time
# falls as generations grow, by less at each doubling, while memory grows
# by about 1.3 KiB per stored mask; 128 keeps the store near 0.33 MiB.
STORE_GENERATION = 128


def chordal_completion_system(g: Graph) -> SetSystem:
    """The minimal-chordal-completion instance over ``g``.

    Solutions are minimal chordal completions; neighbor position j flips the
    (j+1)-th fill edge and reduces.  The ordering of a solution is the
    canonical removal trace of its complement.  The step position is the
    rank, among the fill edges, of the ordering element right after the
    matched prefix; the engine steps by ``neighbor_at`` at that position.

    The system keeps one store keyed by fill mask, which answers what
    reverse search asks again: check walks and chain replays step again
    through the probes near the root, and one candidate is tested from
    several nodes.  An entry is a list of the mask's neighbor masks by
    position, then its ``RemovalTrace``, its filled adjacency and the list
    of its fill indices, each None until first needed.  A trace keeps
    growing lazily across the proximity queries of every child test that
    reads it.  Entries hold ints and traces, never a ``Completion``.  The
    store is two dicts, generations of at most ``STORE_GENERATION`` masks: a
    mask used moves to the newer one, and when the newer one is full it
    becomes the older and the older is dropped.  So the store holds at most
    ``2 * STORE_GENERATION`` entries of O(m) ints each, whatever the size of
    the output; the traversal still holds at most three solutions.
    Traversals interleaved over one system, such as the two of ``verify``,
    share the store and get the same answers.

    A neighbor evaluation that the store does not answer calls each kernel
    once, ``_flip`` then ``_reduce``, on a copy of the entry's adjacency,
    which the mask's first evaluation builds; the reduction starts from the
    ``near`` pairs and the cover that ``_flip`` returns, so its clique tests
    skip the clique the flip leaves.
    """
    ground = len(non_edges(g))
    root = minimal_completion_root(g)
    newer, older = {}, {}  # the store's generations

    def stored(mask: int) -> list:
        """The entry of ``mask``, which the newer generation lacks; it
        moves there, from the older one or new."""
        nonlocal newer, older
        entry = older.pop(mask, None) or [None] * (mask.bit_count() + 3)
        if len(newer) >= STORE_GENERATION:
            older, newer = newer, {}
        newer[mask] = entry
        return entry

    def neighbor_at(f: Completion, j: int) -> Completion:
        mask = f.mask
        entry = newer.get(mask) or stored(mask)
        if not 0 <= j < len(entry) - 3:
            raise IndexError(f"neighbor position {j} is not in "
                             f"range({len(entry) - 3})")
        result = entry[j]
        if result is None:
            if entry[-1] is None:
                entry[-2:] = _filled_masks(g, mask), list(_iter_bits(mask))
            masks = list(entry[-2])
            flipped, near, cover = _flip(g, masks, mask, entry[-1][j])
            result = entry[j] = _reduce(g, masks, flipped, cover,
                                        flipped & ~near)[0]
        return Completion(g, result)

    def ordering(f: Completion) -> RemovalTrace:
        entry = newer.get(f.mask) or stored(f.mask)
        if entry[-3] is None:
            entry[-3] = RemovalTrace(f)
        return entry[-3]

    def prox(f: Completion, order: RemovalTrace, start: int = 0) -> int:
        return order.prefix_against(f.mask, start)

    def solution_key(f: Completion) -> tuple[int, ...]:
        return tuple(i for i in range(ground) if not f.mask >> i & 1)

    def step_position(f: Completion, order: RemovalTrace, i: int) -> int:
        idx = order.element(i)
        if idx is None:
            # The target's ordering ran out before the walk reached it, as
            # for a chordal completion that is not minimal.
            raise ProximitySearchError(
                "the walk's target is not a solution of this system")
        if not f.mask >> idx & 1:
            raise ProximitySearchError(
                "canonical ordering element after the matched prefix is not "
                "a fill edge; proximity searchability violated")
        # Position j flips the (j+1)-th fill edge: the rank of the edge.
        return (f.mask & ((1 << idx) - 1)).bit_count()

    def producing_positions(f: Completion, cand: Completion,
                            j: int) -> list[int]:
        # A flip by edge e never re-adds e, so only the positions of fill
        # edges that the candidate lacks can produce it: their ranks.
        ranks = ((f.mask & ((1 << e) - 1)).bit_count()
                 for e in _iter_bits(f.mask & ~cand.mask))
        return [k for k in ranks if k < j]

    return SetSystem(root=root, neighbor_count=Completion.size,
                     neighbor_at=neighbor_at, ordering=ordering,
                     proximity=prox, solution_key=solution_key,
                     step_position=step_position,
                     producing_positions=producing_positions)
