"""Generic reverse-search enumeration over proximity-searchable set systems.

The engine walks a spanning arborescence over the solutions of a set system
without storing it.  The arborescence is defined by canonical-path
reconstruction: each solution carries a canonical ordering of its elements,
a proximity measure says how far along that ordering another solution
agrees, and a step position names the neighbor that moves strictly closer
to any target.  The parent of a solution is the last stop before it on the
canonical path from the root; children are recomputed on demand, so the
traversal retains only a constant number of solutions at a time: the
current node, the candidate child or a walk probe, and the held parent.

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
backtrack, in every system, returns to the held parent or replays the
parent's chain (``_replay``), reading no ordering, so no ordering is
carried from node to node.  Where the system has a ``step_position``, its
path record is a path of proven steps to it, which the child test follows
along the candidate's ordering (``_follow``), walking from the root only
when that leaves a step open; a backtrack gives the parent its chain as
its record.  Without one, an entry holds only the step's position.
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
    traversal held at once in its named slots (current node, candidate
    child or walk probe, held parent); the visited-set baseline counts its
    whole visited set instead.  ``record_verdicts`` counts the child tests
    that a path record settled instead of a check walk, so ``check_walks +
    record_verdicts`` is the number that reached the path test, and
    ``held_backtracks`` the backtracks to a held parent, which take no
    walk, so ``backtrack_walks + held_backtracks`` is the number of
    backtracks.  Neither costs a successor call, so neither is a work
    counter, and ``as_dict`` leaves them out.  Every backtrack walk is a
    replay of the ancestor chain, which builds no ordering, so
    ``orderings`` counts exactly the child tests' orderings.  With
    ``record_gaps`` the per-emission deltas of the work counters are kept
    in ``gap_<counter>`` lists, which is what the delay-structure
    assertions read.
    """

    __slots__ = ("solutions", *_COUNTERS, "record_verdicts",
                 "held_backtracks", "peak_retained", "record_gaps",
                 *("gap_" + c for c in _COUNTERS), "_last")

    def __init__(self, record_gaps: bool = False) -> None:
        self.solutions = self.peak_retained = self.record_verdicts = 0
        self.held_backtracks = 0
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
        del nb  # not held while the next neighbor is computed
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
                    stats: TraversalStats, held: list) -> int:
    """The smallest neighbor position of ``f`` producing ``cand``, given
    that position ``j`` produces it.  Only the positions that the system's
    ``producing_positions`` names are evaluated (every position below ``j``
    without it), and the first evaluation drops the held parent, whose slot
    it takes."""
    producing = system.producing_positions
    for k in range(j) if producing is None else producing(f, cand, j):
        held.clear()
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
              record: Optional[list], held: list
              ) -> Optional[tuple[Any, list]]:
    """The neighbor of ``f`` at position ``j`` with its path record if it is
    a child of ``f`` in the arborescence owned by that position, else None.
    ``held`` is the traversal's held parent, if any: a test that needs its
    slot drops it.  The candidate's ordering is built here and dropped.

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
    more than ``i_f``, so the walk needs no candidate in hand.  With a
    parent held, it gives up the candidate's slot and recomputes a child it
    finds.  A child found by the
    walk takes the walk's steps as its record (``_walked_record``).  In a
    system without ``step_position`` a child's record is the one entry of
    its tree edge, ``(0, None, k)``, which only the ancestor chain reads.
    """
    stats.neighbor_evals += 1
    cand = system.neighbor_at(f, j)
    stats.note_retained(2 + bool(held))
    if cand == system.root or cand == f:
        return None
    order = system.ordering(cand)
    stats.orderings += 1
    i_f = system.proximity(f, order, 0)
    if system.step_position is None:
        held.clear()  # the fallback evaluates every neighbor of f
    k = _step_position(system, f, order, i_f)
    if k < j:
        return None
    if k > j:
        held.clear()
        stats.neighbor_evals += 1
        stats.note_retained(3)
        if system.neighbor_at(f, k) != cand:
            return None
    if _first_position(system, f, cand, j, stats, held) < j:
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
    cand = None if held else cand
    proximities, positions = [], []
    for probe, i, step in _path(system, system.root, None, order, stats):
        if step is not None:
            positions.append(step)
        if probe == f:
            break
        if i >= i_f:
            return None
        proximities.append(i)
    if cand is None:
        stats.neighbor_evals += 1
        cand = system.neighbor_at(f, j)
    return cand, ([(0, None, k)] if head is None else _walked_record(
        zip(proximities, positions), head, k))


def _children(system: SetSystem, f: Any, j: int, stats: TraversalStats,
              record: Optional[list], held: list
              ) -> Iterator[tuple[int, Any, list]]:
    """The children of ``f`` at neighbor position ``j`` or later, in scan
    order, each as its position, the child and its path record, given
    ``f``'s ``record`` and the held parent (see ``_is_child``).  The root
    is never anyone's child."""
    for j in range(j, system.neighbor_count(f)):
        found = _is_child(system, f, j, stats, record, held)
        if found is not None:
            yield (j, *found)


def children(system: SetSystem, f: Any) -> list:
    """The children of ``f`` in the arborescence, in scan order; a child
    appears once, at the smallest neighbor position producing it."""
    return [c for _, c, _ in _children(system, f, 0, TraversalStats(), None,
                                       [])]


def _replay(system: SetSystem, chain: list, held: list,
            stats: TraversalStats) -> Any:
    """The node whose ancestor chain is ``chain``: the probe that the
    chain's steps reach from the root by ``neighbor_at`` at their
    positions, reading no ordering.  The probe before it, its parent,
    becomes the held parent, its owner still to be found."""
    probe = system.root
    for _, _, k in chain:
        held[:] = probe, None
        probe = system.neighbor_at(probe, k)
        stats.walk_steps += 1
    return probe


def _backtrack(system: SetSystem, node: Any, chain: list, held: list,
               stats: TraversalStats) -> tuple[Any, int, list]:
    """The parent of ``node``, the scan position that resumes it (one past
    the position owning ``node``) and the parent's path record.

    ``chain`` is ``node``'s ancestor chain, one entry per tree edge from
    the root; its last entry is popped and the rest, the parent's chain, is
    the parent's record.  A held parent takes no walk; else the parent's
    chain is replayed (``_replay``), which holds the grandparent.  Replay
    is sound in every system: the chain's positions are canonical step
    positions and ``neighbor_at`` is deterministic in its position.  The
    owner of ``node`` is the descent's scan position when the parent was
    held by it, else found below the popped step's position, which
    produces ``node``.
    """
    bound = chain.pop()[2]
    if held:
        stats.held_backtracks += 1
        up, owner = held
        held.clear()
    else:
        stats.backtrack_walks += 1
        stats.note_retained(3)
        up, owner = _replay(system, chain, held, stats), None
    if owner is None:
        owner = _first_position(system, up, node, bound, stats, held)
    return up, owner + 1, chain


def reverse_search(system: SetSystem,
                   stats: Optional[TraversalStats] = None) -> Iterator[Any]:
    """Enumerate every solution exactly once, depth first, without a visited
    set.

    Solutions at even depth are emitted on entry and solutions at odd depth
    on exit from their subtree, which bounds the work between consecutive
    emissions by a constant number of children scans and backtracking parent
    recomputations.  At any instant at most three solutions are retained:
    the current node, the candidate child under test or the probe of a
    walk, and the held parent.

    The traversal's whole state is the current node, its depth parity, the
    neighbor position its scan resumes at, its path record and ancestor
    chain and the held parent; no ordering is carried from node to node.
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

    A descent holds the node it leaves, with the descent's position as its
    owner, and a chain replay holds the parent's parent; a backtrack to a
    held parent takes no walk, and every other backtrack replays the chain
    (see ``_backtrack``), so no backtrack walks toward an ordering.  A
    child test that must evaluate a third solution drops the held parent
    first, and a check walk gives up the candidate instead.  Each step
    takes one child from a fresh scan and drops the scan: a scan held per
    level would be a stack of solutions.
    """
    if stats is None:
        stats = TraversalStats()
    current, odd, j = system.root, False, 0
    chain = record = []  # the root's record and chain are both empty
    held = []  # the held parent and its owner position, or None
    stats.note_retained(1)
    stats.note_emission()
    yield current

    while True:
        found = next(_children(system, current, j, stats, record, held),
                     None)
        if found is not None:
            held[:] = current, found[0]
            _, current, record = found
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
        current, j, record = _backtrack(system, current, chain, held, stats)
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


def _fill_index_at(mask: int, j: int) -> int:
    """Index of the (j+1)-th lowest set bit of ``mask``; IndexError when j
    is not in ``range(mask.bit_count())``."""
    rest = mask
    for _ in range(j):
        rest &= rest - 1
    if not rest or j < 0:
        raise IndexError(f"neighbor position {j} is not in "
                         f"range({mask.bit_count()})")
    return (rest & -rest).bit_length() - 1


def chordal_completion_system(g: Graph) -> SetSystem:
    """The minimal-chordal-completion instance over ``g``.

    Solutions are minimal chordal completions; neighbor position j flips the
    (j+1)-th fill edge and reduces.  The ordering of a solution is the
    canonical removal trace of its complement.  The step position is the
    rank, among the fill edges, of the ordering element right after the
    matched prefix; the engine steps by ``neighbor_at`` at that position.

    A neighbor evaluation is one stored entry and one call of each kernel,
    ``_flip`` then ``_reduce``, which starts from the ``near`` pairs and the
    cover that ``_flip`` returns, so its clique tests skip the clique the flip
    leaves.  An entry holds a fill mask and its filled adjacency as a list.
    The system builds the root's entry at set-up and keeps two more, those of
    the other masks used last: a scan flips one node's fill edges in turn,
    walks restart at the root, and the kernel ends holding its result's
    adjacency, which becomes the newest entry and the next probe of a walk.  An
    entry built from its mask also holds the list of its fill indices, so a
    scan reads position j in one step; a kernel result's entry, which a walk
    uses once, holds none, and a call on it walks j bits.  The kernels edit a
    copy, never an entry, so traversals interleaved over one system get the
    same answers.
    """
    ground = len(non_edges(g))
    root = minimal_completion_root(g)
    root_mask = root.mask
    root_entry = [root_mask, _filled_masks(g, root_mask),
                  list(_iter_bits(root_mask))]
    # Two more entries, least recently used first; the root's holds their
    # places until other masks are used.
    recent = [root_entry, root_entry]

    def neighbor_at(f: Completion, j: int) -> Completion:
        mask = f.mask
        entry = root_entry if mask == root_mask else recent[1]
        if entry[0] != mask:  # the older entry or a new one becomes newest
            entry = recent[0] if recent[0][0] == mask else [
                mask, _filled_masks(g, mask), list(_iter_bits(mask))]
            recent[:] = recent[1], entry
        fills = entry[2]  # None in a kernel result's entry
        i = (fills[j] if fills and 0 <= j < len(fills)
             else _fill_index_at(mask, j))
        masks = list(entry[1])
        flipped, near, cover = _flip(g, masks, mask, i)
        result = _reduce(g, masks, flipped, cover, flipped & ~near)[0]
        if result != root_mask and recent[1][0] != result:
            recent[:] = recent[1], (recent[0] if recent[0][0] == result
                                    else [result, masks, None])
        return Completion(g, result)

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
                     neighbor_at=neighbor_at, ordering=RemovalTrace,
                     proximity=prox, solution_key=solution_key,
                     step_position=step_position,
                     producing_positions=producing_positions)
