"""Generic reverse-search enumeration over proximity-searchable set systems.

The engine walks a spanning arborescence over the solutions of a set system
without storing it.  The arborescence is defined by canonical-path
reconstruction: each solution carries a canonical ordering of its elements,
a proximity measure says how far along that ordering another solution
agrees, and a step position names the neighbor that moves strictly closer
to any target.  The parent of a solution is the last stop before it on the
canonical path from the root; children are recomputed on demand, so the
traversal retains only a constant number of solutions at a time.

The canonical walk is written once, in ``_path``: ``canonical_path``,
``next_toward``, ``parent``, the backtrack and the child test's check walk
all read from it.  The neighbor scan is written once, in ``_next_child``:
``children`` and ``reverse_search`` both scan through it.

Solutions must be hashable and comparable with ``==``.  Orderings are
tuples of ground elements, or tokens that behave like them (the chordal
instance's lazily grown removal trace).  A token cut like a tuple,
``order[:n]``, is again a token: its proximity is ``min(proximity, n)`` and
it has no element at position n or later.  The parent check toward a
candidate child needs no more: its walk only steps from proximities below
``i_f``, the scanning node's, and stops on reaching ``i_f``, so it reads
``order[:i_f + 1]`` and a lazy ordering is computed no further than that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from .completions import (Completion, RemovalTrace, _filled_masks,
                          _successor_mask, minimal_completion_root)
from .graph import Graph, non_edges


class ProximitySearchError(RuntimeError):
    """A canonical walk could not step: the set system is not proximity
    searchable (or has a bug), or the walk's target is not a solution of the
    system, such as a chordal completion that is not minimal."""


@dataclass(frozen=True)
class SetSystem:
    """Callable description of one enumeration problem.

    ``neighbor_at(f, j)`` must be deterministic in ``j`` for fixed ``f``; the
    scan order over ``j`` is what fixes which neighbor owns a child that can
    be produced several ways.  ``ordering(f)`` returns whatever token this
    system's own ``proximity`` and ``step_position`` understand (a tuple, or
    a lazily grown trace).
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
    ``position_excludes(f, j, cand)``, when given, may cheaply rule out
    position j producing ``cand``; it is only an optimization and must never
    rule out a position that does produce it.

    Tokens slice like tuple prefixes: ``order[:n]`` must be a token of the
    same system whose proximity is ``min(proximity, n)`` and which has no
    element at position n or later (tuples already are).  The check walk
    toward a candidate child passes ``order[:i_f + 1]`` to ``proximity``
    and ``step_position``, because it only steps from proximities below
    ``i_f`` and stops at ``i_f``.

    The engine does not read ``next_step``.  The field stays only because
    ``perfbench/tracing.py`` wraps it; it goes when the tracer tags
    ``neighbor_at`` calls by call site instead (ROADMAP item 3).
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


_COUNTERS = ("neighbor_evals", "orderings", "check_walks", "backtrack_walks",
             "walk_steps")


class TraversalStats:
    """Work and memory counters for one traversal.

    ``solutions`` counts emissions, and each name in ``_COUNTERS`` is a work
    counter.  ``peak_retained`` tracks the largest number of solutions the
    traversal held at once in its named slots (current node, candidate
    child, walk probe); the visited-set baseline counts its whole visited
    set instead.  With ``record_gaps`` the per-emission deltas of the work
    counters are kept in ``gap_<counter>`` lists, which is what the
    delay-structure assertions read.
    """

    __slots__ = ("solutions", *_COUNTERS, "peak_retained", "record_gaps",
                 *("gap_" + c for c in _COUNTERS), "_last")

    def __init__(self, record_gaps: bool = False) -> None:
        self.solutions = self.peak_retained = 0
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
    whose proximity is never computed.  The step out of a probe is
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


def _parent_step(system: SetSystem, f: Any, order: Sequence,
                 stats: TraversalStats) -> tuple[Any, int]:
    """The parent of ``f`` and the neighbor position of its step to ``f``,
    from a walk that holds one probe at a time; ``f`` is not the root."""
    (up, _, _), (_, _, k) = deque(
        _path(system, system.root, f, order, stats), maxlen=2)
    return up, k


def parent(system: SetSystem, f: Any) -> Any:
    """The next-to-last solution on the canonical path to ``f``."""
    if f == system.root:
        raise ValueError("the root solution has no parent")
    return _parent_step(system, f, system.ordering(f), TraversalStats())[0]


def _first_position(system: SetSystem, f: Any, cand: Any, j: int,
                    stats: TraversalStats) -> int:
    """The smallest neighbor position of ``f`` producing ``cand``, given
    that position ``j`` produces it."""
    excludes = system.position_excludes
    for k in range(j):
        if excludes is not None and excludes(f, k, cand):
            continue
        stats.neighbor_evals += 1
        if system.neighbor_at(f, k) == cand:
            return k
    return j


def _is_child(system: SetSystem, f: Any, cand: Any, j: int,
              stats: TraversalStats) -> Optional[Sequence]:
    """The ordering of ``cand`` if ``cand``, produced from ``f`` at
    neighbor position ``j``, is a child of ``f`` in the arborescence owned by
    that position, else None.

    ``f`` is the parent iff the canonical step out of ``f`` toward ``cand``
    lands on ``cand`` and ``f`` lies on the canonical path; position ``j``
    owns the child iff no smaller position produces it.  The step takes
    position ``k``: below ``j`` it either misses ``cand`` or produces it
    earlier, so the answer is no; at ``j`` it lands by construction; above
    ``j`` one neighbor evaluation settles it.  Only a landing step pays for
    the first-occurrence scan and the check walk.

    The check walk stops on meeting ``f`` or on overtaking its proximity
    ``i_f``, since proximity strictly increases along the path.  Every step
    it takes starts below ``i_f``, so it reads only ``order[:i_f + 1]``: a
    probe's proximity there is ``min(i, i_f + 1)``, which decides
    ``i >= i_f`` the same way.
    """
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
    stats.check_walks += 1
    stats.note_retained(3)
    for probe, i, _ in _path(system, system.root, cand, order[:i_f + 1],
                             stats):
        if probe == f:
            return order
        if i is None or i >= i_f:
            return None


def _next_child(system: SetSystem, f: Any, j: int, stats: TraversalStats
                ) -> Optional[tuple[int, Any, Sequence]]:
    """The first child of ``f`` at neighbor position ``j`` or later, as its
    position, the child and the child's ordering; None if there is none.
    The root is never anyone's child."""
    for j in range(j, system.neighbor_count(f)):
        stats.neighbor_evals += 1
        cand = system.neighbor_at(f, j)
        stats.note_retained(2)
        if cand != system.root and cand != f:
            order = _is_child(system, f, cand, j, stats)
            if order is not None:
                return j, cand, order
    return None


def children(system: SetSystem, f: Any) -> list:
    """The children of ``f`` in the arborescence, in scan order; a child
    appears once, at the smallest neighbor position producing it."""
    out, stats = [], TraversalStats()
    found = _next_child(system, f, 0, stats)
    while found is not None:
        j, child, _ = found
        out.append(child)
        found = _next_child(system, f, j + 1, stats)
    return out


def reverse_search(system: SetSystem,
                   stats: Optional[TraversalStats] = None) -> Iterator[Any]:
    """Enumerate every solution exactly once, depth first, without a visited
    set.

    Solutions at even depth are emitted on entry and solutions at odd depth
    on exit from their subtree, which bounds the work between consecutive
    emissions by a constant number of children scans and backtracking parent
    recomputations.  At any instant at most three solutions are retained:
    the current node, the candidate child under test, and the walk probe
    used to recompute parents.

    The traversal's whole state is the current node, its depth parity, the
    neighbor position its scan resumes at, and its ordering when the child
    test that descended to it built one (the backtrack out of it reuses it).
    """
    if stats is None:
        stats = TraversalStats()
    current, odd, j, order = system.root, False, 0, None
    stats.note_retained(1)
    stats.note_emission()
    yield current

    while True:
        found = _next_child(system, current, j, stats)
        if found is not None:
            _, current, order = found
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
        stats.backtrack_walks += 1
        if order is None:
            stats.orderings += 1
            order = system.ordering(current)
        stats.note_retained(2)
        up, last = _parent_step(system, current, order, stats)
        # Resume the parent's scan one past the position owning the node we
        # are leaving; recomputing it keeps the state free of solution stacks.
        # The walk's last step produced the node, so the owner is at most
        # that step's position.
        j = _first_position(system, up, current, last, stats) + 1
        current, odd, order = up, not odd, None
        stats.note_retained(1)


def visited_set_search(system: SetSystem,
                       stats: Optional[TraversalStats] = None) -> Iterator[Any]:
    """Baseline enumeration: breadth-first flood over the neighbor relation
    with an explicit visited set.  Retains every solution seen."""
    if stats is None:
        stats = TraversalStats()
    seen = {system.root}
    queue = [system.root]
    head = 0
    while head < len(queue):
        f = queue[head]
        head += 1
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

    Successors start from a stored filled adjacency where one is at hand:
    the system builds the root's adjacency at set-up and keeps, as tuples
    keyed by fill mask, those of the two other masks used last.  A scan
    flips one node's fill edges in turn, walks restart at the root, and the
    kernel ends holding its result's adjacency, which is the next probe of a
    walk.  Entries are never edited, so traversals interleaved over one
    system get the same answers.
    """
    ground = len(non_edges(g))
    root = minimal_completion_root(g)
    root_adj = tuple(_filled_masks(g, root.mask))
    recent: dict[int, tuple[int, ...]] = {}  # least recently used first

    def successor_mask(mask: int, i: int) -> int:
        if mask == root.mask:
            adj = root_adj
        else:
            adj = recent.pop(mask, None) or tuple(_filled_masks(g, mask))
            recent[mask] = adj
        masks = list(adj)
        result = _successor_mask(g, mask, i, masks)
        if result != root.mask:
            recent.pop(result, None)
            recent[result] = tuple(masks)
        while len(recent) > 2:
            del recent[next(iter(recent))]
        return result

    def neighbor_count(f: Completion) -> int:
        return f.mask.bit_count()

    def neighbor_at(f: Completion, j: int) -> Completion:
        return Completion(g, successor_mask(f.mask, _fill_index_at(f.mask, j)))

    def ordering(f: Completion) -> RemovalTrace:
        return RemovalTrace(f)

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

    def position_excludes(f: Completion, j: int, cand: Completion) -> bool:
        # A flip by edge e never re-adds e, so a candidate containing the
        # edge at position j cannot have come from it.
        return bool(cand.mask >> _fill_index_at(f.mask, j) & 1)

    return SetSystem(root=root, neighbor_count=neighbor_count,
                     neighbor_at=neighbor_at, ordering=ordering,
                     proximity=prox, solution_key=solution_key,
                     position_excludes=position_excludes,
                     step_position=step_position)
