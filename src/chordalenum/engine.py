"""Generic reverse-search enumeration over proximity-searchable set systems.

The engine walks a spanning arborescence over the solutions of a set system
without storing it.  The arborescence is defined by canonical-path
reconstruction: each solution carries a canonical ordering of its elements,
a proximity measure says how far along that ordering another solution
agrees, and a next-step function moves strictly closer to any target.  The
parent of a solution is the last stop before it on the canonical path from
the root; children are recomputed on demand, so the traversal retains only a
constant number of solutions at a time.

Solutions must be hashable and comparable with ``==``.  Orderings are tuples
of mutually comparable ground elements, and two solutions compare by the
lexicographic order of their ordering tuples (for the inclusion-incomparable
families enumerated here, distinct solutions never produce nested tuples).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence

from .completions import (Completion, RemovalTrace, _successor_mask,
                          minimal_completion_root)
from .graph import Graph, non_edges


class ProximitySearchError(RuntimeError):
    """An internal invariant of the set system was violated; this indicates a
    system that is not proximity searchable (or a bug), never bad input."""


@dataclass(frozen=True)
class SetSystem:
    """Callable description of one enumeration problem.

    ``neighbor_at(f, j)`` must be deterministic in ``j`` for fixed ``f``; the
    scan order over ``j`` is what fixes which neighbor owns a child that can
    be produced several ways.  ``ordering(f)`` returns whatever token this
    system's own ``proximity`` and ``next_step`` understand (a tuple, or a
    lazily grown trace); tokens of distinct solutions must order with ``<``.
    ``proximity(f, order, start)`` may assume the first ``start`` ordering
    elements already matched and resume there.

    ``step_position(f, order, i)`` receives the precomputed proximity ``i``
    of ``f`` toward a target whose ordering is ``order`` and returns the
    neighbor position the canonical step takes; the child test compares that
    position with the scan position before it computes any solution.
    ``next_step(f, target, order, i)`` is the step itself computed directly,
    and must equal ``neighbor_at(f, step_position(f, order, i))``; a system
    giving ``next_step`` must give ``step_position`` too.  With
    ``step_position`` alone the step is ``neighbor_at`` at that position; with
    neither, a generic fallback picks the first position of the
    ``solution_key``-smallest neighbor strictly closer to the target (it
    evaluates every neighbor per step, which the specialized steps avoid).
    ``position_excludes(f, j, cand)``, when given, may cheaply rule out
    position j producing ``cand``; it is only an optimization and must never
    rule out a position that does produce it.
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

    def __post_init__(self) -> None:
        if self.next_step is not None and self.step_position is None:
            raise ValueError("a SetSystem with next_step needs step_position, "
                             "the neighbor position that step takes")


@dataclass
class TraversalState:
    """Resumable cursor of a reverse-search traversal: the node being
    scanned, its depth parity, and the next neighbor index to try."""

    current: Any
    depth_parity: int
    resume_index: int


_GAPPED = ("neighbor_evals", "check_walks", "backtrack_walks", "orderings",
           "walk_steps")


class TraversalStats:
    """Work and memory counters for one traversal.

    ``peak_retained`` tracks the largest number of solutions the traversal
    held at once in its named slots (current node, candidate child, walk
    probe); the visited-set baseline counts its whole visited set instead.
    With ``record_gaps`` the per-emission deltas of the work counters are
    kept in ``gap_<counter>`` lists, which is what the delay-structure
    assertions read.
    """

    __slots__ = ("solutions", "neighbor_evals", "orderings", "check_walks",
                 "backtrack_walks", "walk_steps", "peak_retained",
                 "record_gaps", "gap_neighbor_evals", "gap_check_walks",
                 "gap_backtrack_walks", "gap_orderings", "gap_walk_steps",
                 "_last")

    def __init__(self, record_gaps: bool = False) -> None:
        self.solutions = 0
        self.neighbor_evals = 0
        self.orderings = 0
        self.check_walks = 0
        self.backtrack_walks = 0
        self.walk_steps = 0
        self.peak_retained = 0
        self.record_gaps = record_gaps
        self.gap_neighbor_evals: list[int] = []
        self.gap_check_walks: list[int] = []
        self.gap_backtrack_walks: list[int] = []
        self.gap_orderings: list[int] = []
        self.gap_walk_steps: list[int] = []
        self._last = (0,) * len(_GAPPED)

    def note_retained(self, count: int) -> None:
        if count > self.peak_retained:
            self.peak_retained = count

    def note_emission(self) -> None:
        self.solutions += 1
        if self.record_gaps:
            now = tuple(getattr(self, c) for c in _GAPPED)
            for c, a, b in zip(_GAPPED, now, self._last):
                getattr(self, "gap_" + c).append(a - b)
            self._last = now

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name)
                for name in ("solutions", "neighbor_evals", "orderings",
                             "check_walks", "backtrack_walks", "walk_steps",
                             "peak_retained")}


def _step_position(system: SetSystem, f: Any, order: Sequence,
                   i: int) -> int:
    if system.step_position is not None:
        return system.step_position(f, order, i)
    return _generic_position(system, f, order, i)


def _step(system: SetSystem, f: Any, target: Any, order: Sequence,
          i: int) -> Any:
    if system.next_step is not None:
        return system.next_step(f, target, order, i)
    return system.neighbor_at(f, _step_position(system, f, order, i))


def _generic_position(system: SetSystem, f: Any, target_order: Sequence,
                      i: int) -> int:
    best = None
    best_key = None
    for j in range(system.neighbor_count(f)):
        nb = system.neighbor_at(f, j)
        if system.proximity(nb, target_order, 0) > i:
            key = system.solution_key(nb)
            if best is None or key < best_key:
                best, best_key = j, key
    if best is None:
        raise ProximitySearchError(
            "no neighbor is closer to the target; the system is not "
            "proximity searchable")
    return best


def next_toward(system: SetSystem, f: Any, target: Any,
                target_order: Optional[Sequence] = None) -> Any:
    """The canonical next solution after ``f`` on the way to ``target``.

    The result is a neighbor of ``f`` strictly closer to ``target`` under
    the proximity measure.  ``target_order`` is ``ordering(target)``; pass it
    in when stepping repeatedly toward one target.
    """
    if f == target:
        raise ValueError("next_toward needs two distinct solutions")
    if target_order is None:
        target_order = system.ordering(target)
    return _step(system, f, target, target_order,
                 system.proximity(f, target_order, 0))


def canonical_path(system: SetSystem, target: Any) -> list:
    """The canonical path from the root to ``target``, both ends included."""
    order = system.ordering(target)
    path = [system.root]
    i = system.proximity(path[-1], order, 0)
    while path[-1] != target:
        path.append(_step(system, path[-1], target, order, i))
        i = system.proximity(path[-1], order, i + 1)
    return path


def parent(system: SetSystem, f: Any,
           stats: Optional[TraversalStats] = None) -> Any:
    """The next-to-last solution on the canonical path to ``f``."""
    if f == system.root:
        raise ValueError("the root solution has no parent")
    order = system.ordering(f)
    if stats is not None:
        stats.orderings += 1
    return _walk_to_parent(system, f, order, stats)[0]


def _walk_to_parent(system: SetSystem, target: Any, order: Sequence,
                    stats: Optional[TraversalStats]) -> tuple[Any, int]:
    """Walk the canonical path from the root, returning the probe one step
    short of ``target`` and the neighbor position of that last step.  Holds
    a single probe solution; the proximity scan resumes where the previous
    step left off, since proximity strictly increases along the path."""
    probe = system.root
    i = system.proximity(probe, order, 0)
    while True:
        nxt = _step(system, probe, target, order, i)
        if stats is not None:
            stats.walk_steps += 1
        if nxt == target:
            return probe, _step_position(system, probe, order, i)
        i = system.proximity(nxt, order, i + 1)
        probe = nxt


def _on_canonical_path(system: SetSystem, f: Any, i_f: int, target: Any,
                       order: Sequence,
                       stats: Optional[TraversalStats]) -> bool:
    """Whether ``f`` (at proximity ``i_f`` toward ``target``) lies on the
    canonical path to ``target``.

    Proximity strictly increases along the path, so the walk can stop as
    soon as it meets ``f`` or overtakes its proximity.
    """
    probe = system.root
    i = system.proximity(probe, order, 0)
    while True:
        if probe == f:
            return True
        if i >= i_f:
            return False
        probe = _step(system, probe, target, order, i)
        if stats is not None:
            stats.walk_steps += 1
        i = system.proximity(probe, order, i + 1)


def _first_position(system: SetSystem, f: Any, cand: Any, j: int,
                    stats: Optional[TraversalStats]) -> int:
    """The smallest neighbor position of ``f`` producing ``cand``, given
    that position ``j`` produces it."""
    excludes = system.position_excludes
    for k in range(j):
        if excludes is not None and excludes(f, k, cand):
            continue
        if stats is not None:
            stats.neighbor_evals += 1
        if system.neighbor_at(f, k) == cand:
            return k
    return j


def _is_child(system: SetSystem, f: Any, cand: Any, j: int,
              stats: Optional[TraversalStats]) -> bool:
    """Whether ``cand``, produced from ``f`` at neighbor position ``j``, is
    a child of ``f`` in the arborescence owned by that position.

    ``f`` is the parent iff the canonical step out of ``f`` toward ``cand``
    lands on ``cand`` and ``f`` lies on the canonical path; position ``j``
    owns the child iff no smaller position produces it.  The step takes
    position ``k``: below ``j`` it either misses ``cand`` or produces it
    earlier, so the answer is no; at ``j`` it lands by construction; above
    ``j`` one neighbor evaluation settles it.  Only a landing step pays for
    the first-occurrence scan and the bounded walk.
    """
    order = system.ordering(cand)
    if stats is not None:
        stats.orderings += 1
    i_f = system.proximity(f, order, 0)
    k = _step_position(system, f, order, i_f)
    if k < j:
        return False
    if k > j:
        if stats is not None:
            stats.neighbor_evals += 1
            stats.note_retained(3)
        if system.neighbor_at(f, k) != cand:
            return False
    if _first_position(system, f, cand, j, stats) < j:
        return False
    if stats is not None:
        stats.check_walks += 1
        stats.note_retained(3)
    return _on_canonical_path(system, f, i_f, cand, order, stats)


def children(system: SetSystem, f: Any,
             stats: Optional[TraversalStats] = None) -> list:
    """The children of ``f`` in the arborescence, in scan order.

    A child appears once, at the smallest neighbor position producing it;
    the root is never anyone's child.
    """
    out = []
    for j in range(system.neighbor_count(f)):
        if stats is not None:
            stats.neighbor_evals += 1
        cand = system.neighbor_at(f, j)
        if (cand != system.root and cand != f
                and _is_child(system, f, cand, j, stats)):
            out.append(cand)
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
    """
    if stats is None:
        stats = TraversalStats()
    state = TraversalState(current=system.root, depth_parity=0, resume_index=0)
    stats.note_retained(1)
    stats.note_emission()
    yield state.current

    while True:
        child = None
        count = system.neighbor_count(state.current)
        while state.resume_index < count:
            j = state.resume_index
            stats.neighbor_evals += 1
            cand = system.neighbor_at(state.current, j)
            stats.note_retained(2)
            if (cand != system.root and cand != state.current
                    and _is_child(system, state.current, cand, j, stats)):
                child = cand
                break
            state.resume_index += 1
        if child is not None:
            state.current = child
            state.depth_parity ^= 1
            state.resume_index = 0
            if state.depth_parity == 0:
                stats.note_emission()
                yield state.current
            continue
        # Neighbor scan exhausted: emit odd-depth nodes on the way out.
        if state.depth_parity == 1:
            stats.note_emission()
            yield state.current
        if state.current == system.root:
            return
        stats.backtrack_walks += 1
        stats.orderings += 1
        order = system.ordering(state.current)
        stats.note_retained(2)
        up, last = _walk_to_parent(system, state.current, order, stats)
        # Resume the parent's scan one past the position owning the node we
        # are leaving; recomputing it keeps the state free of solution stacks.
        # The walk's last step produced the node, so the owner is at most
        # that step's position.
        j = _first_position(system, up, state.current, last, stats)
        state.current = up
        state.depth_parity ^= 1
        state.resume_index = j + 1
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
    """Index of the (j+1)-th lowest set bit of ``mask``."""
    for _ in range(j):
        mask &= mask - 1
    low = mask & -mask
    return low.bit_length() - 1


def chordal_completion_system(g: Graph) -> SetSystem:
    """The minimal-chordal-completion instance over ``g``.

    Solutions are minimal chordal completions; neighbor position j flips the
    (j+1)-th fill edge and reduces.  The ordering of a solution is the
    canonical removal trace of its complement, and the specialized next step
    flips exactly the ordering element right after the matched prefix.
    """
    ground = len(non_edges(g))
    root = minimal_completion_root(g)

    def neighbor_count(f: Completion) -> int:
        return f.mask.bit_count()

    def neighbor_at(f: Completion, j: int) -> Completion:
        return Completion(g, _successor_mask(g, f.mask, _fill_index_at(f.mask, j)))

    def ordering(f: Completion) -> RemovalTrace:
        return RemovalTrace(f)

    def prox(f: Completion, order: RemovalTrace, start: int = 0) -> int:
        return order.prefix_against(f.mask, start)

    def solution_key(f: Completion) -> tuple[int, ...]:
        return tuple(i for i in range(ground) if not f.mask >> i & 1)

    def step_edge(f: Completion, order: RemovalTrace, i: int) -> int:
        idx = order.element(i)
        if idx is None:
            raise ProximitySearchError(
                "next step requested between equal solutions")
        if not f.mask >> idx & 1:
            raise ProximitySearchError(
                "canonical ordering element after the matched prefix is not "
                "a fill edge; proximity searchability violated")
        return idx

    def step_position(f: Completion, order: RemovalTrace, i: int) -> int:
        # Position j flips the (j+1)-th fill edge: the rank of the edge.
        return (f.mask & ((1 << step_edge(f, order, i)) - 1)).bit_count()

    def next_step(f: Completion, target: Completion, order: RemovalTrace,
                  i: int) -> Completion:
        return Completion(g, _successor_mask(g, f.mask, step_edge(f, order, i)))

    def position_excludes(f: Completion, j: int, cand: Completion) -> bool:
        # A flip by edge e never re-adds e, so a candidate containing the
        # edge at position j cannot have come from it.
        return bool(cand.mask >> _fill_index_at(f.mask, j) & 1)

    return SetSystem(root=root, neighbor_count=neighbor_count,
                     neighbor_at=neighbor_at, ordering=ordering,
                     proximity=prox, solution_key=solution_key,
                     next_step=next_step, position_excludes=position_excludes,
                     step_position=step_position)
