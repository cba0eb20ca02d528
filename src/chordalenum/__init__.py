"""Enumerate all minimal chordal completions of a graph.

A chordal completion of a graph G is a set of non-edges whose addition makes
G chordal; it is minimal when no proper subset works.  This package lists
every minimal chordal completion exactly once with polynomial delay, and in
polynomial space when using the default reverse-search traversal.

>>> from chordalenum import Graph, minimal_chordal_completions
>>> cycle = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
>>> sorted(f.fill_edges for f in minimal_chordal_completions(cycle))
[((0, 2), (0, 3)), ((0, 2), (2, 4)), ((0, 3), (1, 3)), ((1, 3), (1, 4)), ((1, 4), (2, 4))]
"""

from __future__ import annotations

from typing import Iterator, Optional

from .completions import (Completion, flip, is_chordal_completion, is_minimal,
                          minimal_completion_root, proximity, prune,
                          removable_edges, removal_order, successor)
from .engine import (ProximitySearchError, SetSystem, TraversalStats,
                     canonical_path, children, chordal_completion_system,
                     next_toward, parent, reverse_search, visited_set_search)
from .graph import (Edge, Graph, GraphInputError, find_chordless_cycle,
                    is_chordal, non_edges)
from .oracle import (SolutionSet, VerificationReport,
                     brute_force_minimal_completions, verify_solution_set)

__version__ = "0.1.0"

__all__ = [
    "Completion", "Edge", "Graph", "GraphInputError", "ProximitySearchError",
    "SetSystem", "SolutionSet", "TraversalStats", "VerificationReport",
    "brute_force_minimal_completions", "canonical_path", "children",
    "chordal_completion_system", "find_chordless_cycle", "flip", "is_chordal",
    "is_chordal_completion", "is_minimal", "minimal_chordal_completions",
    "minimal_completion_root", "next_toward", "non_edges", "parent",
    "proximity", "prune", "removable_edges", "removal_order", "reverse_search",
    "successor", "verify_solution_set", "visited_set_search",
]

# The traversal behind each ``mode`` name; the CLI offers the same names.
MODES = {"reverse_search": reverse_search, "visited_set": visited_set_search}


def minimal_chordal_completions(g: Graph, mode: str = "reverse_search",
                                stats: Optional[TraversalStats] = None
                                ) -> Iterator[Completion]:
    """Yield every minimal chordal completion of ``g`` exactly once.

    ``mode`` selects the traversal: ``reverse_search`` (default, constant
    number of retained solutions) or ``visited_set`` (baseline breadth-first
    flood that keeps everything it has seen).
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return MODES[mode](chordal_completion_system(g), stats)
