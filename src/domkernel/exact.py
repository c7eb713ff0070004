"""Exact optimum for black/white domination by branch and bound.

Small instances only.  The solver refuses anything above its vertex limit
instead of silently taking forever; callers that want to gamble can raise
the limit explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import ColoredGraph
from .sparsity import greedy_dominating_set

DEFAULT_VERTEX_LIMIT = 64


class OracleSizeError(RuntimeError):
    """Instance exceeds the exact solver's vertex limit."""

    def __init__(self, n: int, limit: int) -> None:
        super().__init__(
            f"exact solver refused: {n} vertices exceeds the limit of {limit}"
        )
        self.n = n
        self.limit = limit


@dataclass(frozen=True)
class ExactResult:
    size: int
    witness: frozenset


def exact_dom(g: ColoredGraph, limit: int = DEFAULT_VERTEX_LIMIT) -> ExactResult:
    """Minimum number of vertices dominating all black vertices.

    Branches on an undominated black vertex with the smallest closed
    neighborhood (ties to the smaller id); one of its closed neighbors must
    be in any solution.  Pruned by a greedy upper bound and a max-coverage
    lower bound.  Deterministic: the witness is the first optimum found
    under candidate order ascending by id.
    """
    n = g.vertex_count
    if n > limit:
        raise OracleSizeError(n, limit)
    blacks = frozenset(g.black)
    if not blacks:
        return ExactResult(0, frozenset())

    closed = {v: frozenset(g.adj[v]) | {v} for v in g.adj}

    best_set = greedy_dominating_set(g, blacks)
    best = len(best_set)

    all_vertices = sorted(g.adj)
    chosen: list[int] = []

    def search(undominated: frozenset) -> None:
        nonlocal best, best_set
        if not undominated:
            if len(chosen) < best:
                best = len(chosen)
                best_set = set(chosen)
            return
        if len(chosen) + 1 >= best:
            return
        maxcov = max(len(closed[v] & undominated) for v in all_vertices)
        lower = -(-len(undominated) // maxcov)
        if len(chosen) + lower >= best:
            return
        pivot = min(undominated, key=lambda b: (len(closed[b]), b))
        for c in sorted(closed[pivot]):
            chosen.append(c)
            search(undominated - closed[c])
            chosen.pop()

    search(blacks)
    return ExactResult(best, frozenset(best_set))
