"""Mutable black/white colored graph, solution bookkeeping, and the
color-removal gadget.

Black vertices must be dominated and may dominate; white vertices may only
dominate.  Vertex ids are stable for the lifetime of an instance: removals
never free an id and fresh ids are strictly larger than every id handed out
before, so traces and test expectations can refer to ids across mutations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum


class Color(Enum):
    BLACK = "black"
    WHITE = "white"


BLACK = Color.BLACK
WHITE = Color.WHITE


class ColoredGraph:
    """Simple undirected graph with a black/white color per vertex."""

    __slots__ = ("adj", "color", "_next_id")

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.color: dict[int, Color] = {}
        self._next_id = 0

    # -- construction and mutation ------------------------------------

    def add_vertex(self, v: int | None = None) -> int:
        """Add a black vertex; with ``v=None`` a fresh id (larger than any id
        ever used) is allocated."""
        if v is None:
            v = self._next_id
        if v < 0:
            raise ValueError(f"vertex ids must be non-negative, got {v}")
        if v in self.adj:
            raise ValueError(f"vertex {v} already present")
        self.adj[v] = set()
        self.color[v] = BLACK
        if v >= self._next_id:
            self._next_id = v + 1
        return v

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u} rejected")
        au, av = self.adj[u], self.adj[v]  # both looked up before either changes
        au.add(v)
        av.add(u)

    def remove_edge(self, u: int, v: int) -> None:
        self.adj[u].remove(v)
        self.adj[v].remove(u)

    def remove_vertex(self, v: int) -> None:
        nv = self.adj.pop(v)
        for u in nv:
            self.adj[u].remove(v)
        del self.color[v]

    def set_color(self, v: int, color: Color) -> None:
        if v not in self.adj:
            raise KeyError(v)
        self.color[v] = color

    # -- queries -------------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self.adj

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    def vertices(self) -> list[int]:
        return sorted(self.adj)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        for u in self.adj:
            for v in self.adj[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def closed_neighborhood_of_set(self, vs) -> set[int]:
        """N[U] = union of N[u] over u in U."""
        out: set[int] = set()
        for v in vs:
            out.update(self.adj[v])
            out.add(v)
        return out

    def black_vertices(self) -> set[int]:
        return {v for v, c in self.color.items() if c is BLACK}

    def white_vertices(self) -> set[int]:
        return {v for v, c in self.color.items() if c is WHITE}

    # -- derived graphs ------------------------------------------------

    def copy(self) -> "ColoredGraph":
        out = ColoredGraph()
        out.adj = {v: set(nv) for v, nv in self.adj.items()}
        out.color = dict(self.color)
        out._next_id = self._next_id
        return out

    # -- auditing ------------------------------------------------------

    def check_invariants(self) -> None:
        """Debug audit: symmetry, simplicity, color totality."""
        for v, nv in self.adj.items():
            if v in nv:
                raise AssertionError(f"self-loop at {v}")
            for u in nv:
                if u not in self.adj or v not in self.adj[u]:
                    raise AssertionError(f"asymmetric edge {v}-{u}")
        if set(self.color) != set(self.adj):
            raise AssertionError("color map does not match vertex set")

    @classmethod
    def from_edges(cls, edges, white=(), isolated=()) -> "ColoredGraph":
        """Build a graph from an edge list; vertices default to black."""
        g = cls()
        for u, v in edges:
            for x in (u, v):
                if x not in g.adj:
                    g.add_vertex(x)
            g.add_edge(u, v)
        for x in isolated:
            if x not in g.adj:
                g.add_vertex(x)
        for w in white:
            g.set_color(w, WHITE)
        return g


@dataclass
class Instance:
    """A colored graph plus the committed partial solution and per-rule
    application counters.

    The central conservation law, enforced by the whole rule suite: the
    domination optimum of the original graph equals ``len(solution)`` plus
    the optimum of the current graph.
    """

    graph: ColoredGraph
    solution: set[int] = field(default_factory=set)
    stats: Counter = field(default_factory=Counter)

    @classmethod
    def from_graph(cls, graph: ColoredGraph) -> "Instance":
        return cls(graph=graph)

    def take_into_solution(self, v: int) -> None:
        """Commit v as a dominator: whiten its neighbors, then delete it."""
        g = self.graph
        for u in g.adj[v]:
            g.color[u] = WHITE
        g.remove_vertex(v)
        self.solution.add(v)

    def copy(self) -> "Instance":
        return Instance(self.graph.copy(), set(self.solution), Counter(self.stats))


def is_1_scattered(g: ColoredGraph, vs, removed=frozenset()) -> bool:
    """True iff the closed neighborhoods of the given vertices are pairwise
    disjoint (equivalently, all pairwise distances are at least 3) in g
    with the vertex set `removed` deleted.  A removed member fails."""
    seen: set[int] = set()
    for v in sorted(vs):
        if v in removed:
            return False
        nb = g.adj[v] - removed
        nb.add(v)
        if not seen.isdisjoint(nb):
            return False
        seen |= nb
    return True


def bw_to_plain_gadget(g: ColoredGraph) -> ColoredGraph:
    """Reduce a colored instance to an all-black one.

    Adds a pendant vertex and a hub vertex (the two largest fresh ids, in
    that order), joins the hub to the pendant and to every formerly white
    vertex, and recolors everything black.  The domination optimum of the
    result is exactly one larger than the input's: the pendant forces the
    hub into any optimal solution, and the hub covers all old whites.
    """
    out = g.copy()
    whites = sorted(out.white_vertices())
    pendant = out.add_vertex()
    hub = out.add_vertex()
    out.add_edge(pendant, hub)
    for w in whites:
        out.add_edge(hub, w)
        out.set_color(w, BLACK)
    return out
