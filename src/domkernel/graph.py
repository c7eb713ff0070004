"""Mutable black/white colored graph and solution bookkeeping.

The coloring is one set, ``black``: the vertices that must be dominated.
Every other vertex is white and may only dominate.  Vertex ids are stable
for the lifetime of an instance: removals never free an id and fresh ids
are strictly larger than every id handed out before, so traces and test
expectations can refer to ids across mutations.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set
from dataclasses import dataclass, field

# The string colour API's one remaining caller is perfbench's bw-small
# set-up; colour is otherwise written through ``black``.
BLACK = "black"
WHITE = "white"


class ColoredGraph:
    """Simple undirected graph whose vertices outside ``black`` are white.

    ``black`` is mutated in place and never rebound, so a caller may hold
    a reference to it across mutations of the graph.
    """

    __slots__ = ("adj", "black", "_next_id")

    def __init__(self) -> None:
        self.adj: dict[int, set[int]] = {}
        self.black: set[int] = set()
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
        self.black.add(v)
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
        self.black.discard(v)

    def set_color(self, v: int, color: str) -> None:
        if v not in self.adj:
            raise KeyError(v)
        if color == BLACK:
            self.black.add(v)
        elif color == WHITE:
            self.black.discard(v)
        else:
            raise ValueError(f"unknown color {color!r}")

    # -- queries -------------------------------------------------------

    def __contains__(self, v: int) -> bool:
        return v in self.adj

    @property
    def vertex_count(self) -> int:
        return len(self.adj)

    @property
    def edge_count(self) -> int:
        return sum(map(len, self.adj.values())) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted: vertex by vertex
        in id order, each vertex's larger neighbours sorted."""
        out = []
        for u in sorted(self.adj):
            for v in sorted(self.adj[u]):
                if u < v:
                    out.append((u, v))
        return out

    def ball(self, vs, radius: int) -> set[int]:
        """The vertices within distance `radius` of the members of vs that
        are vertices of the graph; radius 1 gives their closed
        neighbourhood N[vs]."""
        adj = self.adj
        seen = adj.keys() & vs
        frontier = seen
        for left in reversed(range(radius)):
            if len(seen) == len(adj):
                break
            if left:
                frontier = set().union(*map(adj.__getitem__, frontier)) - seen
                seen |= frontier
            else:  # the last step needs no new frontier
                seen.update(*map(adj.__getitem__, frontier))
        return seen

    def white_vertices(self) -> set[int]:
        return self.adj.keys() - self.black

    # -- derived graphs ------------------------------------------------

    def copy(self) -> "ColoredGraph":
        out = ColoredGraph()
        out.adj = {v: set(nv) for v, nv in self.adj.items()}
        out.black = set(self.black)
        out._next_id = self._next_id
        return out

    @classmethod
    def from_edges(cls, edges) -> "ColoredGraph":
        """Build an all-black graph from an edge list."""
        g = cls()
        for u, v in edges:
            for x in (u, v):
                if x not in g.adj:
                    g.add_vertex(x)
            g.add_edge(u, v)
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
        g.black.difference_update(g.adj[v])
        g.remove_vertex(v)
        self.solution.add(v)

    def copy(self) -> "Instance":
        return Instance(self.graph.copy(), set(self.solution), Counter(self.stats))


class Touched:
    """The vertices whose adjacency or colour changed during one kernelize
    run, removed ones included: one log that every tier appends to, and
    that each tier reading it consumes from where it last looked.

    Every reader's test at a key reads only the adjacency and colour of
    the key's closed neighbourhood: tier 1 at a vertex u reads N[u], the
    single Alber scan at a black x reads N[x], and the pair rule and
    pair candidacy at (v, w) read N[v] | N[w].  A key whose neighbourhood
    kept its adjacency and colour keeps its outcome, and every vertex
    whose adjacency or colour changed is in the log.  So a key can change
    outcome only if it lies in N[what changed], which is what `near`
    returns.

    A reader that has not looked yet gets every vertex; so a tier handed
    a fresh object scans the whole graph.  After ``looked_at_start``, it
    instead reads the whole log.  ``scans`` keeps each reader's own
    resume state between its calls.
    """

    __slots__ = ("log", "scans", "_marks", "_unlooked")

    def __init__(self) -> None:
        self.log: list[int] = []
        self.scans: dict = {}
        self._marks: dict = {}
        self._unlooked: int | None = None  # the mark of a reader yet to look

    def near(self, g: ColoredGraph, reader: str) -> Set[int]:
        """N[T] in g, for the vertices T changed since reader last looked;
        on reader's first look, every vertex, as the live view
        ``g.adj.keys()``.  Either way, reader has now looked."""
        start = self._marks.get(reader, self._unlooked)
        end = self._marks[reader] = len(self.log)
        if start is None:
            return g.adj.keys()
        return g.ball(self.log[start:end], 1)

    def mark(self, reader: str) -> None:
        """Count everything logged so far as seen by reader."""
        self._marks[reader] = len(self.log)

    def looked_at_start(self) -> None:
        """Count every reader that has not looked as having looked before
        anything was logged: a tier whose fixed point the graph was."""
        self._unlooked = 0

    def watched(self, writer: str) -> bool:
        """Whether a reader other than writer has looked.  Until one has,
        every reader's next look returns every vertex, so writer's changes
        need no log."""
        return self._unlooked is not None or len(self._marks) > (writer in self._marks)


def is_1_scattered(g: ColoredGraph, vs, removed) -> bool:
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

