"""The six local reduction rules and their exhaustive application.

Three rules act at white vertices and three at black ones; a predicate
reads a vertex's color as its membership in ``g.black``, and the worklist
queues each vertex only under the rules of its color.  It seeds a black
under ISOLATED_BLACK or DEGREE1_BLACK only at degree 0 or 1, where those
rules can apply, and queues them wherever a firing drops a black's degree
that far.

Rule order is fixed.  One "step" of the reference semantics applies the
lowest-numbered rule that matches anywhere, at its largest matching vertex
(rule 1 removes the edge at the largest white vertex with a white neighbor,
toward its largest white neighbor).  The production fixed-point driver
reproduces exactly that sequence of steps from one queue of vertices
per rule, taking from the lowest non-empty one.  It keeps one invariant:
every applicable (rule, vertex) key is queued.  After a firing it queues
only the keys that the firing may have made applicable, which is what
makes large sparse instances affordable.

Those keys follow from what each predicate reads.  Tier 1 only deletes
edges and vertices and whitens blacks, so a predicate can newly hold only
where one of its inputs moved.  With "the white rules" for WW_EDGE,
WHITE_NO_BLACK and WHITE_SUBSUMED, each branch of the driver applies its
rule's mutation and queues these keys; the white rules share one vertex
set:

  fired at v          keys queued, and which predicate inputs moved
  WW_EDGE (with w)    WW_EDGE: v.  v and w each lose a white neighbor;
                      no black set or black adjacency moves, so no key
                      becomes newly true and only v's own key may still be.
  WHITE_NO_BLACK      none.  v's neighbors are all white and only lose a
                      white neighbor.
  WHITE_SUBSUMED      ISOLATED_BLACK or DEGREE1_BLACK: each black neighbor
                      x of v left with no edge or one; BLACK_TO_WHITE: each
                      black neighbor u of a black neighbor x of v with
                      N(x) <= N[u].  Only x's adjacency shrinks, so x is the
                      only witness that may newly fit in a ball; v was
                      white, so no white vertex's black neighbors change.
  BLACK_TO_WHITE      the white rules: v and each white neighbor of v.
                      v turns white and its neighbors lose a black neighbor,
                      which black rules only lose as a witness.
  ISOLATED_BLACK      none.  v has no neighbors.
  DEGREE1_BLACK (s)   the white rules: each vertex of N(s), and each white
                      neighbor of a vertex the take whitened.  N(s)
                      turns white and loses s; a white outside N(s) next to
                      an already white y sees y lose only s, which it never
                      had to dominate; no black vertex loses an edge.

So the three white queues hold one set whenever the white rules' turn
comes: the seed and every black firing queue one set under all three,
and a black key is only taken once they are empty; WHITE_NO_BLACK and
WHITE_SUBSUMED queue no white rule, and WW_EDGE only its own vertex,
which is then the largest key left.  The driver keeps no white queue: it
sorts that set once and sweeps it once per white rule, largest first,
which takes the same keys in the same order.  WW_EDGE's sweep removes
every white-white edge of v at once, largest partner first, without its
predicate: that is what re-checking the rule at v until it fails would
do, firing by firing and witness by witness.  It relies on the set
holding only whites, which holds because tier 1 never blackens a vertex.
WHITE_NO_BLACK and WHITE_SUBSUMED remove v, so they fire at most once
per vertex.

The driver counts firings per rule and adds them to ``inst.stats`` when
it returns.  Given a list as ``trace``, it appends each firing's (rule,
vertex, witness) to it, which is how the tests compare its firing
sequence with the naive loop's.

Scanning largest-first is a deliberate choice: on hierarchically built
planar instances the freshest (largest-id) vertices sit at the leaves of
the construction, and peeling leaves before hubs lets the whitening cascade
run much further.  Ascending scans leave kernels several times larger on
the maximal planar benchmark groups; either direction is equally
deterministic, and optimum preservation never depends on order.
"""

from __future__ import annotations

import heapq
from enum import IntEnum

from .graph import ColoredGraph, Instance


class SimpleRule(IntEnum):
    """The six rules in application order."""

    WW_EDGE = 0          # drop an edge between two whites
    WHITE_NO_BLACK = 1   # drop a white with no black neighbor
    WHITE_SUBSUMED = 2   # drop a white whose black coverage a neighbor matches
    BLACK_TO_WHITE = 3   # whiten a black inside an adjacent black's ball
    ISOLATED_BLACK = 4   # take an isolated black
    DEGREE1_BLACK = 5    # take the sole neighbor of a degree-1 black


# -- applicability predicates -----------------------------------------
#
# Each predicate returns the witness its rule fires with when the rule
# applies at v, else None.  It reads only the adjacency of v and of v's
# current neighbors and whether those vertices are black; the fixed-point
# driver relies on that locality.


def _ww_partner(g: ColoredGraph, v: int) -> int | None:
    """Largest white neighbor of white v, if any.  Together with the
    largest-first vertex scan this makes the removed edge deterministic."""
    if v in g.black:
        return None
    return max(g.adj[v] - g.black, default=None)


def _white_no_black(g: ColoredGraph, v: int) -> int | None:
    return v if v not in g.black and g.adj[v].isdisjoint(g.black) else None


def _white_subsumed_partner(g: ColoredGraph, u: int) -> int | None:
    """Some neighbor v of white u with N[u] cap Black <= N[v] cap Black;
    N[v] also holds u, so deg v >= |N(u) cap Black|.  Which one does not
    matter: the rule removes u whatever the witness."""
    if u in g.black:
        return None
    adj = g.adj
    need = adj[u] & g.black
    k = len(need)
    for v in adj[u]:
        if len(adj[v]) < k:
            continue
        missing = need - adj[v]
        if not missing or missing == {v}:
            return v
    return None


def _black_to_white_partner(g: ColoredGraph, u: int) -> int | None:
    """Some black neighbor v of black u with N[u] >= N[v]; N(v) holds u
    but not v, so deg v <= deg u.  Which one does not matter: the rule
    whitens u whatever the witness."""
    if u not in g.black:
        return None
    adj = g.adj
    ball = adj[u] | {u}
    degree = len(adj[u])
    for v in adj[u] & g.black:
        if len(adj[v]) <= degree and adj[v] <= ball:
            return v
    return None


def _isolated_black(g: ColoredGraph, v: int) -> int | None:
    return v if v in g.black and not g.adj[v] else None


def _degree1_support(g: ColoredGraph, v: int) -> int | None:
    """The sole neighbor of degree-1 black v."""
    if v not in g.black or len(g.adj[v]) != 1:
        return None
    return next(iter(g.adj[v]))


PREDICATES = (  # indexed by SimpleRule
    _ww_partner,
    _white_no_black,
    _white_subsumed_partner,
    _black_to_white_partner,
    _isolated_black,
    _degree1_support,
)

STAT_NAMES = tuple(rule.name.lower() for rule in SimpleRule)

RULES_OF = ((0, 1, 2), (3, 4, 5))  # the rules a vertex can fire, by `v in black`
WHITE_RULES = RULES_OF[False]


# -- incremental fixed point ------------------------------------------


def initial_keys(g: ColoredGraph) -> list:
    """The keys the worklist starts from, as (rule, vertices) groups:
    every white under the white rules (one shared set); every black under
    BLACK_TO_WHITE, and also under ISOLATED_BLACK if it has no neighbor or
    DEGREE1_BLACK if it has one.  Those two rules cannot apply at a black
    of degree 2 or more, so every applicable key is among these."""
    adj, black = g.adj, g.black
    whites = adj.keys() - black
    low = {v for v in black if len(adj[v]) < 2}
    isolated = {v for v in low if not adj[v]}
    return [(r, whites) for r in WHITE_RULES] + [
        (SimpleRule.BLACK_TO_WHITE, set(black)),
        (SimpleRule.ISOLATED_BLACK, isolated),
        (SimpleRule.DEGREE1_BLACK, low - isolated),
    ]


def apply_simple_exhaustively(inst: Instance, trace: list | None = None) -> int:
    """Apply the six rules to a fixed point; returns the application count.

    Behaviorally identical to the naive loop.  Starting from the seed of
    `initial_keys`, it alternates two phases.  The white phase sweeps the
    white set, as the module docstring says.  The black phase pops from
    the lowest non-empty of three heaps of negated vertex ids, each with
    the set of ids queued in it, until a firing yields whites for the
    next white phase; the run ends when the black heaps run dry.  Both
    keep one invariant: every applicable key is queued.  The seed holds
    every key that applies at the start; each firing queues, by the
    table in the module docstring, every key its mutation may have made
    applicable; a key that applied before the firing and was not taken is
    still queued.  So the key taken and found valid is always the
    lowest-numbered applicable rule at its largest vertex.  Stale black
    keys, such as those of a whitened or removed vertex, are discarded on
    pop by re-validation.

    When `trace` is a list, each firing appends its (rule, vertex,
    witness) to it, in firing order.
    """
    g = inst.graph
    adj, black = g.adj, g.black
    queued, heaps = {}, {}
    for r, vertices in initial_keys(g):
        if r in WHITE_RULES:
            whites = vertices
        else:
            queued[r] = vertices
            heaps[r] = [-v for v in vertices]
            heapq.heapify(heaps[r])
    WW, NO_BLACK, SUBSUMED, TO_WHITE, ISOLATED, DEGREE1 = SimpleRule
    _, no_black, subsumed, to_white, isolated, degree1 = PREDICATES
    heappop, heappush = heapq.heappop, heapq.heappush
    fired = [0] * len(SimpleRule)

    def queue(rule, v):
        if v not in queued[rule]:
            queued[rule].add(v)
            heappush(heaps[rule], -v)

    def take(rule, predicate):
        """Pop rule's queued keys, largest first, up to the first that
        applies; count it and return its (vertex, witness), else None."""
        heap, pending = heaps[rule], queued[rule]
        while heap:
            v = -heappop(heap)
            pending.discard(v)
            if v in adj:
                witness = predicate(g, v)
                if witness is not None:
                    fired[rule] += 1
                    if trace is not None:
                        trace.append((rule, v, witness))
                    return v, witness
        return None

    while True:
        order = sorted(whites, reverse=True)
        for v in order:
            partners = adj[v] - black
            if partners:
                for w in sorted(partners, reverse=True):
                    g.remove_edge(v, w)
                    if trace is not None:
                        trace.append((WW, v, w))
                fired[WW] += len(partners)
        for v in order:
            if v in adj and no_black(g, v) is not None:
                g.remove_vertex(v)
                fired[NO_BLACK] += 1
                if trace is not None:
                    trace.append((NO_BLACK, v, v))
        for v in order:
            if v in adj and (witness := subsumed(g, v)) is not None:
                shrunk = adj[v] & black
                g.remove_vertex(v)
                fired[SUBSUMED] += 1
                if trace is not None:
                    trace.append((SUBSUMED, v, witness))
                for x in shrunk:
                    ax = adj[x]
                    if not ax:
                        queue(ISOLATED, x)
                    elif len(ax) == 1:
                        queue(DEGREE1, x)
                    for u in ax & black:
                        if len(adj[u]) >= len(ax) and ax <= adj[u] | {u}:
                            queue(TO_WHITE, u)

        if (key := take(TO_WHITE, to_white)) is not None:
            v, _ = key
            black.remove(v)
            whites = adj[v] - black
            whites.add(v)
            continue
        while (key := take(ISOLATED, isolated)) is not None:
            inst.take_into_solution(key[0])
        if (key := take(DEGREE1, degree1)) is None:
            break
        _, s = key
        whitened = adj[s] & black
        whites = set(adj[s])
        inst.take_into_solution(s)
        for y in whitened:
            whites |= adj[y] - black

    for rule, n in enumerate(fired):
        if n:
            inst.stats[STAT_NAMES[rule]] += n
    return sum(fired)
