"""The six local reduction rules and their exhaustive application.

Three rules act at white vertices and three at black ones; a predicate
reads a vertex's color as its membership in ``g.black``, and the worklist
queues each vertex only under the rules of its color.  It seeds a black
under ISOLATED_BLACK or DEGREE1_BLACK only at degree 0 or 1, where those
rules can apply; `fire` queues them wherever a firing drops a black's
degree that far.

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
WHITE_NO_BLACK and WHITE_SUBSUMED, `fire` returns these (rule, vertices)
groups; the white rules share one vertex set:

  fired at v          groups returned, and which predicate inputs moved
  WW_EDGE (with w)    WW_EDGE: {v}.  v and w each lose a white neighbor;
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
re-checking the rule at a vertex until it fails, which takes the same
keys in the same order.

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
WHITE_RULES, BLACK_RULES = RULES_OF


def fire(inst: Instance, rule: int, v: int, witness: int) -> list:
    """Apply rule at v with the witness its predicate returned.  Returns
    the keys the mutation may have made applicable, per the table in the
    module docstring, as (rule, vertices) groups: if a key applies now but
    did not before the firing, or it is the fired key and still applies,
    its vertex is in a group of its rule.  Every returned vertex survives
    and is grouped under a rule of its current color.  The white rules'
    groups share one set, which callers only read."""
    g = inst.graph
    adj, black = g.adj, g.black
    if rule == SimpleRule.WW_EDGE:
        g.remove_edge(v, witness)
        keys = [(rule, {v})]
    elif rule == SimpleRule.WHITE_NO_BLACK:
        g.remove_vertex(v)
        keys = []
    elif rule == SimpleRule.WHITE_SUBSUMED:
        shrunk = adj[v] & black  # the blacks whose adjacency loses v
        g.remove_vertex(v)
        isolated, degree1, whitenable = set(), set(), set()
        for x in shrunk:
            ax = adj[x]
            if not ax:
                isolated.add(x)
            elif len(ax) == 1:
                degree1.add(x)
            for u in ax & black:
                if len(adj[u]) >= len(ax) and ax <= adj[u] | {u}:
                    whitenable.add(u)
        keys = [
            (SimpleRule.BLACK_TO_WHITE, whitenable),
            (SimpleRule.ISOLATED_BLACK, isolated),
            (SimpleRule.DEGREE1_BLACK, degree1),
        ]
    elif rule == SimpleRule.BLACK_TO_WHITE:
        black.remove(v)
        whites = adj[v] - black
        whites.add(v)
        keys = [(r, whites) for r in WHITE_RULES]
    else:  # ISOLATED_BLACK is its own witness and has no neighbors
        whitened = adj[witness] & black
        whites = set(adj[witness])
        inst.take_into_solution(witness)
        for y in whitened:
            whites |= adj[y] - black
        keys = [(r, whites) for r in WHITE_RULES]
    inst.stats[STAT_NAMES[rule]] += 1
    return keys


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


def apply_simple_exhaustively(inst: Instance) -> int:
    """Apply the six rules to a fixed point; returns the application count.

    Behaviorally identical to the naive loop.  Starting from the seed of
    `initial_keys`, it alternates two phases.  The white phase sweeps the
    white set, as the module docstring says.  The black phase pops from
    the lowest non-empty of three heaps of negated vertex ids, each with
    the set of ids queued in it, until a firing returns whites for the
    next white phase; the run ends when the black heaps run dry.  Both
    keep one invariant: every applicable key is queued.  The seed holds
    every key that applies at the start; `fire` returns, grouped by rule,
    every key its mutation may have made applicable; a key that applied
    before the firing and was not taken is still queued.  So the key taken
    and found valid is always the lowest-numbered applicable rule at its
    largest vertex.  Stale black keys, such as those of a whitened or
    removed vertex, are discarded on pop by re-validation.
    """
    g = inst.graph
    adj = g.adj
    queued, heaps = {}, {}
    for r, vertices in initial_keys(g):
        if r in WHITE_RULES:
            whites = vertices
        else:
            queued[r] = vertices
            heaps[r] = [-v for v in vertices]
            heapq.heapify(heaps[r])
    predicates = PREDICATES
    heappop, heappush = heapq.heappop, heapq.heappush
    count = 0
    while True:
        order = sorted(whites, reverse=True)
        for rule in WHITE_RULES:
            predicate = predicates[rule]
            for v in order:
                while v in adj:
                    witness = predicate(g, v)
                    if witness is None:
                        break
                    count += 1
                    for r, vertices in fire(inst, rule, v, witness):
                        if r in heaps:  # WW_EDGE's {v} is the next `while` test
                            new = vertices - queued[r]
                            queued[r] |= new
                            for x in new:
                                heappush(heaps[r], -x)
        whites = ()
        for rule in BLACK_RULES:
            heap, pending, predicate = heaps[rule], queued[rule], predicates[rule]
            while heap and not whites:
                v = -heappop(heap)
                pending.discard(v)
                if v not in adj:
                    continue
                witness = predicate(g, v)
                if witness is None:
                    continue
                count += 1
                whites = fire(inst, rule, v, witness)[0][1]  # one set, all white rules
            if whites:
                break
        else:
            return count
