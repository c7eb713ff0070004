"""The six local reduction rules and their exhaustive application.

Three rules act at white vertices and three at black ones; a predicate
reads a vertex's color as its membership in ``g.black``, and the worklist
queues each vertex only under the rules of its color.

Rule order is fixed.  One "step" of the reference semantics applies the
lowest-numbered rule that matches anywhere, at its largest matching vertex
(rule 1 removes the edge at the largest white vertex with a white neighbor,
toward its largest white neighbor).  The production fixed-point driver
reproduces exactly that sequence of steps but re-checks only vertices whose
local structure a mutation could have changed, which is what makes large
sparse instances affordable.

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
    """Some neighbor v of white u with N[u] cap Black <= N[v] cap Black.
    Which one does not matter: the rule removes u whatever the witness."""
    if u in g.black:
        return None
    adj = g.adj
    need = adj[u] & g.black
    for v in adj[u]:
        missing = need - adj[v]
        if not missing or missing == {v}:
            return v
    return None


def _black_to_white_partner(g: ColoredGraph, u: int) -> int | None:
    """Some black neighbor v of black u with N[u] >= N[v].  Which one does
    not matter: the rule whitens u whatever the witness."""
    if u not in g.black:
        return None
    adj = g.adj
    ball = adj[u] | {u}
    for v in adj[u] & g.black:
        if adj[v] <= ball:
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


def fire(inst: Instance, rule: int, v: int, witness: int) -> tuple:
    """Apply rule at v with the witness its predicate returned.  Returns the
    vertices whose adjacency or color the mutation touched, all of which
    survive it; only vertices at distance <= 1 from a touched one can
    change applicability."""
    g = inst.graph
    if rule == SimpleRule.WW_EDGE:
        g.remove_edge(v, witness)
        touched = (v, witness)
    elif rule == SimpleRule.WHITE_NO_BLACK or rule == SimpleRule.WHITE_SUBSUMED:
        touched = tuple(g.adj[v])
        g.remove_vertex(v)
    elif rule == SimpleRule.BLACK_TO_WHITE:
        g.black.remove(v)
        touched = (v,)
    else:  # ISOLATED_BLACK is its own witness and has no neighbors
        touched = tuple(g.adj[witness])
        inst.take_into_solution(witness)
    inst.stats[STAT_NAMES[rule]] += 1
    return touched


# -- incremental fixed point ------------------------------------------


def apply_simple_exhaustively(inst: Instance) -> int:
    """Apply the six rules to a fixed point; returns the application count.

    Behaviorally identical to the naive loop: candidates live in one heap of
    (rule, -vertex) keys, so the popped valid candidate is always the
    lowest-numbered applicable rule at its largest vertex.  A vertex is
    queued only under the rules its color can fire, RULES_OF[v in black].
    After a firing, exactly the vertices whose predicate inputs could have
    changed (the touched vertices and their surviving neighbors) are
    re-queued under the rules of their current color.  Tier 1 never turns a
    white vertex black, and every vertex it whitens is re-queued, so no
    applicable candidate is missed.  Stale heap entries, such as the black
    rules of a whitened vertex, are discarded on pop by re-validation.
    """
    g = inst.graph
    adj = g.adj
    black = g.black
    heap = [(r, -v) for v in adj for r in RULES_OF[v in black]]
    heapq.heapify(heap)
    queued = set(heap)
    predicates = PREDICATES
    count = 0
    while heap:
        key = heapq.heappop(heap)
        queued.discard(key)
        rule, v = key[0], -key[1]
        if v not in adj:
            continue
        witness = predicates[rule](g, v)
        if witness is None:
            continue
        touched = fire(inst, rule, v, witness)
        count += 1
        for x in g.closed_neighborhood_of_set(touched):
            for r in RULES_OF[x in black]:
                key = (r, -x)
                if key not in queued:
                    queued.add(key)
                    heapq.heappush(heap, key)
    return count
