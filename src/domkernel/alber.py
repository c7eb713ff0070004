"""Neighborhood-partition reductions around one vertex and around a pair.

Both rules split a (joint) open neighborhood into three shells: n1 has an
exit to the rest of the graph, n2 touches n1, and n3 touches neither.  A
black vertex in n3 can only be dominated from inside the ball, which forces
the center(s) in, or at least lets everything the centers would cover be
whitened.

The single rule needs no partition: a black x lies in n3(v) exactly when
x is a neighbor of v and N(y) lies inside N[v] for every y in N[x] - {v}
(y = x keeps x out of n1, the other y keep x out of n2).  So its scan is
one pass over the blacks, and its test at a black x, for every v in
N(x), reads the adjacency of N[x] and the colour of x.  The pair rule
partitions at each pair that has two blacks x with N(x) inside the
joint closed neighborhood; those pairs are generated from the blacks'
neighborhoods, and the rule returns False, changing nothing, at every
other pair.  The rule and that candidacy at (v, w) read the adjacency
and colour of N[v] | N[w].

Within one kernelize run both scans resume where their last call
stopped, reading the run's `Touched` log of changed vertices.  Each
key's test reads only its closed neighbourhood, the black x's or the
pair's (tests/test_alber.py::TestChangesBeyondRadius1), and the log
holds every vertex whose adjacency or colour changed.  So after changes
T only the blacks, and the pairs with an endpoint, in N[T] can change
outcome: `Touched.near` gives that set.

A call that hit found every key or pair before its hit to fail, and
tried none after it; a call that missed found them all to fail.  So the
next call must try, in the same order, the dirty ones before the last
hit and every one from the hit on; every other one before the hit still
fails, and the first that fires is the first hit of the full scan.  The
pair scan keeps its untried candidates in a heap, to which it adds the
dirty candidates.  The single scan, whose hits are rare, keeps only
whether its last call hit: after a hit it tries every black again,
after a miss only the dirty ones.
"""

from __future__ import annotations

from collections.abc import Set
from heapq import heapify, heappop, heappush

from .graph import ColoredGraph, Instance, Touched

# The two tiers' names as readers of the run's `Touched` log.
SINGLE, PAIR = "single", "pair"


def partition(g: ColoredGraph, *centers: int) -> tuple[set, set, set]:
    """Split the joint open neighborhood of the centers (one vertex or a
    pair) into n1 = exits from the joint closed neighborhood, n2 = the rest
    touching n1, and n3 = the rest."""
    if len(set(centers)) != len(centers):
        raise ValueError("partition needs distinct centers")
    adj = g.adj
    ball = set(centers).union(*map(adj.__getitem__, centers))
    shell = ball.difference(centers)
    n1 = {u for u in shell if not adj[u] <= ball}
    n2 = {u for u in shell - n1 if not adj[u].isdisjoint(n1)}
    return n1, n2, shell - n1 - n2


def alber_rule2(inst: Instance, v: int, w: int) -> bool:
    """Pair rule: fires when at least two blacks in n3 exist and no single
    vertex of n2 u n3 covers them all.  Then the blacks of n3 are dominated
    by v, by w, or by both together; each case either commits vertices or
    whitens what the pair would cover.
    """
    g = inst.graph
    _, n2, n3 = partition(g, v, w)
    adj = g.adj
    n3_black = n3 & g.black
    if len(n3_black) < 2:
        return False
    for x in n2 | n3:
        if n3_black <= adj[x] | {x}:
            return False
    v_covers = n3_black <= adj[v]
    w_covers = n3_black <= adj[w]
    if v_covers and w_covers:
        # Either endpoint would do, so nothing can be committed; instead
        # whiten everything both would cover and plant two degree-2 black
        # witnesses that keep one of v, w forced.  Only worth it when the
        # potential strictly drops: 2 vertices + 4 edges + 2 blacks come
        # in, so at least 9 vertices must lose their black color.
        whiten = (n3 | (n2 & adj[v] & adj[w])) & g.black
        if len(whiten) <= 8:
            return False
        g.black -= whiten
        z1 = g.add_vertex()
        z2 = g.add_vertex()
        for z in (z1, z2):
            g.add_edge(z, v)
            g.add_edge(z, w)
        inst.stats["alber_pair_gadget"] += 1
    elif v_covers:
        inst.take_into_solution(v)
    elif w_covers:
        inst.take_into_solution(w)
    else:
        inst.take_into_solution(v)
        inst.take_into_solution(w)
    inst.stats["alber_pair"] += 1
    return True


def pair_candidates(g: ColoredGraph, near: Set[int]) -> list:
    """The pairs (v, w), v < w, lexicographic, with an endpoint in the
    vertex set `near` (``g.adj.keys()`` for every pair), that at least
    two distinct blacks x count for: x in N(v) counts for w when N(x)
    lies inside N[v] | N[w] and w is neither v nor x, and symmetrically.
    Every black of n3(v, w) counts for the pair, and the pair rule needs
    two, so it can fire nowhere else.

    With rest = N(x) - N[v], x counts for the w in the intersection of
    N[y] over y in rest; each is within distance 3 of v (v, x, y, w).
    When rest is empty, x counts for every w within distance 3 of v, the
    partners the full scan would try.  So a black that counts for a pair
    with an endpoint in near lies within distance 4 of near (x, v, and
    three steps to w), and only those blacks are read."""
    adj = g.adj
    blacks = g.ball(near, 4) & g.black
    balls = {}
    first = {}  # pair -> the first black counted for it
    out = set()
    for x in blacks:
        ax = adj[x]
        for v in ax:
            rest = ax - adj[v]
            rest.discard(v)
            if rest:
                y = rest.pop()
                partners = adj[y] | {y}
                for y in rest:
                    partners &= adj[y] | {y}
            else:
                partners = balls.get(v)
                if partners is None:
                    partners = balls[v] = g.ball((v,), 3)
            for w in partners:
                if w != v and w != x:
                    pair = (v, w) if v < w else (w, v)
                    if first.setdefault(pair, x) != x:
                        out.add(pair)
    return sorted(p for p in out if p[0] in near or p[1] in near)


def apply_alber_single_first(inst: Instance, touched: Touched) -> bool:
    """Take the smallest centre v with a black in its n3 shell, if any:
    one pass over the blacks x, each tried at its neighbors v below the
    best centre so far.  That is the first hit of the rule tried at every
    vertex, ascending.

    After a call that missed, a (v, x) can newly pass only where N[x]
    changed (see the module docstring): the pass reads only the blacks
    of `Touched.near`, and any other black still fails at every v.  At
    the first call `near` is every vertex, and after a hit the pass
    reads every black.

    A black x in n3(v) is dominated only from within N[v] minus n1, and
    every dominator there has its closed neighborhood inside N[v], so
    swapping it for v never hurts.
    """
    g = inst.graph
    adj, black = g.adj, g.black
    near = touched.near(g, SINGLE)
    best = None
    for x in black if touched.scans.get(SINGLE) else near & black:
        ax = adj[x]
        for v in ax:
            if best is not None and v >= best:
                continue
            # N(y) - N(v) holds v for every y in N[x] - {v}, all of them in
            # N(v) once x passes, so N(y) <= N[v] means it holds only v.
            av = adj[v]
            if len(ax - av) == 1 and all(
                    len(adj[y] - av) == 1 for y in ax if y != v):
                best = v
    touched.scans[SINGLE] = best is not None  # whether this call hit
    if best is None:
        return False
    touched.log.append(best)
    touched.log += adj[best]
    inst.take_into_solution(best)
    inst.stats["alber_single"] += 1
    return True


def apply_alber_pair_first(inst: Instance, touched: Touched) -> bool:
    """Apply the pair rule at the first pair, lexicographic, where it
    fires among `pair_candidates`, the only pairs where it can; that is
    the first hit of a scan over every pair at distance <= 3.

    The untried candidates wait in a heap of (v, w, stamp) that lasts
    the run.  Each call queues the candidates with an endpoint in
    `Touched.near`: every vertex at the first call, and after it N[T]
    for the vertices T changed since the last call.  They and every
    vertex of `near` are stamped with the log's length, which marks
    every older entry with an endpoint in `near` stale.  An entry that is
    stale or has lost an endpoint is dropped unread, and stays so.  So
    where `near` holds every vertex, only the entries this call queued
    are tried, as a scan from the start would try them.  Once the heap
    holds more than twice the entries it kept at its last rebuild, so
    that the stale ones may outnumber the live ones, a call rebuilds it
    from the live ones: a heap pops in its entries' order, however it
    was built.
    """
    g = inst.graph
    adj = g.adj
    near = touched.near(g, PAIR)
    stamp = len(touched.log)  # larger at every call that sees a change
    queue, requeued, kept = touched.scans.get(PAIR, ([], {}, 0))
    for v in near:
        requeued[v] = stamp

    def live(v, w, queued):
        return (v in adj and w in adj and requeued.get(v, -1) <= queued
                and requeued.get(w, -1) <= queued)

    if len(queue) > 2 * kept:  # stale entries may outnumber live ones
        queue = [entry for entry in queue if live(*entry)]
        heapify(queue)
        kept = len(queue)
    touched.scans[PAIR] = queue, requeued, kept
    for v, w in pair_candidates(g, near):
        heappush(queue, (v, w, stamp))
    while queue:
        v, w, queued = heappop(queue)
        if live(v, w, queued):
            av, aw = adj[v], adj[w]  # kept after a take removes v or w
            if alber_rule2(inst, v, w):
                # v, w and their neighborhoods hold every vertex it changed.
                touched.log += (v, w, *av, *aw)
                return True
    return False
