"""The six local reduction rules and their exhaustive application.

Three rules act at white vertices and three at black ones; a rule reads
a vertex's color as its membership in ``g.black``, and the worklist
queues each vertex only under the rules of its color.  It seeds a black
under ISOLATED_BLACK or DEGREE1_BLACK only at degree 0 or 1, where those
rules can apply, and queues them wherever a firing drops a black's degree
that far.

Rule order is fixed.  One "step" of the reference semantics applies the
lowest-numbered rule that matches anywhere, at its largest matching vertex
(rule 1 removes the edge at the largest white vertex with a white neighbor,
toward its largest white neighbor).  The production fixed-point driver
reproduces exactly that sequence of steps from one queue of vertices
per rule, taking from the lowest non-empty one; BLACK_TO_WHITE's seed,
every black a run starts from, waits in a sorted list beside its queue.
It keeps one invariant: every applicable (rule, vertex) key is queued.
After a firing it queues only the keys that the firing may have made
applicable, which is what makes large sparse instances affordable.

Those keys follow from what each rule's condition reads.  Tier 1 only
deletes edges and vertices and whitens blacks, so a condition can newly
hold only where one of its inputs moved.  With "the white rules" for
WW_EDGE, WHITE_NO_BLACK and WHITE_SUBSUMED, each branch of the driver
applies its rule's mutation and queues these keys; the white rules share
one vertex set:

  fired at v          keys queued, and which condition inputs moved
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
                      Those u are found through one anchor a in N(x): a u
                      other than a has a in N(x) <= N[u], so u is in N(a).
                      Every such u thus lies in {a} | (N(x) & N(a)), and
                      the driver tests only those, not every black of N(x),
                      which would cost a hub x its whole degree.  An x
                      left with no edge has no such u.
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
sweeps that set once per white rule.  WW_EDGE's sweep removes every
white-white edge of v at once: that is what re-checking the rule at v
until it fails would do.  It relies on the set holding only whites, which
holds because tier 1 never blackens a vertex.  After the WW_EDGE sweep
every vertex of the set has only black neighbors, and keeps them: the
other two sweeps remove whites only.  So WHITE_NO_BLACK fires exactly at
the swept vertices left with no edge, and WHITE_SUBSUMED at v needs a
neighbor u with N(v) <= N[u].  WHITE_NO_BLACK and WHITE_SUBSUMED remove
v, so they fire at most once per vertex.

Sweeping largest vertex and partner first takes the queues' keys in
their order, firing by firing and witness by witness.  Only the trace
needs that, so only a traced run sorts: any order ends in one state.
WW_EDGE removes every white-white edge of the set, one `remove` at a
time, so each set keeps its layout and so its iteration order.  A
vertex is lonely or covered from its own sweep on: WHITE_SUBSUMED at v
reads N(v), all black, and N(u) of a black u, which loses only whites,
and its `len(adj[u]) >= k` filter holds wherever the rule does.  Its
BLACK_TO_WHITE test at y, N(x) <= N[y], turns true only where N(x)
shrinks and then stays true, so any order queues the same keys.

Each rule is stated once in this module: by its branch of the driver,
which tests the rule's condition inline and applies its mutation.  The
rules' plain statements, one predicate per rule, live in
``tests/helpers.py`` with the naive loop that applies them one step at a
time; the tests check the driver's firing sequence against that loop.

Within one kernelize run tier 1 runs again after every higher tier that
reduces, and those tiers fire only on a tier-1 fixed point.  A rule's
condition at u reads only the adjacency and colour of u and of u's
neighbors; if none of them changed, neither did the condition.  So after
the changes T that the run's `Touched` log holds since tier 1 last ran,
only the keys of N[T] can have become applicable.  The re-run is seeded
with N[T] alone, which keeps the invariant the worklist needs, so it fires
exactly what a seed of every vertex would.  Once a higher tier has
looked at the log, tier 1 logs what each firing changes; until then
every tier scans in full at its next call, and nothing is logged.

ISOLATED_BLACK's queue is a plain set, taken in one descending pass:
its take touches no other vertex, so no take queues another isolated
key, and the pass takes them in a heap's order.

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
from collections.abc import Set
from enum import IntEnum

from .graph import ColoredGraph, Instance, Touched


class SimpleRule(IntEnum):
    """The six rules in application order."""

    WW_EDGE = 0          # drop an edge between two whites
    WHITE_NO_BLACK = 1   # drop a white with no black neighbor
    WHITE_SUBSUMED = 2   # drop a white whose black coverage a neighbor matches
    BLACK_TO_WHITE = 3   # whiten a black inside an adjacent black's ball
    ISOLATED_BLACK = 4   # take an isolated black
    DEGREE1_BLACK = 5    # take the sole neighbor of a degree-1 black


STAT_NAMES = tuple(rule.name.lower() for rule in SimpleRule)

# This tier's name as a reader of the run's `Touched` log.
READER = "simple"


# -- incremental fixed point ------------------------------------------


def initial_keys(g: ColoredGraph, near: Set[int]) -> tuple:
    """The vertices the worklist starts from, as (whites, blacks,
    isolated, degree1): every white of the vertex set `near` (pass
    ``g.adj.keys()`` for every vertex), queued under the three white
    rules; every black of it, under BLACK_TO_WHITE; and those blacks with
    no neighbor or one, under ISOLATED_BLACK or DEGREE1_BLACK.  Those two
    rules cannot apply at a black of degree 2 or more, so every
    applicable key of `near` is among these."""
    adj, black = g.adj, g.black
    blacks = near & black
    low = {v for v in blacks if len(adj[v]) < 2}
    isolated = {v for v in low if not adj[v]}
    return near - black, blacks, isolated, low - isolated


def apply_simple_exhaustively(
    inst: Instance, trace: list | None = None, *, touched: Touched
) -> int:
    """Apply the six rules to a fixed point; returns the application count.

    Behaviorally identical to the naive loop.  Starting from the seed of
    `initial_keys`, it alternates two phases.  The white phase sweeps the
    white set, as the module docstring says, sorted only for `trace`.  The
    black phase takes from the lowest non-empty of three queues until a
    firing yields whites for the next white phase; the run ends when the
    queues run dry.  BLACK_TO_WHITE and DEGREE1_BLACK each keep a heap of
    negated vertex ids and the set of ids queued in it; ISOLATED_BLACK
    keeps only a set, emptied in one descending pass.  BLACK_TO_WHITE's seed waits apart, in one ascending
    list: a take pops the larger of its last key and the heap's head, so
    keys come in the heap's order, each queued once.  Both keep one
    invariant: every applicable key is queued.  The seed holds every key
    that applies at the start; each firing queues, by the table in the
    module docstring, every key its mutation may have made applicable; a
    key that applied before the firing and was not taken is still queued.
    (WHITE_SUBSUMED's BLACK_TO_WHITE keys come from one anchor neighbor of
    each shrunken black x and the neighbors the two share; the table's
    anchor argument shows that this queues exactly the keys a scan of all
    of N(x) would.)  So the key taken and found valid is always the
    lowest-numbered applicable rule at its largest vertex.  Stale black
    keys, such as those of a whitened or removed vertex, are discarded on
    pop by re-validation.

    When `trace` is a list, each firing appends its (rule, vertex,
    witness) to it, in firing order.

    `touched` is the run's log of changed vertices: the seed is N[T] for
    the vertices T changed since this tier last ran (see the module
    docstring), and on this tier's first look at it every vertex.
    """
    g = inst.graph
    adj, black = g.adj, g.black
    near = touched.near(g, READER)
    log = touched.log if touched.watched(READER) else None
    traced = trace is not None
    noting = traced or log is not None
    if noting:
        def note(rule, v, witness, also=()):
            """Record one firing: in the trace, and the vertices it
            changed (among v, the witness and `also`) in the log."""
            if trace is not None:
                trace.append((rule, v, witness))
            if log is not None:
                log.append(v)
                log.append(witness)
                log.extend(also)

    whites, to_white_q, isolated_q, degree1_q = initial_keys(g, near)
    seed, to_white_h = sorted(to_white_q), []
    degree1_h = [-v for v in degree1_q]
    heapq.heapify(degree1_h)
    heappop, heappush = heapq.heappop, heapq.heappush
    WW, NO_BLACK, SUBSUMED, TO_WHITE, ISOLATED, DEGREE1 = SimpleRule
    ww = no_black = subsumed = to_white = isolated = degree1 = 0

    while True:
        # The white phase.  After v's WW_EDGE turn every neighbor of v is
        # black, and stays so: so WHITE_NO_BLACK applies at v exactly
        # when v is left with no edge, and the black neighbors that
        # WHITE_SUBSUMED must cover are all of N(v).
        lonely, covered = [], []
        for v in sorted(whites, reverse=True) if traced else whites:
            av = adj[v]
            if not av <= black:
                partners = av - black
                for w in sorted(partners, reverse=True) if traced else partners:
                    av.remove(w)
                    adj[w].remove(v)
                    if noting:
                        note(WW, v, w)
                ww += len(partners)
            (covered if av else lonely).append(v)
        for v in lonely:
            del adj[v]
            if noting:
                note(NO_BLACK, v, v)
        no_black += len(lonely)
        for v in covered:
            av = adj[v]
            k = len(av)
            for u in av:  # N(v) - N(u) is at least {u}
                if len(au := adj[u]) >= k and len(av - au) == 1:
                    break
            else:
                continue
            del adj[v]
            subsumed += 1
            if noting:
                note(SUBSUMED, v, u, av)
            for x in av:
                ax = adj[x]
                ax.remove(v)
                if not ax:  # x had an edge until now, so was not queued
                    isolated_q.add(x)
                    continue
                if len(ax) == 1 and x not in degree1_q:
                    degree1_q.add(x)
                    heappush(degree1_h, -x)
                # Every y in N(x) with N(x) <= N[y] is the anchor a or
                # a neighbor of it (see the module docstring).
                for a in ax:
                    break
                candidates = ax & adj[a]
                candidates.add(a)
                degree = len(ax)
                for y in candidates:  # N(x) - N(y) is at least {y}
                    if (y in black and y not in to_white_q
                            and len(ay := adj[y]) >= degree and len(ax - ay) == 1):
                        to_white_q.add(y)
                        heappush(to_white_h, -y)

        # The black phase: BLACK_TO_WHITE at its largest queued black
        # that has a black neighbor x with N(x) <= N[u]; then every
        # isolated black; then one DEGREE1_BLACK.
        witness = None
        while (seed or to_white_h) and witness is None:
            if to_white_h and (not seed or -to_white_h[0] > seed[-1]):
                u = -heappop(to_white_h)
            else:
                u = seed.pop()
            to_white_q.discard(u)
            if u in black:
                au = adj[u]
                degree = len(au)
                for x in au & black:  # N(x) - N(u) is at least {u}
                    if len(ax := adj[x]) <= degree and len(ax - au) == 1:
                        witness = x
                        break
        if witness is not None:
            black.remove(u)
            to_white += 1
            if noting:
                note(TO_WHITE, u, witness)
            whites = au - black
            whites.add(u)
            continue
        for v in sorted(isolated_q, reverse=True):
            isolated_q.discard(v)
            if v in black and not adj[v]:
                inst.take_into_solution(v)
                isolated += 1
                if noting:
                    note(ISOLATED, v, v)
        while degree1_h:
            v = -heappop(degree1_h)
            degree1_q.discard(v)
            if v in black and len(adj[v]) == 1:
                (witness,) = adj[v]
                break
        if witness is None:
            break
        degree1 += 1
        if noting:
            note(DEGREE1, v, witness, adj[witness])
        whitened = adj[witness] & black
        whites = set(adj[witness])
        inst.take_into_solution(witness)
        for y in whitened:
            whites |= adj[y] - black

    touched.mark(READER)
    fired = (ww, no_black, subsumed, to_white, isolated, degree1)
    for name, n in zip(STAT_NAMES, fired):
        if n:
            inst.stats[name] += n
    return sum(fired)
