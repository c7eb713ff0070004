"""Irrelevant-dominatee reduction built on greedy domination and scattering.

The driver takes a greedy dominator pool D', extracts a 1-scattered family
F of blacks outside the pool after deleting a few hubs, groups F by how the
pool and the deleted hubs see each member, and whitens group members that a
counting argument shows some optimal solution never needs as dominatees.

Only groups of at least 3 members can whiten: a member is black and lies
outside the pool, so it is one of the blacks the group's cover must
dominate, the cover has at least one vertex, and the excess |B| - cover - 1
is at most |B| - 2.  Smaller groups are never keyed in full nor covered.
"""

from __future__ import annotations

import heapq
import math
from itertools import chain

from .graph import ColoredGraph, Instance, Touched, is_1_scattered


def greedy_dominating_set(g: ColoredGraph, targets) -> set[int]:
    """Greedy max-coverage dominating set of the target vertices.

    Each step takes the vertex covering the most still-uncovered targets,
    ties to the smallest id.  Lazily re-evaluates stale heap entries, which
    is equivalent to the full rescan because coverage only shrinks.  Only
    N[targets] covers any, so only it is read, and group_and_reduce's
    calls stay local.  Every vertex of N[targets] covers at least one
    target, so every one starts in the heap.
    """
    remaining = set(targets)
    out: set[int] = set()
    if not remaining:
        return out
    adj = g.adj
    reach = remaining.union(*map(adj.__getitem__, remaining))
    heap = [(-len(adj[v] & remaining) - (v in remaining), v) for v in reach]
    heapq.heapify(heap)
    while remaining:
        negc, v = heapq.heappop(heap)
        c = len(adj[v] & remaining) + (1 if v in remaining else 0)
        if c == 0:
            continue
        if c == -negc:
            out.add(v)
            remaining -= adj[v]
            remaining.discard(v)
        else:
            heapq.heappush(heap, (-c, v))
    return out


def uqw_scatter(g: ColoredGraph, candidates, removed) -> tuple[frozenset, frozenset]:
    """Pull a 1-scattered subset out of the candidates in g with `removed`
    masked out: its vertices, their edges and candidates among them are
    ignored, as if deleted from g.

    First deletes up to sqrt(#candidates) hub vertices whose residual degree
    exceeds max(8, twice the average degree of g - removed), highest degree
    first, ties to the smaller id, since hubs glue neighborhoods together and
    starve the scatter.  Then greedily accepts candidates in ascending
    residual degree order, ties to the smaller id, blocking the radius-2
    ball of every acceptance.  Returns (scattered, deleted).  The output is
    1-scattered in g - removed - deleted by construction;
    ``group_and_reduce`` checks that property before it whitens anything.
    """
    adj = g.adj
    deg = {v: len(adj[v] - removed) for v in adj if v not in removed}
    candidates = set(candidates) - removed
    if not deg or not candidates:
        return frozenset(), frozenset()

    cutoff = max(8.0, 4.0 * (sum(deg.values()) // 2) / len(deg))
    cap = math.sqrt(len(candidates))

    deleted: set[int] = set()
    while len(deleted) < cap and max(deg.values()) > cutoff:
        v = min(deg, key=lambda x: (-deg[x], x))
        del deg[v]
        deleted.add(v)
        for u in adj[v]:
            if u in deg:
                deg[u] -= 1

    gone = removed | deleted
    order = sorted(candidates - deleted)
    order.sort(key=deg.__getitem__)
    blocked: set[int] = set()
    scattered: list[int] = []
    for c in order:
        if c in blocked:
            continue
        scattered.append(c)
        blocked.add(c)
        for u in adj[c] - gone:
            blocked.add(u)
            blocked.update(adj[u] - gone)
    return frozenset(scattered), frozenset(deleted)


def group_and_reduce(inst: Instance, d: frozenset, scattered, log: list) -> int:
    """Whiten irrelevant dominatees inside a 1-scattered family, against the
    pool d: D' plus the hubs the scatter call deleted; returns how many,
    and appends them to `log`.

    Members are grouped by the pair (direct pool contact, two-step contact
    with black pool members).  For a group B the counting argument: the
    dominators of B's members in any solution are pairwise distinct and live
    in M = N[B] - D, every such dominator also covers only blacks inside
    R = N[M] cap Black, so whenever |B| exceeds a dominating set of R plus
    one, the excess members (largest ids) never need their own dominator
    and lose their black color.  Groups with empty pool contact are skipped.

    Only groups of at least 3 members are covered.  Every member is black
    and outside d (the scattered check refuses a member in d), so it lies
    in M and in R: the cover has at least one vertex, and the excess
    |B| - cover - 1 is at most |B| - 2.  Members are therefore grouped by
    pool contact first, and the two-step key is built only for contact
    classes of at least 3 members, since a group is a subset of its class.
    """
    g = inst.graph
    adj = g.adj
    for f in scattered:
        if f not in g.black:
            raise AssertionError(f"scattered vertex {f} is not black")
    if not is_1_scattered(g, scattered, d):
        raise AssertionError("family is not 1-scattered outside the pool")

    by_contact: dict = {}
    for f in sorted(scattered):
        by_contact.setdefault(frozenset(adj[f] & d), []).append(f)
    by_contact.pop(frozenset(), None)

    pool_blacks = d & g.black
    groups: dict = {}
    for contact, members in by_contact.items():
        if len(members) < 3:
            continue
        for f in members:
            second = pool_blacks.intersection(
                chain.from_iterable(map(adj.__getitem__, adj[f]))
            )
            groups.setdefault((contact, second), []).append(f)

    whitened = 0
    for key in sorted(groups, key=lambda k: (sorted(k[0]), sorted(k[1]))):
        members = groups[key]
        if len(members) < 3:
            continue
        m = g.ball(members, 1) - d
        reach = g.ball(m, 1)
        cover = len(greedy_dominating_set(g, reach & g.black))
        excess = len(members) - cover - 1
        if excess <= 0:
            continue
        whiten = sorted(members, reverse=True)[:excess]
        g.black.difference_update(whiten)
        log += whiten
        whitened += excess
    if whitened:
        inst.stats["sparsity_whitened"] += whitened
    return whitened


def sparsity_reduce(inst: Instance, touched: Touched) -> int:
    """One pass; returns how many blacks were whitened.

    Takes a greedy dominating pool D' of the current blacks, scatters the
    blacks outside it, and whitens irrelevant dominatees group by group
    against D' plus the hubs the scatter deleted.

    Every call scans the whole graph, and logs the vertices it whitened
    in `touched`.
    """
    g = inst.graph
    if not g.black:
        return 0
    d_prime = greedy_dominating_set(g, g.black)
    scattered, deleted = uqw_scatter(g, g.black - d_prime, d_prime)
    inst.stats["sparsity_passes"] += 1
    inst.stats["sparsity_scatter_calls"] += 1
    return group_and_reduce(inst, frozenset(d_prime | deleted), scattered, touched.log)
