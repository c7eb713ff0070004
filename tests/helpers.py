"""Shared test utilities: tiny graph builders, brute-force oracles and
audits kept independent of the package's own code, golden reference models
the production code is checked against, and hypothesis strategies for small
random colored instances."""

from __future__ import annotations

import heapq
import itertools
import math
import random
from pathlib import Path

from hypothesis import strategies as st

from domkernel.alber import alber_rule2, partition
from domkernel.bench import CSV_COLUMNS
from domkernel.edgelist import _refuse, load_graph, read_text
from domkernel.engine import ApproachConfig, kernelize
from domkernel.exact import DEFAULT_VERTEX_LIMIT, exact_dom
from domkernel.graph import ColoredGraph, Instance, Touched, is_1_scattered
from domkernel.plangen import GroupSpec, _mix, generate_instance
from domkernel.simple_rules import STAT_NAMES, SimpleRule


# -- builders ----------------------------------------------------------


def colored(edges, white=(), isolated=()) -> ColoredGraph:
    """The graph on `edges` plus the `isolated` ids, black except `white`.
    A white id that is not a vertex raises KeyError."""
    g = ColoredGraph.from_edges(edges)
    for x in isolated:
        if x not in g:
            g.add_vertex(x)
    for w in white:
        if w not in g:
            raise KeyError(w)
        g.black.discard(w)
    return g


def path_graph(n: int, white=()) -> ColoredGraph:
    """P_n on ids 0..n-1."""
    return colored([(i, i + 1) for i in range(n - 1)], white, isolated=range(n))


def cycle_graph(n: int, white=()) -> ColoredGraph:
    """C_n on ids 0..n-1."""
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return colored(edges, white)


def star_graph(leaves: int, white=()) -> ColoredGraph:
    """K_{1,leaves} with center 0 and leaves 1..leaves."""
    return colored([(0, i) for i in range(1, leaves + 1)], white, isolated=[0])


def apex_stars(stars: int, leaves: int) -> ColoredGraph:
    """An apex vertex joined to `stars` star centers, each carrying its own
    `leaves` pendant leaves; everything black.  Ids: apex 0, centers
    1..stars, then leaves star by star."""
    edges = []
    nxt = stars + 1
    for c in range(1, stars + 1):
        edges.append((0, c))
        for _ in range(leaves):
            edges.append((c, nxt))
            nxt += 1
    return ColoredGraph.from_edges(edges)


def wheel_with_pendants(k: int) -> ColoredGraph:
    """A black hub 0 joined to a white rim cycle 1..k (k >= 3), and a black
    pendant k+i on each rim vertex i.  Planar, and every rim removal
    touches the hub, whose degree is k."""
    rim = range(1, k + 1)
    edges = [(0, i) for i in rim]
    edges += [(i, i % k + 1) for i in rim]
    edges += [(i, k + i) for i in rim]
    return colored(edges, rim)


def hub_cycle(hubs: int, paths: int) -> ColoredGraph:
    """Hubs on a cycle, each consecutive pair joined by `paths` paths of
    length 3; all black.  The pair rule and tier 4 both fire on it."""
    edges = []
    nxt = hubs
    for h in range(hubs):
        for _ in range(paths):
            edges += [(h, nxt), (nxt, nxt + 1), (nxt + 1, (h + 1) % hubs)]
            nxt += 2
    return ColoredGraph.from_edges(edges)


def both_cover_graph(shared: int) -> ColoredGraph:
    """v=0 and w=1 with `shared` common black neighbors and nothing else."""
    edges = []
    for x in range(2, 2 + shared):
        edges.append((0, x))
        edges.append((1, x))
    return ColoredGraph.from_edges(edges)


# An all-black graph on which the single-vertex rule fires after tier 1.
SINGLE_FIRES = ColoredGraph.from_edges(
    [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (1, 6), (1, 7), (2, 4),
     (2, 5), (2, 6), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (5, 6),
     (5, 7)]
)


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
    out.black.update(whites)
    return out


# -- independent oracles -----------------------------------------------


def check_invariants(g: ColoredGraph) -> None:
    """Audit: symmetric, simple adjacency, and every black is a vertex."""
    for v, nv in g.adj.items():
        if v in nv:
            raise AssertionError(f"self-loop at {v}")
        for u in nv:
            if u not in g.adj or v not in g.adj[u]:
                raise AssertionError(f"asymmetric edge {v}-{u}")
    if not g.black <= g.adj.keys():
        raise AssertionError("the black set holds a non-vertex")


def dominates(g: ColoredGraph, ds) -> bool:
    """Check that ds covers every black vertex of g.  Kept deliberately
    independent of the solver so it can verify witnesses."""
    covered: set[int] = set()
    for d in ds:
        covered.add(d)
        covered.update(g.adj[d])
    return g.black <= covered


def brute_force_dom(g: ColoredGraph) -> int:
    """Minimum dominating-set size by plain subset enumeration.  Checks
    subsets in increasing size, so the first hit is the optimum.  Only for
    graphs of a dozen or so vertices."""
    vs = sorted(g.adj)
    for k in range(len(vs) + 1):
        for combo in itertools.combinations(vs, k):
            if dominates(g, combo):
                return k
    raise AssertionError("the full vertex set always dominates")


def bfs_distances(g: ColoredGraph, source: int) -> dict[int, int]:
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for u in g.adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def phi(inst) -> int:
    """Termination potential: #vertices + #edges + #black."""
    g = inst.graph
    return g.vertex_count + g.edge_count + len(g.black)


def verify_rule_safety(before, after, limit: int = DEFAULT_VERTEX_LIMIT) -> bool:
    """Oracle check of the conservation law across a rule application:
    optimum(before.graph) + |before.solution| must equal the same quantity
    for after.  Both graphs must fit under the solver limit."""
    lhs = exact_dom(before.graph, limit).size + len(before.solution)
    rhs = exact_dom(after.graph, limit).size + len(after.solution)
    return lhs == rhs


# -- golden model of the scatter mask ----------------------------------


def residual(g: ColoredGraph, removed) -> ColoredGraph:
    """g - removed as a fresh copy: the graph that `uqw_scatter` reads
    through its `removed` mask."""
    out = g.copy()
    for v in removed:
        if v in out:
            out.remove_vertex(v)
    return out


# -- golden models of the simple rules ---------------------------------
#
# Each predicate returns the witness its rule fires with when the rule
# applies at v, else None: the rule's statement, which the production
# driver applies inline.  It reads only the adjacency of v and of v's
# current neighbors and whether those vertices are black.


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


def flat_keys(seed) -> list:
    """The (rule, vertex) keys of the (whites, blacks, isolated, degree1)
    seed that `simple_rules.initial_keys` returns, in rule order, repeats
    kept: the whites under each white rule, the blacks under
    BLACK_TO_WHITE, and the last two sets under their rules."""
    whites, blacks, isolated, degree1 = seed
    groups = (whites, whites, whites, blacks, isolated, degree1)
    return [(rule, v) for rule, vertices in zip(SimpleRule, groups) for v in vertices]


def golden_witnesses(g: ColoredGraph, rule: SimpleRule, v: int) -> set:
    """The witnesses with which rule applies at v, written from the rule
    statements (Alber, Fellows and Niedermeier, J. ACM 2004) without the
    production predicates; empty when the rule does not apply at v."""
    adj, black = g.adj, g.black
    white = v not in black
    if rule == SimpleRule.WW_EDGE:  # an edge to another white
        return {w for w in adj[v] if white and w not in black}
    if rule == SimpleRule.WHITE_NO_BLACK:  # a white with no black neighbor
        return {v} if white and not adj[v] & black else set()
    if rule == SimpleRule.WHITE_SUBSUMED:  # a neighbor covers v's blacks
        return {w for w in adj[v] if white and adj[v] & black <= adj[w] | {w}}
    if rule == SimpleRule.BLACK_TO_WHITE:  # a black neighbor inside N[v]
        return {w for w in adj[v] & black if not white and adj[w] <= adj[v] | {v}}
    if rule == SimpleRule.ISOLATED_BLACK:  # a black with no neighbor
        return {v} if not white and not adj[v] else set()
    # DEGREE1_BLACK: a black with one neighbor, which must be taken
    return set(adj[v]) if not white and len(adj[v]) == 1 else set()


def fire(inst, rule: SimpleRule, v: int, witness: int) -> None:
    """Apply rule at v with the witness its predicate returned, and count
    it in ``inst.stats``: the mutation of each rule, without the
    production driver's re-queue."""
    g = inst.graph
    if rule == SimpleRule.WW_EDGE:
        g.remove_edge(v, witness)
    elif rule in (SimpleRule.WHITE_NO_BLACK, SimpleRule.WHITE_SUBSUMED):
        g.remove_vertex(v)
    elif rule == SimpleRule.BLACK_TO_WHITE:
        g.black.remove(v)
    else:  # ISOLATED_BLACK is its own witness
        inst.take_into_solution(witness)
    inst.stats[STAT_NAMES[rule]] += 1


def apply_first(inst, rule: SimpleRule) -> bool:
    """Apply rule once, at its largest applicable vertex."""
    g = inst.graph
    for v in sorted(g.adj, reverse=True):
        witness = PREDICATES[rule](g, v)
        if witness is not None:
            fire(inst, rule, v, witness)
            return True
    return False


def apply_one_simple_rule(inst) -> SimpleRule | None:
    """Reference single step: lowest applicable rule, largest vertex."""
    for rule in SimpleRule:
        if apply_first(inst, rule):
            return rule
    return None


def apply_simple_exhaustively_naive(inst) -> int:
    """Reference fixed point: repeat single steps until none applies.
    Quadratic and only meant as the golden model for equivalence tests."""
    count = 0
    while apply_one_simple_rule(inst) is not None:
        count += 1
    return count


# -- golden models of the Alber single rule and scans ------------------


def alber_rule1(inst, v: int) -> bool:
    """Reference single rule: take v if its n3 shell, from `partition`,
    contains a black vertex, and count it as ``alber_single``."""
    g = inst.graph
    _, _, n3 = partition(g, v)
    if n3.isdisjoint(g.black):
        return False
    inst.take_into_solution(v)
    inst.stats["alber_single"] += 1
    return True


def apply_alber_single_first_naive(inst) -> bool:
    """Reference single scan: try the rule at every vertex, ascending;
    apply it at the first hit."""
    return any(alber_rule1(inst, v) for v in sorted(inst.graph.adj))


def apply_alber_pair_first_naive(inst) -> bool:
    """Reference pair scan: try the rule at every pair at distance <= 3,
    lexicographic; apply it at the first hit."""
    g = inst.graph
    for v in sorted(g.adj):
        for w in sorted(g.ball([v], 3)):
            if w > v and alber_rule2(inst, v, w):
                return True
    return False


def off_none_kernel(g: ColoredGraph) -> ColoredGraph:
    """The kernel tier 1 alone leaves of a copy of g."""
    inst = Instance.from_graph(g.copy())
    kernelize(inst, ApproachConfig.from_name("off.none"))
    return inst.graph


# -- golden model of tier 4 --------------------------------------------
#
# The sparsity stage as it was before it skipped the groups that cannot
# whiten: every group of two or more members is covered, and the two-step
# key is built for every member.


def golden_greedy_dominating_set(g: ColoredGraph, targets) -> set[int]:
    """Greedy max-coverage dominating set of the target vertices.

    Each step takes the vertex covering the most still-uncovered targets,
    ties to the smallest id.  Lazily re-evaluates stale heap entries, which
    is equivalent to the full rescan because coverage only shrinks.  Only
    N[targets] covers any, so only it is read, and group_and_reduce's
    calls stay local.
    """
    remaining = set(targets)
    out: set[int] = set()
    if not remaining:
        return out
    adj = g.adj
    heap = []
    for v in g.ball(remaining, 1):
        c = len(adj[v] & remaining) + (1 if v in remaining else 0)
        if c:
            heap.append((-c, v))
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


def golden_uqw_scatter(
    g: ColoredGraph, candidates, removed
) -> tuple[frozenset, frozenset]:
    """Pull a 1-scattered subset out of the candidates in g with `removed`
    masked out: its vertices, their edges and candidates among them are
    ignored, as if deleted from g.

    First deletes up to sqrt(#candidates) hub vertices whose residual degree
    exceeds max(8, twice the average degree of g - removed), highest degree
    first, ties to the smaller id, since hubs glue neighborhoods together and
    starve the scatter.  Then greedily accepts candidates in ascending
    residual degree order, blocking the radius-2 ball of every acceptance.
    Returns (scattered, deleted).  The output is 1-scattered in
    g - removed - deleted by construction; ``golden_group_and_reduce``
    checks that property before it whitens anything.
    """
    adj = g.adj
    deg = {v: len(adj[v] - removed) for v in adj if v not in removed}
    candidates = set(candidates) - removed
    if not deg or not candidates:
        return frozenset(), frozenset()

    cutoff = max(8.0, 4.0 * (sum(deg.values()) // 2) / len(deg))
    cap = math.sqrt(len(candidates))

    deleted: set[int] = set()
    while len(deleted) < cap:
        v = min(deg, key=lambda x: (-deg[x], x))
        if deg[v] <= cutoff:
            break
        del deg[v]
        deleted.add(v)
        for u in adj[v]:
            if u in deg:
                deg[u] -= 1

    gone = removed | deleted
    order = sorted(candidates - deleted, key=lambda c: (deg[c], c))
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


def golden_group_and_reduce(
    inst: Instance, d: frozenset, scattered, log: list
) -> int:
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
    """
    g = inst.graph
    adj = g.adj
    for f in scattered:
        if f not in g.black:
            raise AssertionError(f"scattered vertex {f} is not black")
    if not is_1_scattered(g, scattered, d):
        raise AssertionError("family is not 1-scattered outside the pool")

    pool_blacks = d & g.black
    groups: dict = {}
    for f in sorted(scattered):
        contact = frozenset(adj[f] & d)
        if not contact:
            continue
        second: set[int] = set()
        for u in adj[f]:
            second |= adj[u]
        key = (contact, frozenset(second & pool_blacks))
        groups.setdefault(key, []).append(f)

    whitened = 0
    for key in sorted(groups, key=lambda k: (sorted(k[0]), sorted(k[1]))):
        members = groups[key]
        if len(members) < 2:
            continue
        m = g.ball(members, 1) - d
        reach = g.ball(m, 1)
        cover = len(golden_greedy_dominating_set(g, reach & g.black))
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


def golden_sparsity_reduce(inst: Instance, touched: Touched) -> int:
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
    d_prime = golden_greedy_dominating_set(g, g.black)
    inst.stats["sparsity_passes"] += 1
    scattered, deleted = golden_uqw_scatter(g, g.black - d_prime, d_prime)
    inst.stats["sparsity_scatter_calls"] += 1
    return golden_group_and_reduce(
        inst, frozenset(d_prime | deleted), scattered, touched.log
    )


# -- changes between tier calls -----------------------------------------


def perturb(g: ColoredGraph, rng: random.Random, log: list) -> None:
    """Change g at one to three random places, appending every vertex
    whose adjacency or colour changed to log: drop an edge or a vertex,
    add an edge or a fresh vertex joined to up to three vertices, or flip
    a colour either way.  The changes a tier's resume must follow, and
    more than the tiers themselves make."""
    for _ in range(rng.randint(1, 3)):
        vs = sorted(g.adj)
        if not vs:
            return
        op = rng.randrange(5)
        if op == 0 and g.edge_count:
            u = rng.choice([v for v in vs if g.adj[v]])
            w = rng.choice(sorted(g.adj[u]))
            g.remove_edge(u, w)
            log += (u, w)
        elif op == 1:
            v = rng.choice(vs)
            log.append(v)
            log += g.adj[v]
            g.remove_vertex(v)
        elif op == 2 and len(vs) > 1:
            u, w = rng.sample(vs, 2)
            if w not in g.adj[u]:
                g.add_edge(u, w)
                log += (u, w)
        elif op == 3:
            z = g.add_vertex()
            log.append(z)
            for u in rng.sample(vs, min(len(vs), rng.randint(1, 3))):
                g.add_edge(z, u)
                log.append(u)
        else:
            v = rng.choice(vs)
            g.black ^= {v}
            log.append(v)


def changed_vertices(before: ColoredGraph, after: ColoredGraph) -> set:
    """The vertices whose adjacency or colour differs between two states
    of one graph, removed and added ones included."""
    return {
        v for v in before.adj.keys() | after.adj.keys()
        if before.adj.get(v) != after.adj.get(v)
        or (v in before.black) != (v in after.black)
    }


# -- golden model of the bench sweep ---------------------------------------


def bench_rows_per_run(entries, configs) -> list:
    """Reference instance rows of `bench.run_bench`: every (file,
    configuration) pair loaded and kernelized from the input on its own,
    dataset-major in the given configuration order."""
    rows = []
    for entry in entries:
        for name in configs:
            g = load_graph(entry["path"], entry["white_path"])
            report = kernelize(Instance.from_graph(g), ApproachConfig.from_name(name))
            full = report.to_dict()
            full.update(kind="instance", group=entry["group"], dataset=entry["dataset"])
            rows.append({c: full[c] for c in CSV_COLUMNS})
    return rows


# -- golden model of the generator -------------------------------------
#
# The planar generator as it was before it built each instance once: the
# triangulation through add_vertex and add_edge, then a copy with each
# sampled edge removed on its own.


def golden_random_maximal_planar(n: int, seed: int) -> ColoredGraph:
    """Random stacked triangulation on n >= 3 vertices, all black."""
    if n < 3:
        raise ValueError("need at least 3 vertices")
    rng = random.Random(seed)
    g = ColoredGraph()
    for v in range(3):
        g.add_vertex(v)
    g.add_edge(0, 1)
    g.add_edge(0, 2)
    g.add_edge(1, 2)
    faces = [(0, 1, 2), (0, 1, 2)]
    for v in range(3, n):
        i = rng.randrange(len(faces))
        a, b, c = faces[i]
        g.add_vertex(v)
        g.add_edge(v, a)
        g.add_edge(v, b)
        g.add_edge(v, c)
        faces[i] = (a, b, v)
        faces.append((a, c, v))
        faces.append((b, c, v))
    return g


def golden_thin_to_edges(g: ColoredGraph, m: int, seed: int) -> ColoredGraph:
    """Copy of g with a random m-subset of its edges kept; vertices left
    isolated by the removal are dropped as well."""
    edges = g.edges()
    if m > len(edges):
        raise ValueError(f"cannot keep {m} of {len(edges)} edges")
    rng = random.Random(seed)
    removed = rng.sample(edges, len(edges) - m)
    out = g.copy()
    for u, v in removed:
        out.remove_edge(u, v)
    for v in [x for x in out.adj if not out.adj[x]]:
        out.remove_vertex(v)
    return out


def golden_generate_instance(spec: GroupSpec, index: int, master_seed: int) -> ColoredGraph:
    """Instance `index` of the group under the given master seed."""
    build_seed = _mix(master_seed, spec.vertices, spec.edges, index, 0)
    thin_seed = _mix(master_seed, spec.vertices, spec.edges, index, 1)
    g = golden_random_maximal_planar(spec.vertices, build_seed)
    return golden_thin_to_edges(g, spec.edges, thin_seed)


# -- the edge-list loader as it was before it interned ids and parsed the
# plain form in bulk -----------------------------------------------------


def golden_load_graph(path) -> ColoredGraph:
    """Build the all-black graph from an edge list, checking each line."""
    adj: dict[int, set[int]] = {}
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            a, b = parts
            u, v = int(a), int(b)
        except ValueError:
            _refuse(path, line_no, raw, 2)
        # int() gives a negative only after a '-'
        if u == v or "-" in raw and (u < 0 or v < 0):
            _refuse(path, line_no, raw, 2)
        if u in adj:
            adj[u].add(v)
        else:
            adj[u] = {v}
        if v in adj:
            adj[v].add(u)
        else:
            adj[v] = {u}
    g = ColoredGraph()
    g.adj = adj
    g.black.update(adj)
    g._next_id = max(adj, default=-1) + 1
    return g


def assert_interned(g: ColoredGraph) -> None:
    """Every member of every adjacency set is its own key object."""
    key = {v: v for v in g.adj}
    for v, nv in g.adj.items():
        for u in nv:
            assert u is key[u], f"neighbour {u} of {v} is a copy of its key"


# -- the edge-list writer as it was before it formatted lines straight
# from the adjacency ----------------------------------------------------


def golden_write_edge_list(path, g: ColoredGraph) -> None:
    """Write g's '# n m' header and one line per pair of g.edges()."""
    edges = g.edges()
    lines = [f"# {g.vertex_count} {len(edges)}"]
    lines += [f"{u} {v}" for u, v in edges]
    Path(path).write_text("\n".join(lines) + "\n")


# -- random instances --------------------------------------------------


def random_colored_graph(
    rng: random.Random, n: int, density: float, white_frac: float
) -> ColoredGraph:
    """Erdos-Renyi style colored instance."""
    g = ColoredGraph()
    for _ in range(n):
        g.add_vertex()
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < density:
            g.add_edge(u, v)
    for v in range(n):
        if rng.random() < white_frac:
            g.black.remove(v)
    return g


def random_planar_colored(
    rng: random.Random, n: int, white_frac: float
) -> ColoredGraph:
    """Small random planar instance: triangulation, thinning, then a random
    subset whitened, all by the golden generator, whose draws the safety
    corpus was recorded with.  Thinning may drop isolated vertices."""
    g = golden_random_maximal_planar(n, rng.randrange(1 << 32))
    m = rng.randint(max(0, n - 2), 3 * n - 6)
    g = golden_thin_to_edges(g, m, rng.randrange(1 << 32))
    for v in sorted(g.adj):
        if rng.random() < white_frac:
            g.black.remove(v)
    return g


def mixed_instance_stream(seed: int, count: int, max_n: int = 16):
    """Deterministic stream alternating the two random families, matching
    the corpus the safety properties are stated over."""
    rng = random.Random(seed)
    for i in range(count):
        white_frac = rng.uniform(0.0, 0.5)
        if i % 2 == 0:
            n = rng.randint(1, max_n)
            density = rng.uniform(0.1, 0.5)
            yield random_colored_graph(rng, n, density, white_frac)
        else:
            n = rng.randint(4, max_n)
            yield random_planar_colored(rng, n, white_frac)


def hub_skewed_stream(seed: int, count: int):
    """Deterministic stream of sparse random graphs with hubs: 20 to 48
    vertices joined with probability 2.5/n, a fifth of them white, plus
    one to three fresh hubs, each joined to 9 to 20 of those vertices and
    white with probability one half.  At most 51 vertices, within the
    exact oracle's limit.  The hubs exceed the scatter's degree cutoff,
    so its hub deletion runs, and on about one member in a hundred it
    changes the kernel."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(20, 48)
        g = random_colored_graph(rng, n, 2.5 / n, 0.2)
        for _ in range(rng.randint(1, 3)):
            hub = g.add_vertex()
            for v in rng.sample(range(n), rng.randint(9, 20)):
                g.add_edge(hub, v)
            if rng.random() < 0.5:
                g.black.remove(hub)
        yield g


def bw_small_shaped(seed: int, count: int):
    """Planar GroupSpec(50, 110) instances with 30% of their vertices
    whitened, drawn as the benchmark's bw-small workload draws its inputs
    at data seed `seed`."""
    for i in range(count):
        g = generate_instance(GroupSpec(50, 110), i, seed)
        rng = random.Random(seed * 1_000_003 + i)
        vertices = sorted(g.adj)
        for v in rng.sample(vertices, round(0.3 * len(vertices))):
            g.black.remove(v)
        yield g


# -- hypothesis strategies ---------------------------------------------


@st.composite
def colored_graphs(draw, min_vertices: int = 1, max_vertices: int = 10):
    """Arbitrary small colored graph on ids 0..n-1."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
        )
    else:
        edges = []
    white = draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    g = ColoredGraph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in edges:
        g.add_edge(u, v)
    g.black -= white
    return g
