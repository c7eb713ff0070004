"""Neighborhood partitions and the two partition-based reduction rules."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from domkernel.alber import (
    PAIR,
    alber_rule2,
    apply_alber_pair_first,
    apply_alber_single_first,
    pair_candidates,
    partition,
)
from domkernel.exact import exact_dom
from domkernel.graph import ColoredGraph, Instance, Touched
from domkernel.plangen import canonical_groups, generate_instance
from domkernel.simple_rules import apply_simple_exhaustively

from helpers import (
    SINGLE_FIRES,
    alber_rule1,
    apply_alber_pair_first_naive,
    apply_alber_single_first_naive,
    bfs_distances,
    both_cover_graph,
    bw_small_shaped,
    colored,
    colored_graphs,
    cycle_graph,
    hub_cycle,
    mixed_instance_stream,
    off_none_kernel,
    path_graph,
    perturb,
    phi,
    star_graph,
    verify_rule_safety,
)


def h_graph():
    """v=0 and w=1 joined through a bridge 2, with private pendants 3, 4.
    Neither endpoint alone covers the black part of the shared shell."""
    return ColoredGraph.from_edges([(0, 2), (1, 2), (0, 3), (1, 4)])


class TestPartitionSingle:
    def test_star_center(self):
        assert partition(star_graph(4), 0) == (set(), set(), {1, 2, 3, 4})

    def test_triangle(self):
        assert partition(cycle_graph(3), 0) == (set(), set(), {1, 2})

    def test_path_interior(self):
        # At vertex 1 of 0-1-2-3: vertex 2 escapes to 3, vertex 0 touches
        # nothing escaping.
        assert partition(path_graph(4), 1) == ({2}, set(), {0})

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            partition(path_graph(2), 9)

    @given(colored_graphs(min_vertices=2, max_vertices=10))
    @settings(max_examples=150)
    def test_is_a_partition_with_contained_n3(self, g):
        for v in sorted(g.adj):
            n1, n2, n3 = partition(g, v)
            assert n1 | n2 | n3 == g.adj[v]
            assert len(n1) + len(n2) + len(n3) == len(g.adj[v])
            ball = g.adj[v] | {v}
            for u in n3:
                assert (g.adj[u] | {u}) <= ball


class TestPartitionPair:
    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            partition(path_graph(3), 1, 1)

    def test_h_graph_shell_is_all_n3(self):
        assert partition(h_graph(), 0, 1) == (set(), set(), {2, 3, 4})

    def test_exit_pushes_into_n1_and_n2(self):
        # 2 exits to 5; 3 touches 2, 4 touches neither.
        g = ColoredGraph.from_edges(
            [(0, 2), (0, 3), (1, 4), (2, 5), (2, 3)]
        )
        assert partition(g, 0, 1) == ({2}, {3}, {4})

    @given(colored_graphs(min_vertices=2, max_vertices=10), st.data())
    @settings(max_examples=150)
    def test_is_a_partition_with_contained_n3(self, g, data):
        vs = sorted(g.adj)
        v = data.draw(st.sampled_from(vs))
        w = data.draw(st.sampled_from([x for x in vs if x != v] or vs))
        if v == w:
            return
        n1, n2, n3 = partition(g, v, w)
        nvw = (g.adj[v] | g.adj[w]) - {v, w}
        assert n1 | n2 | n3 == nvw
        assert len(n1) + len(n2) + len(n3) == len(nvw)
        joint = g.adj[v] | g.adj[w] | {v, w}
        for u in n3:
            assert (g.adj[u] | {u}) <= joint


class TestAlberRule1:
    def test_star_center_taken(self):
        inst = Instance.from_graph(star_graph(5))
        assert alber_rule1(inst, 0)
        assert inst.solution == {0}
        assert inst.graph.black == set()

    def test_path_interior_taken_and_optimum_kept(self):
        inst = Instance.from_graph(path_graph(4))
        before = inst.copy()
        assert alber_rule1(inst, 1)
        assert inst.solution == {1}
        assert verify_rule_safety(before, inst)

    def test_white_n3_does_not_fire(self):
        inst = Instance.from_graph(star_graph(5, white=[1, 2, 3, 4, 5]))
        assert not alber_rule1(inst, 0)
        assert inst.graph.vertex_count == 6

    def test_counts_applications(self):
        inst = Instance.from_graph(star_graph(3))
        alber_rule1(inst, 0)
        assert inst.stats["alber_single"] == 1

    def test_never_fires_at_a_black_centre_after_tier_1(self):
        # A black x in n3(v) has N(x) inside N[v], so BLACK_TO_WHITE
        # would already have whitened v with witness x.
        graphs = list(mixed_instance_stream(5, 300, 40))
        graphs += [generate_instance(spec, 0, 0) for spec in canonical_groups()]
        checked = 0
        for g in graphs:
            inst = Instance.from_graph(g)
            apply_simple_exhaustively(inst, touched=Touched())
            for v in inst.graph.black:
                _, _, n3 = partition(inst.graph, v)
                assert n3.isdisjoint(inst.graph.black), v
                checked += 1
        assert checked > 0


class TestAlberRule2:
    def test_neither_endpoint_covers_takes_both(self):
        inst = Instance.from_graph(h_graph())
        before = inst.copy()
        assert alber_rule2(inst, 0, 1)
        assert inst.solution == {0, 1}
        assert verify_rule_safety(before, inst)

    def test_one_endpoint_covers_takes_it(self):
        # 0 sees all three shell blacks, 1 only two of them.
        g = ColoredGraph.from_edges(
            [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4)]
        )
        inst = Instance.from_graph(g)
        before = inst.copy()
        assert alber_rule2(inst, 0, 1)
        assert inst.solution == {0}
        assert 1 in inst.graph
        assert verify_rule_safety(before, inst)

    def test_both_cover_small_shell_blocked_by_potential(self):
        # Rewriting costs 2 vertices, 4 edges, and 2 new blacks; three
        # whitenings do not pay for that, so the call must refuse and
        # leave the instance untouched.
        inst = Instance.from_graph(both_cover_graph(3))
        snapshot = inst.copy()
        assert not alber_rule2(inst, 0, 1)
        assert inst.graph.adj == snapshot.graph.adj
        assert inst.graph.black == snapshot.graph.black
        assert inst.solution == set()

    def test_both_cover_large_shell_rewrites_with_witness_pair(self):
        inst = Instance.from_graph(both_cover_graph(9))
        before = inst.copy()
        potential = phi(inst)
        assert alber_rule2(inst, 0, 1)
        g = inst.graph
        z1, z2 = 11, 12
        assert g.black == {0, 1, z1, z2}
        assert {x for x in range(2, 11)} <= g.white_vertices()
        assert g.adj[z1] == {0, 1}
        assert g.adj[z2] == {0, 1}
        assert z2 not in g.adj[z1]
        assert phi(inst) < potential
        assert inst.stats["alber_pair_gadget"] == 1
        assert verify_rule_safety(before, inst)

    def test_rewritten_optimum_contains_an_endpoint(self):
        inst = Instance.from_graph(both_cover_graph(9))
        alber_rule2(inst, 0, 1)
        witness = exact_dom(inst.graph).witness
        assert witness & {0, 1}

    def test_single_shell_black_is_not_enough(self):
        inst = Instance.from_graph(ColoredGraph.from_edges([(0, 2), (1, 2)]))
        assert not alber_rule2(inst, 0, 1)

    def test_shell_with_an_internal_dominator_is_skipped(self):
        # 2 is adjacent to every shell black, so the counting argument
        # cannot force 0 or 1.
        g = ColoredGraph.from_edges(
            [(0, 2), (0, 3), (1, 2), (1, 4), (2, 3), (2, 4)]
        )
        inst = Instance.from_graph(g)
        assert not alber_rule2(inst, 0, 1)

    def test_rejects_equal_endpoints(self):
        with pytest.raises(ValueError):
            alber_rule2(Instance.from_graph(path_graph(3)), 1, 1)


class TestScanners:
    def test_single_scan_prefers_smaller_vertex(self):
        g = ColoredGraph.from_edges([(0, 2), (0, 3), (1, 4), (1, 5)])
        inst = Instance.from_graph(g)
        assert apply_alber_single_first(inst, Touched())
        assert inst.solution == {0}

    def test_single_scan_exhausted(self):
        inst = Instance.from_graph(path_graph(2, white=[0, 1]))
        assert not apply_alber_single_first(inst, Touched())

    def test_pair_scan_finds_the_h_graph(self):
        inst = Instance.from_graph(h_graph())
        assert apply_alber_pair_first(inst, Touched())
        assert inst.solution == {0, 1}

    def test_pair_scan_only_reaches_distance_three(self):
        for g in mixed_instance_stream(seed=23, count=40, max_n=10):
            vs = sorted(g.adj)
            pairs = []
            for v in vs:
                dist = bfs_distances(g, v)
                pairs.extend(
                    (v, w) for w in vs if w > v and dist.get(w, 99) <= 3
                )
            inst = Instance.from_graph(g.copy())
            fired = apply_alber_pair_first(inst, Touched())
            could = any(
                alber_rule2(Instance.from_graph(g.copy()), v, w)
                for v, w in pairs
            )
            assert fired == could


class TestOracleSafety:
    def test_single_rule_on_random_instances(self):
        fired = 0
        for g in mixed_instance_stream(seed=77, count=200, max_n=12):
            inst = Instance.from_graph(g)
            before = inst.copy()
            if apply_alber_single_first(inst, Touched()):
                fired += 1
                assert verify_rule_safety(before, inst)
        assert fired > 50

    def test_pair_rule_on_random_instances(self):
        fired = 0
        for g in mixed_instance_stream(seed=78, count=200, max_n=12):
            inst = Instance.from_graph(g)
            before = inst.copy()
            if apply_alber_pair_first(inst, Touched()):
                fired += 1
                assert verify_rule_safety(before, inst)
        assert fired > 50

    def test_every_firing_decreases_phi(self):
        for g in mixed_instance_stream(seed=79, count=120, max_n=12):
            inst = Instance.from_graph(g)
            potential = phi(inst)
            if apply_alber_single_first(inst, Touched()):
                assert phi(inst) < potential
            inst = Instance.from_graph(g.copy())
            potential = phi(inst)
            if apply_alber_pair_first(inst, Touched()):
                assert phi(inst) < potential


def alber_inputs() -> list:
    """Graphs on which the Alber tiers have work: the tier-1 kernels they
    run on in the benchmark's sweeps; hand-built graphs on which the
    single rule, the pair rule and its gadget fire, as given and as
    tier-1 kernels; and, as given, small random graphs, which are no
    tier-1 fixed points, so the single rule fires at black centres too."""
    graphs = [generate_instance(spec, 0, 0) for spec in canonical_groups()]
    graphs += bw_small_shaped(0, 200)
    built = [hub_cycle(h, p) for h, p in ((3, 4), (3, 6), (3, 12), (4, 4), (5, 5))]
    built += [SINGLE_FIRES, both_cover_graph(9)]
    kernels = [off_none_kernel(g) for g in graphs + built]
    return kernels + built + list(mixed_instance_stream(13, 60))


def same_instance(a: Instance, b: Instance) -> bool:
    return (a.graph.adj, a.graph.black, a.solution, a.stats) == (
        b.graph.adj, b.graph.black, b.solution, b.stats)


class TestCandidates:
    """Each scan fires where the golden full scan fires.  The pair scan
    tries its rule only at generated candidates, which must hold every
    pair where the rule fires."""

    @pytest.mark.parametrize("scan, golden", [
        (apply_alber_single_first, apply_alber_single_first_naive),
        (apply_alber_pair_first, apply_alber_pair_first_naive),
    ], ids=["single", "pair"])
    def test_scans_leave_what_the_full_scans_leave(self, scan, golden):
        fired = 0
        for g in alber_inputs():
            fast = Instance.from_graph(g.copy())
            slow = Instance.from_graph(g.copy())
            while True:  # to the rule's own fixed point, firing by firing
                hit = scan(fast, Touched())
                assert hit == golden(slow)
                assert same_instance(fast, slow)
                if not hit:
                    break
                fired += 1
        assert fired >= 10

    def test_every_firing_pair_is_a_candidate(self):
        fired = 0
        for g in alber_inputs():
            candidates = set(pair_candidates(g, g.adj.keys()))
            inst = Instance.from_graph(g.copy())
            for v in sorted(g.adj):
                near = bfs_distances(g, v)
                for w in sorted(near):
                    if w > v and near[w] <= 3 and alber_rule2(inst, v, w):
                        assert (v, w) in candidates, (v, w)
                        fired += 1
                        inst = Instance.from_graph(g.copy())
        assert fired >= 10

    def test_candidates_are_the_stated_sets(self):
        # Exactly the pairs at distance <= 3 with two blacks x in their
        # joint shell, N(x) inside N[v] | N[w]: no more, so no wasted calls.
        for g in alber_inputs():
            adj, black = g.adj, g.black
            pairs = []
            for v in sorted(adj):
                near = bfs_distances(g, v)
                for w in sorted(near):
                    if w <= v or near[w] > 3:
                        continue
                    ball = adj[v] | adj[w] | {v, w}
                    shell = (adj[v] | adj[w]) - {v, w}
                    if sum(adj[x] <= ball for x in shell & black) >= 2:
                        pairs.append((v, w))
            assert pair_candidates(g, g.adj.keys()) == pairs

    def test_candidates_near_a_set_are_the_full_ones_touching_it(self):
        # The pairs with an endpoint in near, from the blacks within
        # distance 4 of near; a black inside N(v) (the pendants below)
        # counts for a pair (v, w) with w three steps away.
        rng = random.Random(11)
        graphs = alber_inputs()
        graphs.append(colored([(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)],
                              white=[0, 2, 3, 4]))
        touching = 0
        for g in graphs:
            full = pair_candidates(g, g.adj.keys())
            vs = sorted(g.adj)
            nears = [{v} for v in vs] + [set(rng.sample(vs, min(len(vs), 5)))]
            for near in nears:
                want = [p for p in full if p[0] in near or p[1] in near]
                assert pair_candidates(g, near) == want, near
                touching += len(want)
        assert touching >= 5000

    def test_a_black_inside_n_v_counts_for_a_pair_at_distance_3(self):
        # White path 0-2-3-4 with black pendants 1 on 0 and 5 on 4.  N(1)
        # lies inside N[0], so 1 counts for every partner within distance
        # 3 of 0, and 5 likewise from 4; no other vertex is black.  Only
        # (0, 4), at distance 3, gets two blacks, and the rule fires there.
        g = colored([(0, 1), (0, 2), (2, 3), (3, 4), (4, 5)], white=[0, 2, 3, 4])
        assert bfs_distances(g, 0)[4] == 3
        assert pair_candidates(g, g.adj.keys()) == [(0, 4)]
        inst = Instance.from_graph(g)
        assert alber_rule2(inst, 0, 4)
        assert inst.solution == {0, 4}


def within_distance(g: ColoredGraph, centres, radius: int = 2) -> ColoredGraph:
    """The subgraph of g induced by the vertices within distance `radius`
    of the centres, colours kept.  It keeps g's next fresh id, so that a
    gadget planted on it gets the ids it would get on g."""
    ball = g.ball(centres, radius)
    near = ColoredGraph()
    near.adj = {u: g.adj[u] & ball for u in ball}
    near.black = g.black & ball
    near._next_id = g._next_id
    return near


def outcome(rule, g: ColoredGraph, *centres) -> tuple:
    """Whether rule fires at the centres of g, which it mutates; the
    solution it commits; and the vertices that enter or leave the black
    set."""
    inst = Instance.from_graph(g)
    black = set(g.black)
    return rule(inst, *centres), inst.solution, black ^ g.black


def radius_inputs() -> list:
    """Small random graphs as given, on which the single rule fires; the
    canonical tier-1 kernels; and a gadget firing whose graph has a larger
    id beyond the pair's distance 2."""
    gadget = both_cover_graph(9)
    gadget.add_vertex(20)
    graphs = [off_none_kernel(generate_instance(spec, 0, 0))
              for spec in canonical_groups()]
    return graphs + [gadget] + list(mixed_instance_stream(31, 300))


class TestReadRadius:
    """Each Alber rule, and whether a pair is a candidate, reads nothing
    beyond distance 2 of the centres: each does the same on g as on the
    subgraph induced within distance 2.  At distance 1 they disagree on
    many of these cases, and `TestChangesBeyondRadius1` narrows what they
    read to the adjacency and colour of N[centres]."""

    def test_single_rule_reads_within_distance_2(self):
        fired = 0
        for g in radius_inputs():
            for v in sorted(g.adj):
                near = outcome(alber_rule1, within_distance(g, [v]), v)
                assert outcome(alber_rule1, g.copy(), v) == near, v
                fired += near[0]
        assert fired >= 10

    def test_pair_rule_reads_within_distance_2(self):
        fired = gadgets = 0
        for g in radius_inputs():
            for v in sorted(g.adj):
                dist = bfs_distances(g, v)
                for w in sorted(dist):
                    if w <= v or dist[w] > 3:
                        continue
                    near = outcome(alber_rule2, within_distance(g, [v, w]), v, w)
                    assert outcome(alber_rule2, g.copy(), v, w) == near, (v, w)
                    fired += near[0]
                    gadgets += max(near[2], default=-1) >= g._next_id
        assert fired >= 10 and gadgets >= 1

    def test_pair_candidates_read_within_distance_2(self):
        candidates = disagree_at_1 = 0
        for g in radius_inputs():
            full = set(pair_candidates(g, g.adj.keys()))
            for v in sorted(g.adj):
                dist = bfs_distances(g, v)
                for w in sorted(dist):
                    if w <= v or dist[w] > 3:
                        continue
                    want = (v, w) in full
                    near = within_distance(g, [v, w])
                    assert ((v, w) in pair_candidates(near, near.adj.keys())) == want, (v, w)
                    near = within_distance(g, [v, w], 1)
                    disagree_at_1 += ((v, w) in pair_candidates(near, near.adj.keys())) != want
                    candidates += want
        assert candidates >= 1000
        assert disagree_at_1 == 7461


def changed_beyond(g: ColoredGraph, centres, rng: random.Random) -> ColoredGraph:
    """A copy of g changed only beyond distance 1 of the centres: about
    half of those vertices recoloured, about a third of the edges among
    them removed, and up to half as many edges among them added as there
    are such vertices.  The adjacency and colour of N[centres] stay."""
    h = g.copy()
    far = sorted(h.adj.keys() - h.ball(centres, 1))
    h.black ^= {u for u in far if rng.random() < 0.5}
    far_set = set(far)
    for u in far:
        for w in sorted(h.adj[u] & far_set):
            if u < w and rng.random() < 1 / 3:
                h.remove_edge(u, w)
    for _ in range(len(far) // 2):
        u, w = rng.choice(far), rng.choice(far)
        if u != w:
            h.add_edge(u, w)
    return h


class TestChangesBeyondRadius1:
    """Each Alber rule, and whether a pair is a candidate, reads only the
    adjacency and colour of N[centres]: changing the graph beyond it,
    with N[centres] kept, moves neither.  Some of the changes recolour a
    vertex at distance 2, which the radius 2 of `TestReadRadius` keeps.
    The single scan is keyed by the black x instead, and its test at
    (v, x) reads only N[x]: that is why every tier's dirty radius is 1."""

    def test_the_single_rule(self):
        rng = random.Random(41)
        fired = at_2 = 0
        for g in radius_inputs():
            for v in sorted(g.adj):
                h = changed_beyond(g, [v], rng)
                got = outcome(alber_rule1, h, v)
                assert outcome(alber_rule1, g.copy(), v) == got, v
                fired += got[0]
                at_2 += not (g.black ^ h.black).isdisjoint(g.ball([v], 2))
        assert fired >= 10 and at_2 >= 1000

    def test_the_single_scan_at_each_black(self):
        # The scan tests, at a black x and each v in N(x), whether x is in
        # n3(v).  Changing the graph beyond N[x], with N[x] kept, must
        # move no such outcome.
        rng = random.Random(47)
        passed = at_2 = 0
        for g in radius_inputs():
            for x in sorted(g.black):
                h = changed_beyond(g, [x], rng)
                for v in sorted(g.adj[x]):
                    want = x in partition(g, v)[2]
                    assert (x in h.black and x in partition(h, v)[2]) == want, (v, x)
                    passed += want
                at_2 += not (g.black ^ h.black).isdisjoint(g.ball([x], 2))
        assert passed >= 500 and at_2 >= 1500

    def test_the_pair_rule_and_candidates(self):
        rng = random.Random(43)
        fired = gadgets = candidates = at_2 = 0
        for g in radius_inputs():
            full = set(pair_candidates(g, g.adj.keys()))
            for v in sorted(g.adj):
                dist = bfs_distances(g, v)
                for w in sorted(dist):
                    if w <= v or dist[w] > 3:
                        continue
                    h = changed_beyond(g, [v, w], rng)
                    want = (v, w) in full
                    assert ((v, w) in pair_candidates(h, {v, w})) == want, (v, w)
                    got = outcome(alber_rule2, h, v, w)
                    assert outcome(alber_rule2, g.copy(), v, w) == got, (v, w)
                    fired += got[0]
                    gadgets += max(got[2], default=-1) >= g._next_id
                    candidates += want
                    at_2 += not (g.black ^ h.black).isdisjoint(g.ball([v, w], 2))
        assert fired >= 10 and gadgets >= 1
        assert candidates >= 1000 and at_2 >= 1000


def resume_corpus():
    """Kernels, gadgets and mixed instances, each fed to a scan that
    resumes across perturbed steps."""
    corpus = [off_none_kernel(generate_instance(spec, i, 0))
              for spec in canonical_groups()[:3] for i in range(3)]
    corpus += [hub_cycle(h, p) for h, p in ((3, 4), (3, 6), (4, 4))]
    corpus += [SINGLE_FIRES, both_cover_graph(9)]
    corpus += list(mixed_instance_stream(19, 200, 20))
    corpus += bw_small_shaped(1, 30)
    return corpus


class TestResume:
    """Given the run's `Touched` log, each scan resumes its last one and
    re-tries only what lies near the logged changes.  After any changes,
    logged, it must hit where the full scan hits."""

    @pytest.mark.parametrize("scan, golden", [
        (apply_alber_single_first, apply_alber_single_first_naive),
        (apply_alber_pair_first, apply_alber_pair_first_naive),
    ], ids=["single", "pair"])
    def test_resumed_scans_hit_where_the_full_scans_hit(self, scan, golden):
        rng = random.Random(17)
        hits = resumed = everywhere = 0
        for g in resume_corpus():
            inst = Instance.from_graph(g.copy())
            touched = Touched()
            looked = 0  # the log's length when the scan last looked
            for step in range(8):
                # A dirty ball of every vertex while the pair queue still
                # holds entries from an earlier call, all of them stale now.
                dirty = inst.graph.ball(touched.log[looked:], 1)
                queue = touched.scans.get(PAIR, ([], {}))[0]
                everywhere += len(dirty) == len(inst.graph.adj) and bool(queue)
                looked = len(touched.log)
                before = inst.copy()
                hit = scan(inst, touched=touched)
                assert hit == golden(before), step
                assert same_instance(inst, before), step
                hits += hit
                resumed += hit and step > 0
                perturb(inst.graph, rng, touched.log)
        assert resumed >= 100
        assert everywhere >= (20 if scan is apply_alber_pair_first else 0)

    def test_the_pair_queue_holds_more_live_entries_than_stale(self):
        # An entry a pop would drop unread (stale, or with an endpoint
        # gone) stays so; once such entries may outnumber the live ones,
        # the heap is rebuilt without them.  Counted after every call.
        rng = random.Random(17)
        live = stale = 0
        for g in resume_corpus():
            inst = Instance.from_graph(g.copy())
            touched = Touched()
            for _ in range(8):
                apply_alber_pair_first(inst, touched=touched)
                queue, requeued = touched.scans[PAIR][:2]
                adj = inst.graph.adj
                for v, w, queued in queue:
                    fresh = (v in adj and w in adj
                             and requeued.get(v, -1) <= queued
                             and requeued.get(w, -1) <= queued)
                    live += fresh
                    stale += not fresh
                perturb(inst.graph, rng, touched.log)
        assert live >= 10_000
        assert stale <= live
