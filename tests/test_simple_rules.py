"""The six local rules: stated behavior on small graphs, oracle safety,
potential decrease, and naive/incremental fixed-point equivalence."""

import heapq
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings

import domkernel.simple_rules as simple_rules
from domkernel.graph import ColoredGraph, Instance
from domkernel.plangen import GroupSpec, generate_instance
from domkernel.simple_rules import (
    RULES_OF,
    SimpleRule,
    apply_simple_exhaustively,
    initial_keys,
)

import helpers
from helpers import (
    PREDICATES,
    apply_first,
    colored,
    apply_one_simple_rule,
    apply_simple_exhaustively_naive,
    bw_small_shaped,
    colored_graphs,
    cycle_graph,
    flat_keys,
    golden_witnesses,
    mixed_instance_stream,
    path_graph,
    phi,
    star_graph,
    verify_rule_safety,
    wheel_with_pendants,
)


class TestWwEdge:
    def test_removes_a_white_white_edge(self):
        inst = Instance.from_graph(path_graph(2, white=[0, 1]))
        assert apply_first(inst, SimpleRule.WW_EDGE)
        assert inst.graph.edge_count == 0
        assert inst.graph.vertex_count == 2

    def test_needs_both_endpoints_white(self):
        inst = Instance.from_graph(path_graph(2, white=[0]))
        assert not apply_first(inst, SimpleRule.WW_EDGE)
        assert inst.graph.edge_count == 1

    def test_all_black_graph(self):
        inst = Instance.from_graph(cycle_graph(4))
        assert not apply_first(inst, SimpleRule.WW_EDGE)

    def test_picks_largest_endpoint_then_largest_neighbor(self):
        g = colored([(0, 1), (0, 2), (1, 2)], white=[0, 1, 2])
        inst = Instance.from_graph(g)
        assert apply_first(inst, SimpleRule.WW_EDGE)
        assert inst.graph.edges() == [(0, 1), (0, 2)]


class TestWhiteNoBlack:
    def test_isolated_white_removed(self):
        g = colored([], white=[0], isolated=[0])
        inst = Instance.from_graph(g)
        assert apply_first(inst, SimpleRule.WHITE_NO_BLACK)
        assert inst.graph.vertex_count == 0

    def test_white_among_whites_removed(self):
        inst = Instance.from_graph(path_graph(3, white=[0, 1, 2]))
        assert apply_first(inst, SimpleRule.WHITE_NO_BLACK)
        assert inst.graph.vertex_count == 2

    def test_white_with_black_neighbor_kept(self):
        inst = Instance.from_graph(path_graph(2, white=[0]))
        assert not apply_first(inst, SimpleRule.WHITE_NO_BLACK)


class TestWhiteSubsumed:
    def test_white_pendant_on_covering_vertex(self):
        # u=3 white hangs off v=1; u's one black neighbor is 1 itself,
        # whose closed black neighborhood trivially contains it.
        g = colored([(0, 1), (1, 2), (1, 3)], white=[3])
        inst = Instance.from_graph(g)
        assert apply_first(inst, SimpleRule.WHITE_SUBSUMED)
        assert 3 not in inst.graph

    def test_twin_whites_drop_the_larger(self):
        g = colored(
            [(0, 3), (0, 4), (1, 3), (1, 4), (3, 4)], white=[3, 4]
        )
        inst = Instance.from_graph(g)
        assert apply_first(inst, SimpleRule.WHITE_SUBSUMED)
        assert 4 not in inst.graph
        assert 3 in inst.graph

    def test_white_bridging_two_blacks_kept(self):
        # The middle of black-white-black covers both endpoints; neither
        # neighbor covers the other, so no candidate subsumes it.
        inst = Instance.from_graph(path_graph(3, white=[1]))
        assert not apply_first(inst, SimpleRule.WHITE_SUBSUMED)


class TestBlackToWhite:
    def test_triangle_whitens_down_to_one_black(self):
        inst = Instance.from_graph(cycle_graph(3))
        assert apply_first(inst, SimpleRule.BLACK_TO_WHITE)
        assert apply_first(inst, SimpleRule.BLACK_TO_WHITE)
        assert not apply_first(inst, SimpleRule.BLACK_TO_WHITE)
        assert len(inst.graph.black) == 1
        assert inst.graph.vertex_count == 3

    def test_black_pendant_pair(self):
        inst = Instance.from_graph(path_graph(2))
        assert apply_first(inst, SimpleRule.BLACK_TO_WHITE)
        assert inst.graph.black == {0}
        assert inst.graph.white_vertices() == {1}

    def test_star_center_whitened(self):
        inst = Instance.from_graph(star_graph(3))
        assert apply_first(inst, SimpleRule.BLACK_TO_WHITE)
        assert 0 not in inst.graph.black
        assert inst.graph.black == {1, 2, 3}

    def test_needs_black_witness_neighbor(self):
        inst = Instance.from_graph(star_graph(3, white=[1, 2, 3]))
        assert not apply_first(inst, SimpleRule.BLACK_TO_WHITE)


class TestIsolatedBlack:
    def test_taken_into_solution(self):
        g = colored([], isolated=[5])
        inst = Instance.from_graph(g)
        assert apply_first(inst, SimpleRule.ISOLATED_BLACK)
        assert inst.solution == {5}
        assert inst.graph.vertex_count == 0

    def test_isolated_white_is_not_this_rule(self):
        g = colored([], white=[5], isolated=[5])
        inst = Instance.from_graph(g)
        assert not apply_first(inst, SimpleRule.ISOLATED_BLACK)
        assert apply_first(inst, SimpleRule.WHITE_NO_BLACK)

    def test_no_isolated_vertices(self):
        inst = Instance.from_graph(path_graph(3))
        assert not apply_first(inst, SimpleRule.ISOLATED_BLACK)


class TestDegree1Black:
    def test_pendant_forces_its_support(self):
        inst = Instance.from_graph(path_graph(2))
        assert apply_first(inst, SimpleRule.DEGREE1_BLACK)
        assert len(inst.solution) == 1
        assert inst.graph.black == set()

    def test_star_solved_through_any_leaf(self):
        inst = Instance.from_graph(star_graph(5))
        assert apply_first(inst, SimpleRule.DEGREE1_BLACK)
        assert inst.solution == {0}
        assert inst.graph.black == set()

    def test_degree_two_blacks_do_not_fire(self):
        inst = Instance.from_graph(cycle_graph(4))
        assert not apply_first(inst, SimpleRule.DEGREE1_BLACK)


class TestExhaustive:
    def test_star_fully_reduced(self):
        # Center whitened (ball containment), then forced back in through
        # a pendant leaf, then five lonely whites swept: 7 applications.
        inst = Instance.from_graph(star_graph(5))
        count = apply_simple_exhaustively(inst)
        assert inst.graph.vertex_count == 0
        assert inst.solution == {0}
        assert count == 7

    def test_empty_graph_zero_applications(self):
        inst = Instance.from_graph(ColoredGraph())
        assert apply_simple_exhaustively(inst) == 0

    def test_fixed_point_has_no_applicable_rule(self):
        for g in mixed_instance_stream(seed=101, count=30):
            inst = Instance.from_graph(g)
            apply_simple_exhaustively(inst)
            for rule in SimpleRule:
                for v in sorted(inst.graph.adj):
                    assert PREDICATES[rule](inst.graph, v) is None

    def test_stats_track_every_application(self):
        inst = Instance.from_graph(star_graph(5))
        count = apply_simple_exhaustively(inst)
        assert sum(inst.stats.values()) == count
        assert inst.stats["black_to_white"] == 1
        assert inst.stats["degree1_black"] == 1
        assert inst.stats["white_no_black"] == 5


class TestGoldenEquivalence:
    """The incremental worklist must reproduce the naive loop exactly."""

    def _assert_same(self, g):
        naive = Instance.from_graph(g.copy())
        fast = Instance.from_graph(g.copy())
        n_count = apply_simple_exhaustively_naive(naive)
        f_count = apply_simple_exhaustively(fast)
        assert n_count == f_count
        assert naive.graph.adj == fast.graph.adj
        assert naive.graph.black == fast.graph.black
        assert naive.solution == fast.solution
        assert naive.stats == fast.stats

    def test_on_mixed_random_instances(self):
        for g in mixed_instance_stream(seed=2718, count=300, max_n=16):
            self._assert_same(g)

    @given(colored_graphs(max_vertices=12))
    @settings(max_examples=150)
    def test_on_arbitrary_graphs(self, g):
        self._assert_same(g)

    def test_on_a_larger_planar_instance(self):
        g = generate_instance(GroupSpec(120, 280), 0, master_seed=5)
        self._assert_same(g)

    def test_on_a_wheel_with_pendants(self):
        self._assert_same(wheel_with_pendants(40))


def firing_sequence(g):
    """The (rule, vertex, witness) sequence of the driver on a copy of g,
    as its `trace` records it."""
    fired = []
    assert apply_simple_exhaustively(Instance.from_graph(g.copy()), fired) == len(fired)
    return fired


def naive_firing_sequence(g):
    """The same sequence for the naive loop, recorded at its `fire` calls."""
    fired = []

    def recording_fire(inst, rule, v, witness):
        fired.append((rule, v, witness))
        real_fire(inst, rule, v, witness)

    real_fire = helpers.fire
    with pytest.MonkeyPatch.context() as m:
        m.setattr(helpers, "fire", recording_fire)
        assert apply_simple_exhaustively_naive(Instance.from_graph(g.copy())) == len(fired)
    return fired


class TestFiringSequence:
    """The driver fires the same rules at the same vertices with the same
    witnesses, in the same order, as the naive loop: a stronger oracle
    than equal end states."""

    def _assert_same(self, g):
        fast = firing_sequence(g)
        assert fast == naive_firing_sequence(g)
        return fast

    @given(colored_graphs(max_vertices=12))
    @settings(max_examples=150)
    def test_on_arbitrary_graphs(self, g):
        self._assert_same(g)

    def test_on_a_larger_planar_instance(self):
        g = generate_instance(GroupSpec(120, 280), 0, master_seed=5)
        assert len(self._assert_same(g)) > 100

    def test_on_a_wheel_with_pendants(self):
        assert len(self._assert_same(wheel_with_pendants(40))) > 40

    def test_on_bw_small_shaped_instances(self):
        # The benchmark's bw-small inputs: where the rules interleave most,
        # so where a narrowed re-queue shows first.
        for g in bw_small_shaped(seed=0, count=200):
            self._assert_same(g)


def assert_predicates_match_the_rule_statements(g):
    for v in sorted(g.adj):
        for rule in SimpleRule:
            witness = PREDICATES[rule](g, v)
            golden = golden_witnesses(g, rule, v)
            if not golden:
                assert witness is None, (rule, v, witness)
                continue
            assert witness in golden, (rule, v, witness, golden)
            if rule == SimpleRule.WW_EDGE:
                assert witness == max(golden), (rule, v, witness)
            elif rule == SimpleRule.DEGREE1_BLACK:
                assert {witness} == golden, (rule, v, witness)


class TestGoldenPredicates:
    """Each predicate applies exactly where its rule statement does, with
    a witness the statement allows: the firing-sequence tests run the same
    predicates in both drivers, so they cannot see a predicate's error."""

    def test_on_mixed_instances(self):
        for g in mixed_instance_stream(seed=89, count=300):
            assert_predicates_match_the_rule_statements(g)

    @given(colored_graphs(max_vertices=12))
    @settings(max_examples=150)
    def test_on_arbitrary_graphs(self, g):
        assert_predicates_match_the_rule_statements(g)


def assert_off_color_rules_do_not_fire(g):
    for v in sorted(g.adj):
        for rule in set(SimpleRule) - set(RULES_OF[v in g.black]):
            assert PREDICATES[rule](g, v) is None, (SimpleRule(rule), v)


class TestColorTable:
    """The worklist queues a vertex only under RULES_OF[v in black]."""

    def test_the_table_splits_the_six_rules(self):
        assert RULES_OF == ((0, 1, 2), (3, 4, 5))
        assert sorted(RULES_OF[False] + RULES_OF[True]) == list(SimpleRule)

    def test_off_color_rules_never_fire_on_mixed_instances(self):
        for g in mixed_instance_stream(seed=83, count=200):
            assert_off_color_rules_do_not_fire(g)

    @given(colored_graphs(max_vertices=12))
    @settings(max_examples=150)
    def test_off_color_rules_never_fire_on_arbitrary_graphs(self, g):
        assert_off_color_rules_do_not_fire(g)

    def test_no_pop_finds_a_white(self, monkeypatch):
        """No black heap pops a vertex that is still there but white.
        Every key is black when pushed, each heap holds a vertex at most
        once, and a white phase follows every whitening before the next
        pop.  Only two rules whiten:

        - BLACK_TO_WHITE whitens the key u it popped, whose one entry in
          its heap is gone.  If u is queued under DEGREE1_BLACK, its one
          neighbor x is black with N(x) = {u}; the next white phase
          sweeps u, and WHITE_SUBSUMED removes it, covered by x.  A black
          queued under ISOLATED_BLACK has no neighbor to be whitened by.
        - DEGREE1_BLACK fires only once the BLACK_TO_WHITE and
          ISOLATED_BLACK heaps are empty.  A black y it whitens that is
          queued under DEGREE1_BLACK had the taken support as its one
          neighbor, so y is left isolated, swept as a neighbor of the
          support, and removed by WHITE_NO_BLACK.

        So this fails if the next white set misses u or y, or if a white
        is queued under BLACK_TO_WHITE."""
        graphs = [generate_instance(GroupSpec(302, 900), 0, 0),
                  *bw_small_shaped(0, 200)]
        for g in graphs:
            work = tier1_work(monkeypatch, g)
            assert work["firings"] > 0
            assert work["off_color"] == 0


def applicable_keys(g):
    return {
        (rule, v) for v in g.adj for rule in SimpleRule
        if PREDICATES[rule](g, v) is not None
    }


def assert_seed_holds_every_applicable_key(g):
    seed = flat_keys(initial_keys(g))
    assert len(seed) == len(set(seed))
    missed = applicable_keys(g) - set(seed)
    assert not missed, missed
    for r, x in seed:
        assert r in RULES_OF[x in g.black], (SimpleRule(r), x)
        if r in (SimpleRule.ISOLATED_BLACK, SimpleRule.DEGREE1_BLACK):
            assert len(g.adj[x]) < 2, (SimpleRule(r), x)


class TestInitialKeys:
    """The worklist's seed holds every applicable key, so its invariant
    holds from the start, and no ISOLATED_BLACK or DEGREE1_BLACK key at a
    black of degree 2 or more, where those rules cannot apply."""

    def test_on_mixed_instances(self):
        for g in mixed_instance_stream(seed=71, count=200):
            assert_seed_holds_every_applicable_key(g)

    @given(colored_graphs(max_vertices=12))
    @settings(max_examples=150)
    def test_on_arbitrary_graphs(self, g):
        assert_seed_holds_every_applicable_key(g)

    def test_each_black_gets_at_most_its_degree_rule(self):
        # Star with a black center of degree 4, black leaves 1-3, white
        # leaf 4, and an isolated black 9.
        g = star_graph(4, white=[4])
        g.add_vertex(9)
        assert sorted(flat_keys(initial_keys(g))) == sorted(
            [(SimpleRule.BLACK_TO_WHITE, v) for v in (0, 1, 2, 3, 9)]
            + [(SimpleRule.DEGREE1_BLACK, v) for v in (1, 2, 3)]
            + [(SimpleRule.ISOLATED_BLACK, 9)]
            + [(r, 4) for r in RULES_OF[False]]
        )


def tier1_work(monkeypatch, g):
    """Firings, heap pushes and keys examined of one run on g.  The keys
    are the heap pops ("pops"), of which "off_color" pop a vertex that is
    still there but white, and the entries of the lists the driver sorts
    ("swept"): the white sweeps' vertices and WW_EDGE's partners."""
    work = Counter()
    black = g.black

    def counting_push(heap, item):
        work["pushes"] += 1
        heapq.heappush(heap, item)

    def counting_pop(heap):
        item = heapq.heappop(heap)
        work["pops"] += 1
        work["off_color"] += -item in g.adj and -item not in black
        return item

    def counting_sorted(*args, **kwargs):
        out = sorted(*args, **kwargs)
        work["swept"] += len(out)
        return out

    with monkeypatch.context() as m:
        m.setattr(simple_rules, "heapq", SimpleNamespace(
            heapify=heapq.heapify, heappop=counting_pop, heappush=counting_push))
        m.setattr(simple_rules, "sorted", counting_sorted, raising=False)
        inst = Instance.from_graph(g)
        work["firings"] = apply_simple_exhaustively(inst)
    work["left"] = inst.graph.vertex_count
    return work


class TestTier1Work:
    """Deterministic work counts, so a wider re-queue fails without a
    timing.  The exact counts are also those of the earlier driver that
    checked each key through a predicate call, measured with this
    helper: applying the rules inline changed how a key is checked, not
    which keys are."""

    def test_wheel_work_per_firing_does_not_grow_with_the_hub(self, monkeypatch):
        small = tier1_work(monkeypatch, wheel_with_pendants(500))
        large = tier1_work(monkeypatch, wheel_with_pendants(4000))
        assert small["left"] == large["left"] == 0
        # The only keys the driver pushes are the pendants that the rim's
        # WHITE_SUBSUMED firings leave isolated: all but the one whose
        # support DEGREE1_BLACK takes first.  The queued sets absorb a
        # re-queue widened at every firing on the hub within one sweep, so
        # the per-firing ratio alone would not show it.
        assert (small["pushes"], large["pushes"]) == (499, 3_999)
        assert (small["pops"], small["swept"]) == (1_500, 2_000)
        assert (large["pops"], large["swept"]) == (12_000, 16_000)
        for count in ("pushes", "pops", "swept"):
            per_firing = large[count] / large["firings"]
            assert per_firing <= 2 * small[count] / small["firings"], count

    def test_canonical_instance_firings_and_keys_examined(self, monkeypatch):
        # 2002x6000 instance 0, whose 2,002 vertices all start black and
        # at degree 3 or more: the seed's one BLACK_TO_WHITE key per
        # black and the re-queue table's 353 pushes give 2,355 pops, and
        # the white phases sweep 5,667 entries.  Earlier drivers checked
        # keys through predicate calls: 14,547 with one call per WW_EDGE
        # firing, 23,975 with BLACK_TO_WHITE re-queued at every black
        # neighbor of a black that lost an edge, 25,579 with every black
        # seeded under all three black rules, and 39,694 with every rule
        # re-queued within distance 1 of a mutation.
        work = tier1_work(monkeypatch, generate_instance(GroupSpec(2002, 6000), 0, 0))
        assert work["firings"] == 4931
        assert work["left"] == 178
        assert (work["pushes"], work["pops"], work["swept"]) == (353, 2_355, 5_667)


class TestRuleProperties:
    def test_subsumption_generalizes_lonely_white_removal(self):
        # Wherever the no-black-neighbor rule fires on a non-isolated
        # vertex, the subsumption rule fires there too.
        no_black = PREDICATES[SimpleRule.WHITE_NO_BLACK]
        subsumed = PREDICATES[SimpleRule.WHITE_SUBSUMED]
        for g in mixed_instance_stream(seed=31, count=120):
            for v in sorted(g.adj):
                if g.adj[v] and no_black(g, v) is not None:
                    assert subsumed(g, v) is not None

    def test_each_application_strictly_decreases_phi(self):
        for g in mixed_instance_stream(seed=47, count=60):
            inst = Instance.from_graph(g)
            before = phi(inst)
            while apply_one_simple_rule(inst) is not None:
                assert phi(inst) < before
                before = phi(inst)

    @pytest.mark.parametrize("rule", list(SimpleRule), ids=lambda r: r.name.lower())
    def test_single_application_preserves_optimum(self, rule):
        fired = 0
        for g in mixed_instance_stream(seed=1000 + rule, count=150, max_n=12):
            inst = Instance.from_graph(g)
            before = inst.copy()
            if apply_first(inst, rule):
                fired += 1
                assert verify_rule_safety(before, inst)
        assert fired > 10

    def test_exhaustive_run_preserves_optimum(self):
        for g in mixed_instance_stream(seed=59, count=120, max_n=12):
            inst = Instance.from_graph(g)
            before = inst.copy()
            apply_simple_exhaustively(inst)
            assert verify_rule_safety(before, inst)
