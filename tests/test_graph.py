"""Colored graph container, solution bookkeeping, and the color-removal
gadget."""

import random

import pytest
from hypothesis import given, settings

from domkernel.exact import exact_dom
from domkernel.graph import WHITE, ColoredGraph, Instance, Touched, is_1_scattered

from helpers import (
    bfs_distances,
    brute_force_dom,
    bw_to_plain_gadget,
    check_invariants,
    colored,
    colored_graphs,
    dominates,
    path_graph,
    phi,
    random_colored_graph,
    residual,
    star_graph,
)


class TestColoredGraph:
    def test_fresh_ids_never_reused(self):
        g = ColoredGraph()
        assert [g.add_vertex() for _ in range(3)] == [0, 1, 2]
        g.remove_vertex(1)
        assert g.add_vertex() == 3

    def test_explicit_id_raises_the_fresh_floor(self):
        g = ColoredGraph()
        g.add_vertex(10)
        assert g.add_vertex() == 11

    def test_add_vertex_rejects_duplicates_and_negatives(self):
        g = ColoredGraph()
        g.add_vertex(0)
        with pytest.raises(ValueError):
            g.add_vertex(0)
        with pytest.raises(ValueError):
            g.add_vertex(-1)

    def test_add_edge_deduplicates(self):
        g = ColoredGraph.from_edges([(0, 1)])
        g.add_edge(1, 0)
        assert g.edge_count == 1
        assert g.edges() == [(0, 1)]

    def test_self_loop_rejected(self):
        g = ColoredGraph()
        g.add_vertex(0)
        with pytest.raises(ValueError):
            g.add_edge(0, 0)

    def test_remove_vertex_detaches_everywhere(self):
        g = star_graph(3)
        g.remove_vertex(0)
        assert g.vertex_count == 3
        assert g.edge_count == 0
        assert all(not g.adj[v] for v in g.adj)
        assert 0 not in g.black

    def test_remove_edge(self):
        g = path_graph(3)
        g.remove_edge(0, 1)
        assert g.edges() == [(1, 2)]
        assert g.edge_count == 1

    def test_neighborhood_queries(self):
        g = path_graph(4)
        assert g.adj[1] == {0, 2}
        assert len(g.adj[1]) == 2 and len(g.adj[0]) == 1

    def test_color_queries(self):
        g = path_graph(3, white=[1])
        assert 1 not in g.black and 0 in g.black
        assert g.black == {0, 2}
        assert g.white_vertices() == {1}

    def test_set_color_unknown_vertex(self):
        g = ColoredGraph()
        with pytest.raises(KeyError):
            g.set_color(5, WHITE)

    def test_set_color_unknown_color(self):
        g = path_graph(2)
        with pytest.raises(ValueError):
            g.set_color(0, "grey")
        assert g.black == {0, 1}

    def test_copy_is_independent(self):
        g = path_graph(3, white=[2])
        h = g.copy()
        h.remove_vertex(0)
        h.black.add(1)
        assert g.vertex_count == 3 and 2 not in g.black
        assert h.add_vertex() == 3

    def test_without(self):
        g = star_graph(4)
        h = residual(g, [0])
        assert sorted(h.adj) == [1, 2, 3, 4]
        assert h.edge_count == 0
        check_invariants(h)
        assert g.edge_count == 4

    def test_from_edges(self):
        g = ColoredGraph.from_edges([(0, 2), (2, 5)])
        assert sorted(g.adj) == [0, 2, 5]
        assert g.edges() == [(0, 2), (2, 5)]
        assert g.black == {0, 2, 5}

    def test_colored_helper(self):
        g = colored([(0, 2), (2, 5)], white=[2], isolated=[7])
        assert sorted(g.adj) == [0, 2, 5, 7]
        assert g.white_vertices() == {2}
        with pytest.raises(KeyError):
            colored([(0, 1)], white=[3])

    def test_check_invariants_catches_asymmetry(self):
        g = path_graph(2)
        g.adj[0].discard(1)
        with pytest.raises(AssertionError):
            check_invariants(g)

    def test_check_invariants_catches_a_black_non_vertex(self):
        g = path_graph(2)
        check_invariants(g)
        g.black.add(7)
        with pytest.raises(AssertionError):
            check_invariants(g)


class TestBall:
    @given(colored_graphs(max_vertices=12))
    @settings(max_examples=100)
    def test_is_the_vertices_within_the_radius(self, g):
        for v in sorted(g.adj):
            dist = bfs_distances(g, v)
            for radius in range(4):
                want = {u for u, d in dist.items() if d <= radius}
                assert g.ball([v], radius) == want
                assert g.ball([v, -1], radius) == want  # absent ones are skipped

    def test_radius_one_is_the_closed_neighbourhood_of_the_set(self):
        assert path_graph(4).ball([0, 3], 1) == {0, 1, 2, 3}


class TestTouched:
    def test_each_reader_reads_from_where_it_last_looked(self):
        g = path_graph(12)
        touched = Touched()
        assert touched.near(g, "a") == g.adj.keys()  # on a first look
        touched.log += [3, 1, 3]
        assert touched.near(g, "b") == g.adj.keys()
        assert touched.near(g, "a") == {0, 1, 2, 3, 4}
        touched.log.append(4)
        assert touched.near(g, "a") == {3, 4, 5}
        touched.log.append(8)
        touched.mark("a")
        assert touched.near(g, "a") == set()
        assert touched.near(g, "b") == {3, 4, 5, 7, 8, 9}

    def test_a_ball_of_every_vertex_comes_back_as_the_ball(self):
        g = path_graph(12)
        touched = Touched()
        touched.mark("a")
        touched.log += [0, 11, 99]  # 99 is no vertex
        assert touched.near(g, "a") == {0, 1, 10, 11}
        touched.log += [1, 4, 7, 10]
        assert touched.near(g, "a") == set(range(12))

    def test_a_writer_is_watched_once_another_reader_has_looked(self):
        touched = Touched()
        assert not touched.watched("a")
        touched.mark("a")
        assert not touched.watched("a")
        assert touched.watched("b")
        touched.mark("b")
        assert touched.watched("a")

    def test_after_looked_at_start_a_new_reader_reads_the_whole_log(self):
        g = path_graph(12)
        touched = Touched()
        assert touched.near(g, "a") == g.adj.keys()
        touched.log += [3, 7]
        touched.looked_at_start()
        assert touched.watched("a") and touched.watched("b")
        assert touched.near(g, "b") == {2, 3, 4, 6, 7, 8}
        assert touched.near(g, "a") == {2, 3, 4, 6, 7, 8}
        touched.log.append(9)
        assert touched.near(g, "c") == {2, 3, 4, 6, 7, 8, 9, 10}
        assert touched.near(g, "b") == {8, 9, 10}


class TestInstance:
    def test_take_into_solution_whitens_and_removes(self):
        inst = Instance.from_graph(star_graph(3))
        inst.take_into_solution(0)
        g = inst.graph
        assert inst.solution == {0}
        assert 0 not in g
        assert g.black == set()
        assert g.white_vertices() == {1, 2, 3}

    def test_take_center_solves_star_optimally(self):
        g = star_graph(5)
        before = brute_force_dom(g)
        inst = Instance.from_graph(g)
        inst.take_into_solution(0)
        assert before == len(inst.solution) + brute_force_dom(inst.graph)

    def test_take_bad_vertex_can_overshoot(self):
        # Committing an endpoint of P3 costs 2 where the middle alone
        # suffices; taking is sound (the combined set still dominates) but
        # not free, so only the inequality direction is universal.
        g = path_graph(3)
        assert brute_force_dom(g) == 1
        inst = Instance.from_graph(g)
        inst.take_into_solution(0)
        assert len(inst.solution) + brute_force_dom(inst.graph) == 2

    @given(colored_graphs(max_vertices=9))
    @settings(max_examples=120)
    def test_take_never_loses_solutions(self, g):
        opt = brute_force_dom(g)
        for v in sorted(g.adj):
            inst = Instance(g.copy())
            inst.take_into_solution(v)
            assert opt <= len(inst.solution) + brute_force_dom(inst.graph)

    def test_phi_counts_vertices_edges_blacks(self):
        inst = Instance.from_graph(path_graph(4, white=[1]))
        assert phi(inst) == 4 + 3 + 3

    def test_copy_detaches_solution_and_stats(self):
        inst = Instance.from_graph(star_graph(2))
        inst.stats["x"] = 1
        other = inst.copy()
        other.take_into_solution(0)
        other.stats["x"] += 1
        assert inst.solution == set() and inst.stats["x"] == 1
        assert inst.graph.vertex_count == 3


class TestScatteredCheck:
    def test_path_endpoints(self):
        g = path_graph(6)
        assert is_1_scattered(g, [0, 3], frozenset())
        assert is_1_scattered(g, [0, 5], frozenset())
        assert not is_1_scattered(g, [0, 2], frozenset())
        assert not is_1_scattered(g, [0, 1], frozenset())

    def test_empty_and_singleton(self):
        g = path_graph(3)
        assert is_1_scattered(g, [], frozenset())
        assert is_1_scattered(g, [1], frozenset())

    def test_removed_vertices_are_deleted_first(self):
        g = path_graph(5)
        assert is_1_scattered(g, [0, 2], removed={1})
        assert not is_1_scattered(g, [0, 2], removed={3})
        assert not is_1_scattered(g, [0, 1], removed={1})

    @given(colored_graphs(min_vertices=2, max_vertices=10))
    @settings(max_examples=150)
    def test_agrees_with_pairwise_distance(self, g):
        rng = random.Random(g.vertex_count * 1000 + g.edge_count)
        vs = [v for v in sorted(g.adj) if rng.random() < 0.5]
        by_distance = all(
            bfs_distances(g, u).get(v, 4) >= 3
            for i, u in enumerate(vs)
            for v in vs[i + 1 :]
        )
        assert is_1_scattered(g, vs, frozenset()) == by_distance


class TestColorRemovalGadget:
    def test_all_black_input_gains_pendant_pair(self):
        g = path_graph(3)
        out = bw_to_plain_gadget(g)
        assert out.vertex_count == 5
        assert out.edge_count == 3
        assert out.white_vertices() == set()
        pendant, hub = 3, 4
        assert out.adj[pendant] == {hub}
        assert exact_dom(out).size == exact_dom(g).size + 1

    def test_hub_attaches_to_former_whites(self):
        g = path_graph(3, white=[0, 2])
        out = bw_to_plain_gadget(g)
        pendant, hub = 3, 4
        assert out.adj[hub] == {pendant, 0, 2}
        assert out.black == {0, 1, 2, 3, 4}

    def test_white_middle_path(self):
        # {1} dominates both black endpoints of b-w-b, so the optimum is 1;
        # the gadget version needs the hub as well.
        g = path_graph(3, white=[1])
        assert brute_force_dom(g) == 1
        assert brute_force_dom(bw_to_plain_gadget(g)) == 2

    def test_input_untouched(self):
        g = path_graph(3, white=[1])
        bw_to_plain_gadget(g)
        assert g.vertex_count == 3 and g.white_vertices() == {1}

    def test_shifts_optimum_by_one_on_random_instances(self):
        rng = random.Random(2024)
        for _ in range(40):
            g = random_colored_graph(
                rng, rng.randint(1, 9), rng.uniform(0.1, 0.5), rng.uniform(0.0, 0.6)
            )
            assert brute_force_dom(bw_to_plain_gadget(g)) == brute_force_dom(g) + 1

    def test_gadget_witness_dominates(self):
        g = star_graph(4, white=[1, 2])
        out = bw_to_plain_gadget(g)
        result = exact_dom(out)
        assert dominates(out, result.witness)
