"""Branch-and-bound solver, cross-checked against subset enumeration."""

import random

import pytest
from hypothesis import given, settings

from domkernel.exact import (
    DEFAULT_VERTEX_LIMIT,
    OracleSizeError,
    exact_dom,
)
from domkernel.graph import ColoredGraph, Instance

from helpers import (
    brute_force_dom,
    colored_graphs,
    cycle_graph,
    dominates,
    path_graph,
    random_colored_graph,
    star_graph,
    verify_rule_safety,
)


class TestDominates:
    def test_star_center(self):
        g = star_graph(4)
        assert dominates(g, {0})
        assert not dominates(g, {1})
        assert dominates(g, {1, 2, 3, 4})

    def test_whites_need_no_cover(self):
        g = path_graph(3, white=[0, 2])
        assert dominates(g, {0})
        assert not dominates(g, set())

    def test_empty_black_set(self):
        g = path_graph(2, white=[0, 1])
        assert dominates(g, set())


class TestExactDom:
    def test_empty_graph(self):
        assert exact_dom(ColoredGraph()).size == 0

    def test_all_white_needs_nothing(self):
        g = path_graph(4, white=[0, 1, 2, 3])
        result = exact_dom(g)
        assert result.size == 0
        assert result.witness == frozenset()

    def test_two_path(self):
        assert exact_dom(path_graph(2)).size == 1

    def test_star(self):
        result = exact_dom(star_graph(5))
        assert result.size == 1
        assert result.witness == frozenset({0})

    def test_six_cycle(self):
        assert exact_dom(cycle_graph(6)).size == 2

    def test_white_center_still_dominates(self):
        g = star_graph(5, white=[0])
        assert exact_dom(g).size == 1

    def test_witness_dominates(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_colored_graph(
                rng, rng.randint(1, 12), rng.uniform(0.1, 0.5), rng.uniform(0.0, 0.5)
            )
            result = exact_dom(g)
            assert dominates(g, result.witness)
            assert len(result.witness) == result.size

    def test_deterministic_witness(self):
        rng = random.Random(11)
        g = random_colored_graph(rng, 12, 0.3, 0.2)
        assert exact_dom(g) == exact_dom(g.copy())

    def test_size_limit_refusal(self):
        g = ColoredGraph()
        for _ in range(70):
            g.add_vertex()
        with pytest.raises(OracleSizeError) as exc:
            exact_dom(g)
        assert exc.value.n == 70
        assert exc.value.limit == DEFAULT_VERTEX_LIMIT
        assert exact_dom(g, limit=70).size == 70

    def test_limit_is_inclusive(self):
        g = ColoredGraph()
        for _ in range(5):
            g.add_vertex()
        assert exact_dom(g, limit=5).size == 5

    @given(colored_graphs(max_vertices=12))
    @settings(max_examples=250)
    def test_matches_brute_force(self, g):
        assert exact_dom(g).size == brute_force_dom(g)

    def test_matches_brute_force_on_planar_mix(self):
        from helpers import random_planar_colored

        rng = random.Random(13)
        for _ in range(60):
            g = random_planar_colored(rng, rng.randint(4, 12), rng.uniform(0.0, 0.5))
            assert exact_dom(g).size == brute_force_dom(g)


class TestVerifyRuleSafety:
    def test_accepts_a_sound_commitment(self):
        before = Instance.from_graph(star_graph(5))
        after = before.copy()
        after.take_into_solution(0)
        assert verify_rule_safety(before, after)

    def test_rejects_a_lossy_rewrite(self):
        # Deleting the star center without committing it leaves three
        # isolated blacks needing three dominators instead of one.
        before = Instance.from_graph(star_graph(3))
        after = before.copy()
        after.graph.remove_vertex(0)
        assert not verify_rule_safety(before, after)

    def test_honors_the_limit(self):
        g = ColoredGraph()
        for _ in range(70):
            g.add_vertex()
        inst = Instance.from_graph(g)
        with pytest.raises(OracleSizeError):
            verify_rule_safety(inst, inst.copy())
