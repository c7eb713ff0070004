"""Seeded planar instance generation: construction identities, planarity,
thinning, and determinism."""

import pytest
from networkx import Graph, check_planarity

from domkernel.plangen import (
    GroupSpec,
    canonical_groups,
    generate_group,
    generate_instance,
    random_maximal_planar,
    thin_to_edges,
)

from helpers import star_graph


def is_planar(g) -> bool:
    nx = Graph()
    nx.add_nodes_from(sorted(g.adj))
    nx.add_edges_from(g.edges())
    return check_planarity(nx, counterexample=False)[0]


class TestGroupSpec:
    def test_name(self):
        assert GroupSpec(302, 900).name == "302x900"

    def test_rejects_too_few_vertices(self):
        with pytest.raises(ValueError):
            GroupSpec(2, 0)

    def test_rejects_impossible_edge_counts(self):
        with pytest.raises(ValueError):
            GroupSpec(10, 25)
        with pytest.raises(ValueError):
            GroupSpec(10, -1)
        GroupSpec(10, 24)

    def test_rejects_a_negative_instance_count(self):
        with pytest.raises(ValueError):
            GroupSpec(10, 24, -1)
        assert GroupSpec(10, 24, 0).instances == 0

    def test_canonical_groups(self):
        groups = canonical_groups()
        assert [g.name for g in groups] == [
            "302x900",
            "450x900",
            "600x900",
            "2002x6000",
            "3000x6000",
            "4000x6000",
        ]
        assert all(g.instances == 25 for g in groups)
        assert all(g.instances == 100 for g in canonical_groups(100))


class TestRandomMaximalPlanar:
    def test_three_vertices_is_the_triangle(self):
        g = random_maximal_planar(3, seed=0)
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            random_maximal_planar(2, seed=0)

    @pytest.mark.parametrize("n", [3, 4, 7, 20, 61])
    def test_edge_count_identity(self, n):
        g = random_maximal_planar(n, seed=n)
        assert g.vertex_count == n
        assert g.edge_count == 3 * n - 6

    @pytest.mark.parametrize("seed", range(5))
    def test_planarity(self, seed):
        assert is_planar(random_maximal_planar(40, seed))

    def test_largest_group_size_is_planar(self):
        g = random_maximal_planar(302, seed=9)
        assert g.edge_count == 900
        assert is_planar(g)

    def test_deterministic_in_the_seed(self):
        a = random_maximal_planar(30, seed=5)
        b = random_maximal_planar(30, seed=5)
        c = random_maximal_planar(30, seed=6)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_everything_black(self):
        assert random_maximal_planar(12, seed=1).white_vertices() == set()


class TestThinToEdges:
    def test_identity_when_nothing_removed(self):
        g = random_maximal_planar(10, seed=2)
        out = thin_to_edges(g, g.edge_count, seed=3)
        assert out.edges() == g.edges()

    def test_exact_edge_count_and_subset(self):
        g = random_maximal_planar(30, seed=4)
        out = thin_to_edges(g, 40, seed=5)
        assert out.edge_count == 40
        assert set(out.edges()) <= set(g.edges())
        assert is_planar(out)

    def test_drops_stranded_vertices(self):
        out = thin_to_edges(star_graph(4), 2, seed=0)
        assert out.edge_count == 2
        assert out.vertex_count == 3
        assert all(len(out.adj[v]) > 0 for v in sorted(out.adj))

    def test_rejects_growing(self):
        with pytest.raises(ValueError):
            thin_to_edges(star_graph(2), 5, seed=0)

    def test_input_untouched(self):
        g = random_maximal_planar(12, seed=6)
        before = g.edges()
        thin_to_edges(g, 10, seed=7)
        assert g.edges() == before


class TestGenerateInstance:
    def test_group_302_is_not_actually_thinned(self):
        # 900 = 3*302 - 6, so this group keeps its triangulation whole.
        g = generate_instance(GroupSpec(302, 900), index=0, master_seed=0)
        assert g.vertex_count == 302
        assert g.edge_count == 900

    def test_sparse_group_loses_a_few_vertices(self):
        g = generate_instance(GroupSpec(450, 900), index=0, master_seed=0)
        assert g.edge_count == 900
        assert g.vertex_count <= 450
        assert all(len(g.adj[v]) > 0 for v in sorted(g.adj))

    def test_determinism_across_calls(self):
        spec = GroupSpec(100, 200)
        a = generate_instance(spec, 3, master_seed=11)
        b = generate_instance(spec, 3, master_seed=11)
        assert a.edges() == b.edges()

    def test_index_and_master_seed_both_matter(self):
        spec = GroupSpec(100, 200)
        base = generate_instance(spec, 0, master_seed=0)
        assert base.edges() != generate_instance(spec, 1, master_seed=0).edges()
        assert base.edges() != generate_instance(spec, 0, master_seed=1).edges()

    def test_generate_group_yields_every_index(self):
        spec = GroupSpec(20, 30, instances=4)
        graphs = list(generate_group(spec, master_seed=0))
        assert [g.edges() for g in graphs] == [
            generate_instance(spec, i, master_seed=0).edges() for i in range(4)
        ]
