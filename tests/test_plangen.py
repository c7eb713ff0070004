"""Seeded planar instance generation: construction identities, planarity,
thinning, and determinism."""

import pytest
from networkx import Graph, check_planarity

from domkernel.plangen import (
    GroupSpec,
    canonical_groups,
    generate_group,
    generate_instance,
)

from helpers import golden_generate_instance


def assert_same_graph(got, want) -> None:
    """Same vertex order, neighbour sets, black set and next fresh id."""
    assert list(got.adj) == list(want.adj)
    for v in want.adj:
        assert got.adj[v] == want.adj[v], v
    assert got.black == want.black
    assert got._next_id == want._next_id


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


def triangulation(n: int, index: int = 0, seed: int = 0):
    """An instance of the unthinned group on n vertices, which keeps all
    3n - 6 edges of its stacked triangulation."""
    return generate_instance(GroupSpec(n, 3 * n - 6), index, seed)


class TestRandomMaximalPlanar:
    def test_three_vertices_is_the_triangle(self):
        g = triangulation(3)
        assert g.edges() == [(0, 1), (0, 2), (1, 2)]

    @pytest.mark.parametrize("n", [3, 4, 7, 20, 61])
    def test_edge_count_identity(self, n):
        g = triangulation(n, seed=n)
        assert g.vertex_count == n
        assert g.edge_count == 3 * n - 6

    @pytest.mark.parametrize("index", range(5))
    def test_planarity(self, index):
        assert is_planar(triangulation(40, index))

    def test_largest_group_size_is_planar(self):
        g = triangulation(302, seed=9)
        assert g.edge_count == 900
        assert is_planar(g)

    def test_deterministic_in_the_seed(self):
        a = triangulation(30, seed=5)
        b = triangulation(30, seed=5)
        c = triangulation(30, seed=6)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_everything_black(self):
        assert triangulation(12, seed=1).white_vertices() == set()


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

    def test_a_thinned_instance_is_planar_with_the_exact_edge_count(self):
        for index in range(3):
            g = generate_instance(GroupSpec(30, 40), index, master_seed=4)
            assert g.edge_count == 40
            assert is_planar(g)

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


class TestGoldenGenerator:
    """The one-pass generator builds what the triangulate, copy and remove
    generator in tests/helpers.py builds."""

    @pytest.mark.parametrize("seed", [0, 3])
    def test_canonical_groups(self, seed):
        for spec in canonical_groups():
            for index in (0, 1):
                assert_same_graph(generate_instance(spec, index, seed),
                                  golden_generate_instance(spec, index, seed))

    @pytest.mark.parametrize("seed", [0, 3])
    def test_bw_small_inputs(self, seed):
        spec = GroupSpec(50, 110)
        for index in range(100):
            assert_same_graph(generate_instance(spec, index, seed),
                              golden_generate_instance(spec, index, seed))

    @pytest.mark.parametrize("spec", [GroupSpec(3, 0), GroupSpec(3, 3),
                                      GroupSpec(4, 0), GroupSpec(10, 12)],
                             ids=lambda spec: spec.name)
    def test_tiny_groups_that_drop_vertices(self, spec):
        for seed in (0, 3):
            for index in range(4):
                g = generate_instance(spec, index, seed)
                assert_same_graph(g, golden_generate_instance(spec, index, seed))
                assert g._next_id == spec.vertices

    def test_the_last_vertex_dropped_keeps_the_next_id(self):
        g = generate_instance(GroupSpec(10, 12), 0, 3)
        assert 9 not in g.adj
        assert g._next_id == 10

    def test_a_ladder_rung(self):
        spec = GroupSpec(16016, 48000)
        assert_same_graph(generate_instance(spec, 0, 0),
                          golden_generate_instance(spec, 0, 0))

    # n = 1030 draws from every face count 2 to 2,054, so each bit length
    # of the face draw's rejection loop, up to 2^11, is reached.
    @pytest.mark.parametrize(
        "n, seed",
        [*(pytest.param(n, n, id=str(n)) for n in (3, 4, 5, 40)),
         *(pytest.param(1030, seed, id=f"1030-seed{seed}") for seed in range(5))])
    def test_triangulation(self, n, seed):
        spec = GroupSpec(n, 3 * n - 6)
        assert_same_graph(generate_instance(spec, 0, seed),
                          golden_generate_instance(spec, 0, seed))
