"""Greedy domination, the scatter heuristic and its hub deletion,
group-keyed whitening, and the one-pass driver."""

import hashlib
import random

import pytest

import domkernel.sparsity as sparsity_mod
from domkernel.engine import ALL_CONFIGS, ApproachConfig, kernelize
from domkernel.exact import exact_dom
from domkernel.graph import ColoredGraph, Instance, Touched, is_1_scattered
from domkernel.plangen import canonical_groups, generate_instance
from domkernel.sparsity import (
    greedy_dominating_set,
    group_and_reduce,
    sparsity_reduce,
    uqw_scatter,
)

import helpers
from helpers import (
    apex_stars,
    bw_small_shaped,
    colored,
    dominates,
    golden_sparsity_reduce,
    hub_cycle,
    hub_skewed_stream,
    mixed_instance_stream,
    path_graph,
    random_colored_graph,
    residual,
    star_graph,
    verify_rule_safety,
)


def naive_greedy(g, targets):
    """Straightforward rescan-everything reference for the lazy version."""
    remaining = set(targets)
    out = set()
    while remaining:
        v = min(
            g.adj,
            key=lambda x: (-(len(g.adj[x] & remaining) + (x in remaining)), x),
        )
        out.add(v)
        remaining -= g.adj[v]
        remaining.discard(v)
    return out


class TestGreedyDominatingSet:
    def test_empty_targets(self):
        assert greedy_dominating_set(path_graph(3), set()) == set()

    def test_star_takes_the_center(self):
        g = star_graph(5)
        assert greedy_dominating_set(g, set(sorted(g.adj))) == {0}

    def test_five_path_is_covered_within_three(self):
        g = path_graph(5)
        out = greedy_dominating_set(g, set(sorted(g.adj)))
        assert out == {1, 3}
        assert dominates(g, out)

    def test_covers_arbitrary_target_subsets(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_colored_graph(rng, rng.randint(1, 14), 0.3, 0.0)
            targets = {v for v in sorted(g.adj) if rng.random() < 0.6}
            out = greedy_dominating_set(g, targets)
            assert targets <= g.ball(out, 1)

    def test_matches_the_naive_rescan(self):
        rng = random.Random(4)
        for _ in range(120):
            g = random_colored_graph(
                rng, rng.randint(1, 14), rng.uniform(0.1, 0.6), 0.0
            )
            targets = {v for v in sorted(g.adj) if rng.random() < 0.7}
            assert greedy_dominating_set(g, targets) == naive_greedy(g, targets)


def hub_graph(dominators: int) -> ColoredGraph:
    """`dominators` vertices with ten private leaves each, plus one vertex
    (the largest id) joined to every dominator."""
    edges = []
    nxt = dominators
    for d in range(dominators):
        for _ in range(10):
            edges.append((d, nxt))
            nxt += 1
    edges.extend((d, nxt) for d in range(dominators))
    return ColoredGraph.from_edges(edges)


class TestUqwScatter:
    def test_empty_inputs(self):
        assert uqw_scatter(ColoredGraph(), set(), frozenset()) == (frozenset(), frozenset())
        g = path_graph(3)
        assert uqw_scatter(g, set(), frozenset()) == (frozenset(), frozenset())
        assert uqw_scatter(g, {0, 1, 2}, {0, 1, 2}) == (frozenset(), frozenset())

    def test_isolated_candidates_all_kept(self):
        g = colored([], isolated=range(5))
        assert uqw_scatter(g, set(range(5)), frozenset()) == (frozenset(range(5)), frozenset())

    def test_small_star_keeps_one_leaf(self):
        # Center degree 5 sits under the hub cutoff, so no deletion; the
        # first leaf blocks the rest through the center.
        scattered, deleted = uqw_scatter(star_graph(5), {1, 2, 3, 4, 5}, frozenset())
        assert deleted == frozenset()
        assert scattered == frozenset({1})

    def test_large_star_deletes_the_center(self):
        scattered, deleted = uqw_scatter(star_graph(10), set(range(1, 11)), frozenset())
        assert deleted == frozenset({0})
        assert scattered == frozenset(range(1, 11))

    def test_five_path_scatters_the_ends(self):
        scattered, deleted = uqw_scatter(path_graph(5), {0, 1, 2, 3, 4}, frozenset())
        assert deleted == frozenset()
        assert scattered == frozenset({0, 4})

    def test_cutoff_knob_forces_deletion(self):
        # The hub cutoff is max(8, 4m/n): a star center of degree 8 sits at
        # it and stays, one of degree 9 exceeds it and is deleted.
        scattered, deleted = uqw_scatter(star_graph(8), set(range(1, 9)), frozenset())
        assert deleted == frozenset()
        assert scattered == frozenset({1})
        scattered, deleted = uqw_scatter(star_graph(9), set(range(1, 10)), frozenset())
        assert deleted == frozenset({0})
        assert scattered == frozenset(range(1, 10))
        # In K12 every degree is 11, above 8 but under 4m/n = 22.
        k12 = ColoredGraph.from_edges(
            [(u, v) for u in range(12) for v in range(u + 1, 12)]
        )
        scattered, deleted = uqw_scatter(k12, set(range(12)), frozenset())
        assert deleted == frozenset()
        assert scattered == frozenset({0})

    def test_deletion_cap_knob(self):
        # Three disjoint stars with centers 0, 1, 2 of degrees 12, 11, 10,
        # all above the cutoff of 8.  Four candidates allow sqrt(4) = 2
        # deletions, so center 2 survives and its leaves block each other.
        edges, nxt = [], 3
        for center, leaves in enumerate((12, 11, 10)):
            for _ in range(leaves):
                edges.append((center, nxt))
                nxt += 1
        g = ColoredGraph.from_edges(edges)
        star2 = sorted(g.adj[2])[:4]
        scattered, deleted = uqw_scatter(g, set(star2), frozenset())
        assert deleted == frozenset({0, 1})
        assert scattered == frozenset({star2[0]})

    def test_output_is_scattered_in_the_residual(self):
        rng = random.Random(5)
        for g in mixed_instance_stream(seed=5, count=150, max_n=16):
            candidates = {v for v in sorted(g.adj) if rng.random() < 0.8}
            scattered, deleted = uqw_scatter(g, candidates, frozenset())
            assert scattered <= candidates - deleted
            assert is_1_scattered(residual(g, deleted), scattered, frozenset())

    def test_mask_matches_the_residual_copy(self):
        # The mask must read g exactly as a copy with `removed` deleted
        # would: same cutoff, same hub deletions, same scatter.  The hub
        # graphs push degrees past the cutoff so that deletions happen.
        rng = random.Random(6)
        graphs = list(mixed_instance_stream(seed=6, count=200, max_n=24))
        graphs += [hub_graph(k) for k in range(1, 10)]
        graphs += [apex_stars(k, 9) for k in range(1, 6)]
        deletions = 0
        for g in graphs:
            vs = sorted(g.adj)
            removed = {v for v in vs if rng.random() < 0.3}
            candidates = {v for v in vs if rng.random() < 0.8}
            masked = uqw_scatter(g, candidates, removed)
            assert masked == uqw_scatter(residual(g, removed), candidates - removed, frozenset())
            deletions += len(masked[1])
        assert deletions > 0


@pytest.fixture
def greedy_calls(monkeypatch):
    """The target sets of every greedy call that group_and_reduce makes."""
    calls = []

    def recording(g, targets):
        calls.append(set(targets))
        return greedy_dominating_set(g, targets)

    monkeypatch.setattr(sparsity_mod, "greedy_dominating_set", recording)
    return calls


class TestGroupAndReduce:
    def test_rejects_non_black_members(self):
        g = path_graph(3, white=[2])
        inst = Instance.from_graph(g)
        with pytest.raises(AssertionError):
            group_and_reduce(inst, frozenset({1}), [2], [])

    def test_rejects_unscattered_family(self):
        g = path_graph(3)
        inst = Instance.from_graph(g)
        with pytest.raises(AssertionError):
            group_and_reduce(inst, frozenset(), [0, 1], [])

    def test_empty_family(self):
        inst = Instance.from_graph(path_graph(3))
        assert group_and_reduce(inst, frozenset({1}), [], []) == 0

    def test_group_at_the_counting_boundary_keeps_everything(self):
        # Two leaves against a one-vertex cover of their reach: the excess
        # max(0, 2 - 1 - 1) is zero.
        inst = Instance.from_graph(star_graph(2))
        assert group_and_reduce(inst, frozenset({0}), [1, 2], []) == 0
        assert inst.graph.white_vertices() == set()

    def test_two_member_group_makes_no_greedy_call(self, greedy_calls):
        # Two members can never whiten (the module docstring's bound), so
        # their group is not covered at all.
        inst = Instance.from_graph(star_graph(2))
        assert group_and_reduce(inst, frozenset({0}), [1, 2], []) == 0
        assert greedy_calls == []

    def test_three_members_against_a_one_vertex_cover(self, greedy_calls):
        # The smallest group that whitens: the center covers the reach,
        # so the excess is 3 - 1 - 1 = 1 and the largest leaf goes.
        inst = Instance.from_graph(star_graph(3))
        assert group_and_reduce(inst, frozenset({0}), [1, 2, 3], []) == 1
        assert inst.graph.white_vertices() == {3}
        assert greedy_calls == [{0, 1, 2, 3}]

    def test_contactless_members_are_skipped(self):
        g = colored([(0, 1)], isolated=[5])
        inst = Instance.from_graph(g)
        assert group_and_reduce(inst, frozenset({0}), [1, 5], []) == 0

    def test_five_members_against_a_two_cover(self):
        # Five vertices all joined to both pool hubs 0 and 1; their reach
        # needs the two hubs, so three members keep their color and the
        # two largest ids are whitened.
        edges = [(h, x) for h in (0, 1) for x in range(2, 7)]
        g = ColoredGraph.from_edges(edges)
        inst = Instance.from_graph(g)
        before = exact_dom(g.copy()).size
        assert group_and_reduce(inst, frozenset({0, 1}), [2, 3, 4, 5, 6], []) == 2
        assert inst.graph.white_vertices() == {5, 6}
        assert inst.stats["sparsity_whitened"] == 2
        assert exact_dom(inst.graph).size == before

    def test_whitened_vertices_are_irrelevant_dominatees(self):
        edges = [(h, x) for h in (0, 1) for x in range(2, 7)]
        g = ColoredGraph.from_edges(edges)
        inst = Instance.from_graph(g.copy())
        group_and_reduce(inst, frozenset({0, 1}), [2, 3, 4, 5, 6], [])
        for z in inst.graph.white_vertices():
            relaxed = g.copy()
            relaxed.black.remove(z)
            assert exact_dom(relaxed).size == exact_dom(g).size


class TestSparsityReduce:
    def test_already_reduced_path(self):
        inst = Instance.from_graph(path_graph(3))
        assert sparsity_reduce(inst, Touched()) == 0
        assert inst.graph.white_vertices() == set()
        assert inst.stats["sparsity_passes"] == 1
        assert inst.stats["sparsity_scatter_calls"] == 1

    def test_empty_and_all_white_graphs(self):
        assert sparsity_reduce(Instance.from_graph(ColoredGraph()), Touched()) == 0
        inst = Instance.from_graph(path_graph(3, white=[0, 1, 2]))
        assert sparsity_reduce(inst, Touched()) == 0

    def test_apex_star_family_whitens_one_leaf_per_star(self):
        inst = Instance.from_graph(apex_stars(12, 3))
        whitened = sparsity_reduce(inst, Touched())
        assert whitened == 12
        whites = inst.graph.white_vertices()
        assert len(whites) == 12
        # One leaf per star, specifically the largest id of each triple.
        for star in range(12):
            leaves = {13 + 3 * star + i for i in range(3)}
            assert len(whites & leaves) == 1
            assert max(leaves) in whites

    def test_apex_star_family_preserves_the_optimum(self):
        g = apex_stars(4, 3)
        inst = Instance.from_graph(g.copy())
        before = inst.copy()
        assert sparsity_reduce(inst, Touched()) == 4
        assert verify_rule_safety(before, inst)
        assert exact_dom(g).size == 4

    @staticmethod
    def assert_one_pass(dominators):
        # d dominators with ten private leaves each, plus one vertex
        # joined to all d: each dominator's leaves form one group whose
        # reach the dominator covers, so 10 - 1 - 1 = 8 leaves whiten per
        # dominator, all in the one pass.
        inst = Instance.from_graph(hub_graph(dominators))
        assert sparsity_reduce(inst, Touched()) == 8 * dominators
        assert inst.stats["sparsity_passes"] == 1
        assert inst.stats["sparsity_scatter_calls"] == 1

    def test_hub_graph_whitens_in_one_pass(self):
        # The vertex joined to all d dominators never joins the pool, however
        # many dominators it sees.
        for dominators in (9, 12):
            self.assert_one_pass(dominators)

    def test_hub_graph_makes_one_pass_at_seven_and_eight(self):
        # Seven and eight dominators make the same single pass: no count of
        # pool neighbours changes what tier 4 does.
        for dominators in (7, 8):
            self.assert_one_pass(dominators)

    def test_never_mutates_anything_but_colors(self):
        for g in mixed_instance_stream(seed=92, count=40, max_n=14):
            inst = Instance.from_graph(g.copy())
            sparsity_reduce(inst, Touched())
            assert inst.graph.adj == g.adj
            assert inst.solution == set()
            assert g.black >= inst.graph.black

    def test_remaining_blacks_stay_a_strict_core(self):
        for g in mixed_instance_stream(seed=93, count=120, max_n=14):
            inst = Instance.from_graph(g.copy())
            sparsity_reduce(inst, Touched())
            assert exact_dom(inst.graph).size == exact_dom(g).size

    def test_whitened_vertices_individually_irrelevant(self):
        checked = 0
        for g in mixed_instance_stream(seed=94, count=150, max_n=14):
            inst = Instance.from_graph(g.copy())
            if sparsity_reduce(inst, Touched()) == 0:
                continue
            base = exact_dom(g).size
            for z in g.black - inst.graph.black:
                relaxed = g.copy()
                relaxed.black.remove(z)
                assert exact_dom(relaxed).size == base
                checked += 1
        assert checked > 0


def tier4_corpus():
    """Inputs for the golden tier-4 check.  The random families rarely
    whiten, so the hand-built families supply most of the whitening
    calls and the hub-skewed graphs most of the scatter's hub deletions;
    the canonical kernels are what tier 4 meets in the benchmark."""
    yield from mixed_instance_stream(seed=24, count=300, max_n=30)
    yield from hub_skewed_stream(seed=5, count=200)
    yield from bw_small_shaped(seed=3, count=100)
    for hubs in range(3, 9):
        for paths in range(1, 9):
            yield hub_cycle(hubs, paths)
    for stars in range(1, 13):
        for leaves in range(1, 6):
            yield apex_stars(stars, leaves)
    for dominators in range(1, 13):
        yield hub_graph(dominators)
    for seed in (0, 1):
        for spec in canonical_groups():
            g = generate_instance(spec, 0, seed)
            for name in ("off.none", "off.both"):
                inst = Instance.from_graph(g.copy())
                kernelize(inst, ApproachConfig.from_name(name))
                yield inst.graph


class TestGoldenTier4:
    def test_matches_the_golden_model(self, monkeypatch):
        # Same return value, black set, stats and whitening log as the
        # stage that covers every group of two or more members.
        deletions = []
        golden_scatter = helpers.golden_uqw_scatter

        def recording(g, candidates, removed):
            scattered, deleted = golden_scatter(g, candidates, removed)
            deletions.append(len(deleted))
            return scattered, deleted

        monkeypatch.setattr(helpers, "golden_uqw_scatter", recording)
        whitening = 0
        for g in tier4_corpus():
            runs = []
            for reduce in (golden_sparsity_reduce, sparsity_reduce):
                inst, touched = Instance.from_graph(g.copy()), Touched()
                touched.log.append(-1)  # an earlier writer's entry
                runs.append((reduce(inst, touched), inst.graph.black,
                             inst.stats, touched.log))
            assert runs[1] == runs[0]
            whitening += runs[0][0] > 0
        assert whitening >= 25
        # Golden calls whose scatter deleted at least one hub.
        assert sum(n > 0 for n in deletions) >= 70


class TestHubDeletion:
    def test_hub_skewed_kernels_keep_the_optimum(self):
        """The scatter's hub deletion changes the kernels of 9 of these
        1,000 members, under `on.none` and `on.one` and in 5 of them
        also under `on.both`.  Every configuration's kernel must keep
        |solution| + OPT(kernel) = OPT(input), and the digest pins the
        `on.none` kernels: a scatter that deletes no hub changes it."""
        digest = hashlib.sha256()
        for g in hub_skewed_stream(seed=5, count=1000):
            optimum = exact_dom(g).size
            for config in ALL_CONFIGS:
                inst = Instance.from_graph(g.copy())
                kernelize(inst, config)
                k = inst.graph
                assert len(inst.solution) + exact_dom(k).size == optimum
                if config.name == "on.none":
                    digest.update(repr((sorted(k.edges()), sorted(k.black),
                                        sorted(inst.solution))).encode())
        assert digest.hexdigest() == (
            "3d71030600e10e7ec717a996ffddde809217884a4b730e79cef12ccfe6de4c68")
