"""Configuration naming, the tiered fixed-point driver, and its reports."""

import random
import re
from collections import Counter

import pytest

import domkernel.engine as engine
from domkernel.alber import apply_alber_pair_first, apply_alber_single_first
from domkernel.bench import CSV_COLUMNS
from domkernel.engine import (
    ALL_CONFIGS,
    ATTEMPT_LIMIT,
    STAT_KEYS,
    ApproachConfig,
    KernelReport,
    kernelize,
)
from domkernel.exact import exact_dom
from domkernel.graph import ColoredGraph, Instance, Touched
from domkernel.plangen import GroupSpec, canonical_groups, generate_instance
from domkernel.simple_rules import SimpleRule, apply_simple_exhaustively
from domkernel.sparsity import sparsity_reduce

from helpers import (
    PREDICATES,
    SINGLE_FIRES,
    apply_alber_pair_first_naive,
    apply_alber_single_first_naive,
    brute_force_dom,
    bw_small_shaped,
    changed_vertices,
    colored,
    hub_cycle,
    hub_skewed_stream,
    mixed_instance_stream,
    off_none_kernel,
    star_graph,
)


def shifted(g: ColoredGraph, offset: int) -> ColoredGraph:
    """g with every vertex id moved by offset."""
    return colored(
        [(u + offset, v + offset) for u, v in g.edges()],
        white=[v + offset for v in g.white_vertices()],
        isolated=[v + offset for v in sorted(g.adj)],
    )


def shuffled_rebuild(g: ColoredGraph, seed: int) -> ColoredGraph:
    """g with its vertices, each adjacency set and the black set inserted
    in a random order drawn from the seed."""
    rng = random.Random(seed)
    out = ColoredGraph()
    for v in rng.sample(list(g.adj), len(g.adj)):
        out.adj[v] = set(rng.sample(list(g.adj[v]), len(g.adj[v])))
    out.black = set(rng.sample(list(g.black), len(g.black)))
    out._next_id = g._next_id
    return out


def kernel_outcome(g: ColoredGraph, config) -> tuple:
    """The report without its time, the kernel's adjacency and blacks, and
    the solution of kernelizing g in place under config."""
    inst = Instance.from_graph(g)
    report = kernelize(inst, config).to_dict()
    del report["elapsed_seconds"]
    return report, inst.graph.adj, inst.graph.black, inst.solution


class TestApproachConfig:
    def test_canonical_order(self):
        assert [c.name for c in ALL_CONFIGS] == [
            "off.none",
            "off.one",
            "off.both",
            "on.none",
            "on.one",
            "on.both",
        ]

    def test_from_name_roundtrip(self):
        for config in ALL_CONFIGS:
            assert ApproachConfig.from_name(config.name) == config

    @pytest.mark.parametrize(
        "name", ["", "off", "off.any", "maybe.none", "on.one.extra", "ON.none"]
    )
    def test_from_name_rejects_unknown(self, name):
        with pytest.raises(ValueError):
            ApproachConfig.from_name(name)

    def test_constructor_validates_alber_mode(self):
        with pytest.raises(ValueError):
            ApproachConfig(alber="two")

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_tiers_are_tier1_then_the_higher_tiers(self, config):
        names = tuple(tier.__name__ for tier in config.tiers)
        assert names == ("apply_simple_exhaustively",) + HIGHER_TIERS[config.name]

    def test_prefix_table(self):
        prefixes = {
            c.name: c.prefix.name if c.prefix else None for c in ALL_CONFIGS
        }
        assert prefixes == {
            "off.none": None,
            "off.one": "off.none",
            "off.both": "off.one",
            "on.none": "off.none",
            "on.one": "off.one",
            "on.both": "off.both",
        }

    def test_every_prefix_comes_before_its_children(self):
        # bench runs a file's configurations in ALL_CONFIGS order, each
        # continuing from its prefix's kernel; perfbench's run-order check
        # needs one call per configuration in that order.
        for i, config in enumerate(ALL_CONFIGS):
            if config.prefix is not None:
                assert ALL_CONFIGS.index(config.prefix) < i

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_prefix_tiers_are_the_first_tiers(self, config):
        if config.prefix is not None:
            tiers = HIGHER_TIERS[config.name]
            assert tiers[:-1] == HIGHER_TIERS[config.prefix.name]


HIGHER_TIERS = {  # engine's names for the tiers above tier 1, in firing order
    "off.none": (),
    "off.one": ("apply_alber_single_first",),
    "off.both": ("apply_alber_single_first", "apply_alber_pair_first"),
    "on.none": ("sparsity_reduce",),
    "on.one": ("apply_alber_single_first", "sparsity_reduce"),
    "on.both": (
        "apply_alber_single_first",
        "apply_alber_pair_first",
        "sparsity_reduce",
    ),
}


@pytest.fixture
def tier_log(monkeypatch):
    """Wrap every tier at its engine attribute; each call appends
    (name, result) to the returned log."""
    log = []

    def recording(name):
        tier = getattr(engine, name)

        def call(inst, **kwargs):
            result = tier(inst, **kwargs)
            log.append((name, result))
            return result
        return call

    for name in ("apply_simple_exhaustively",) + HIGHER_TIERS["on.both"]:
        monkeypatch.setattr(engine, name, recording(name))
    return log


def tier1_firings(log) -> int:
    return sum(r for n, r in log if n == "apply_simple_exhaustively")


class TestTierTable:
    """kernelize calls each tier through engine's module attribute, in the
    configured order, and counts attempts as its docstring defines."""

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_tier_sequence_and_attempts(self, config, tier_log):
        log = tier_log
        tiers = HIGHER_TIERS[config.name]
        fired = set()
        for g in (SINGLE_FIRES, hub_cycle(3, 12), star_graph(4)):
            log.clear()
            report = kernelize(Instance.from_graph(g.copy()), config)
            # Each round is a tier-1 call, then higher tiers in order up to
            # the first that reduces anything; the last round reduces nothing.
            assert log[0][0] == "apply_simple_exhaustively"
            rounds = []
            for name, result in log:
                if name == "apply_simple_exhaustively":
                    rounds.append([])
                else:
                    rounds[-1].append((name, bool(result)))
            for calls in rounds[:-1]:
                assert [n for n, _ in calls] == list(tiers[: len(calls)])
                assert [r for _, r in calls] == [False] * (len(calls) - 1) + [True]
                fired.add(calls[-1][0])
            assert rounds[-1] == [(n, False) for n in tiers]
            assert report.attempts == tier1_firings(log) + len(log)
        assert bool(fired) == bool(tiers)

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_after_skips_only_the_first_tier1_call(self, config, tier_log):
        # A run that continues its prefix's run makes the calls of a run
        # from the input minus the prefix run's calls, which are its first
        # ones, and adds the prefix's attempts.  For a prefix of off.none
        # that is the first tier-1 call.  off.none has no prefix; its run
        # is that one call.
        log = tier_log
        for g in (SINGLE_FIRES, hub_cycle(3, 12), star_graph(4)):
            log.clear()
            kernelize(Instance.from_graph(g.copy()), config)
            scratch = list(log)
            if config.prefix is None:
                assert [n for n, _ in scratch] == ["apply_simple_exhaustively"]
                continue
            base = Instance.from_graph(g.copy())
            log.clear()
            first = kernelize(base, config.prefix)
            prefix_calls = list(log)
            log.clear()
            report = kernelize(base.copy(), config, first)
            assert scratch[: len(prefix_calls)] == prefix_calls
            assert log == scratch[len(prefix_calls):]
            assert first.attempts == tier1_firings(prefix_calls) + len(prefix_calls)
            if config.prefix.name == "off.none":
                assert log == scratch[1:]
                assert first.attempts == scratch[0][1] + 1
            assert report.attempts == first.attempts + tier1_firings(log) + len(log)


class TestKernelizeAfter:
    """kernelize(parent.copy(), config, report), where report is the run of
    config.prefix that left parent, equals a run of config from the input;
    chained along the prefixes, so does every configuration."""

    @staticmethod
    def without_elapsed(report) -> dict:
        out = report.to_dict()
        del out["elapsed_seconds"]
        return out

    def test_continuing_equals_a_run_from_the_input(self):
        corpus = list(mixed_instance_stream(seed=22, count=80, max_n=24))
        corpus += [SINGLE_FIRES, hub_cycle(3, 12)]
        higher = set()
        for g in corpus:
            runs = {}  # config -> (instance it left, report)
            for config in ALL_CONFIGS:
                golden = Instance.from_graph(g.copy())
                want = kernelize(golden, config)
                if config.prefix is None:
                    inst = Instance.from_graph(g.copy())
                    got = kernelize(inst, config)
                else:
                    parent, first = runs[config.prefix]
                    parent_adj = {v: set(nv) for v, nv in parent.graph.adj.items()}
                    inst = parent.copy()
                    got = kernelize(inst, config, first)
                    assert got.elapsed_seconds >= first.elapsed_seconds
                    assert parent.graph.adj == parent_adj
                runs[config] = (inst, got)
                assert self.without_elapsed(got) == self.without_elapsed(want)
                assert inst.graph.adj == golden.graph.adj
                assert inst.graph.black == golden.graph.black
                assert inst.solution == golden.solution
                higher.update(
                    k for k in ("alber_single", "alber_pair", "sparsity_whitened")
                    if got.rule_applications[k]
                )
        # The corpus reaches every higher tier, not only tier 1.
        assert higher == {"alber_single", "alber_pair", "sparsity_whitened"}

    def test_only_the_first_call_of_a_continuation_scans_everything(self):
        # The first call goes to the tier the prefix lacks; after it, the
        # prefix's tiers read the log from the run's start.  A reader that
        # has not looked probes that: it gets the live view of every
        # vertex, not a set near the log, only at the first call.
        probes = []

        def probing(name):
            tier = getattr(engine, name)

            def call(inst, touched):
                near = touched.near(inst.graph, f"probe {len(probes)}")
                probes.append((type(near) is not set,
                               inst.graph.adj.keys() <= set(touched.log)))
                return tier(inst, touched=touched)
            return call

        corpus = list(mixed_instance_stream(seed=22, count=80, max_n=24))
        corpus += [SINGLE_FIRES, hub_cycle(3, 12), hub_cycle(4, 4)]
        later = 0
        for g in corpus:
            runs = {}  # config -> (instance it left, report)
            for config in ALL_CONFIGS:
                if config.prefix is None:
                    inst = Instance.from_graph(g.copy())
                    runs[config] = (inst, kernelize(inst, config))
                    continue
                parent, first = runs[config.prefix]
                inst = parent.copy()
                probes.clear()
                with pytest.MonkeyPatch.context() as m:
                    for name in ("apply_simple_exhaustively",) + HIGHER_TIERS["on.both"]:
                        m.setattr(engine, name, probing(name))
                    runs[config] = (inst, kernelize(inst, config, first))
                assert probes[0][0], config.name
                for every, covered in probes[1:]:
                    assert not every or covered, config.name
                    later += not covered
        assert later >= 20

    def test_only_the_pair_tier_keeps_more_than_the_prefix(self):
        # Continuing off.one, on.none or on.one only deletes vertices and
        # edges or whitens blacks, so it keeps no more than its prefix;
        # only the pair tier's gadget (off.both, on.both) adds vertices.
        corpus = list(mixed_instance_stream(seed=5, count=600, max_n=40))
        corpus += [SINGLE_FIRES, hub_cycle(3, 12)]
        reduced = set()
        for g in corpus:
            runs = {}  # config -> (instance it left, report)
            for name in ("off.none", "off.one", "on.none", "on.one"):
                config = ApproachConfig.from_name(name)
                if config.prefix is None:
                    inst = Instance.from_graph(g.copy())
                    runs[config] = (inst, kernelize(inst, config))
                    continue
                parent, first = runs[config.prefix]
                inst = parent.copy()
                report = kernelize(inst, config, first)
                runs[config] = (inst, report)
                assert report.final_vertices <= first.final_vertices
                assert report.final_edges <= first.final_edges
                if inst.graph.black != parent.graph.black:
                    reduced.add(name)
        # Each continued configuration reduces some input of the corpus.
        assert reduced == {"off.one", "on.none", "on.one"}

    @pytest.mark.parametrize("name", [c.name for c in ALL_CONFIGS])
    def test_after_must_be_an_off_none_report(self, name):
        # A report of `name` continues only the configurations whose prefix
        # is `name`; off.none has no prefix and refuses every report.
        inst = Instance.from_graph(hub_cycle(3, 12))
        report = kernelize(inst, ApproachConfig.from_name(name))
        for config in ALL_CONFIGS:
            if config.prefix is None or config.prefix.name != name:
                with pytest.raises(ValueError, match=re.escape(config.name)):
                    kernelize(inst.copy(), config, report)


# The tiers as their own modules define them, kept from before any test
# wraps engine's attributes.  Called with a fresh log, each call scans
# the whole graph.
STATELESS = {
    "apply_simple_exhaustively": apply_simple_exhaustively,
    "apply_alber_single_first": apply_alber_single_first,
    "apply_alber_pair_first": apply_alber_pair_first,
    "sparsity_reduce": sparsity_reduce,
}
# The naive scans keep no state, so they take the log and ignore it.
NAIVE = dict(
    STATELESS,
    apply_alber_single_first=lambda inst, touched: apply_alber_single_first_naive(inst),
    apply_alber_pair_first=lambda inst, touched: apply_alber_pair_first_naive(inst),
)


def golden_run(g: ColoredGraph, config, tiers: dict):
    """kernelize's loop, from the input, over config's tiers taken from
    `tiers`, each call a full scan: tier 1 seeded with every vertex, the
    Alber tiers trying every centre or pair.  Returns the instance it
    left, the (tier, result) of each call and tier 1's trace."""
    inst = Instance.from_graph(g.copy())
    names = ("apply_simple_exhaustively",) + HIGHER_TIERS[config.name]
    calls, trace = [], []
    i = 0
    while i < len(names):
        if i == 0:
            reduced = apply_simple_exhaustively(inst, trace, touched=Touched())
        else:
            reduced = tiers[names[i]](inst, touched=Touched())
        calls.append((names[i], reduced))
        i = 0 if i and reduced else i + 1
    return inst, calls, trace


def engine_run(inst, config, after=None):
    """kernelize(inst, config, after) with every tier wrapped at its engine
    attribute: returns the report, the (tier, result) of each call and
    tier 1's trace.  The wrappers forward the run state kernelize passes."""
    calls, trace = [], []

    def recording(name):
        tier = STATELESS[name]

        def call(inst, **kwargs):
            if name == "apply_simple_exhaustively":
                kwargs["trace"] = trace
            result = tier(inst, **kwargs)
            calls.append((name, result))
            return result
        return call

    with pytest.MonkeyPatch.context() as m:
        for name in STATELESS:
            m.setattr(engine, name, recording(name))
        report = kernelize(inst, config, after)
    return report, calls, trace


def same_state(a: Instance, b: Instance) -> bool:
    return (a.graph.adj, a.graph.black, a.solution, a.stats) == (
        b.graph.adj, b.graph.black, b.solution, b.stats)


def assert_engine_matches_full_scans(g: ColoredGraph, tiers: dict) -> Counter:
    """Under every configuration, kernelize from the input, and continuing
    its prefix's run as bench chains them, makes the calls, the tier-1
    firings and the kernel of the full-scan loop.  Returns how many of
    the loop's calls above tier 1 reduced, by tier."""
    golden = {c: golden_run(g, c, tiers) for c in ALL_CONFIGS}
    chained = {}
    hits = Counter()
    for config in ALL_CONFIGS:
        want, want_calls, want_trace = golden[config]
        inst = Instance.from_graph(g.copy())
        report, calls, trace = engine_run(inst, config)
        assert (calls, trace) == (want_calls, want_trace), config.name
        assert same_state(inst, want), config.name
        assert report.attempts == len(calls) + sum(
            r for n, r in calls if n == "apply_simple_exhaustively")
        if config.prefix is None:
            chained[config] = (inst, report)
            continue
        parent, first = chained[config.prefix]
        _, skip_calls, skip_trace = golden[config.prefix]
        inst = parent.copy()
        report, calls, trace = engine_run(inst, config, first)
        assert calls == want_calls[len(skip_calls):], config.name
        assert trace == want_trace[len(skip_trace):], config.name
        assert same_state(inst, want), config.name
        chained[config] = (inst, report)
        hits.update(n for n, r in want_calls[1:] if r and n != "apply_simple_exhaustively")
    return hits


def reducing_calls(corpus, tiers: dict) -> Counter:
    """`assert_engine_matches_full_scans` over a corpus: the full-scan
    loop's reducing calls above tier 1, by tier."""
    hits = Counter()
    for g in corpus:
        hits += assert_engine_matches_full_scans(g, tiers)
    return hits


def test_every_tier_logs_what_it_changes():
    # Each vertex a tier changes is in the log by the end of its call.
    # Tier 1 may skip the log while no higher tier has looked at it, as
    # every tier then scans in full on its next call.
    logged = {name: 0 for name in STATELESS}

    def checking(name):
        tier = STATELESS[name]

        def call(inst, touched):
            before = inst.graph.copy()
            start = len(touched.log)
            must = name != "apply_simple_exhaustively" or touched.watched("simple")
            result = tier(inst, touched=touched)
            changed = changed_vertices(before, inst.graph)
            if must:
                assert changed <= set(touched.log[start:]), name
                logged[name] += bool(changed)
            return result
        return call

    corpus = list(mixed_instance_stream(seed=43, count=100, max_n=24))
    corpus += [hub_cycle(h, p) for h, p in ((3, 4), (3, 12), (4, 4), (5, 5))]
    corpus += [SINGLE_FIRES] + list(bw_small_shaped(0, 40))
    with pytest.MonkeyPatch.context() as m:
        for name in STATELESS:
            m.setattr(engine, name, checking(name))
        for g in corpus:
            for config in ALL_CONFIGS:
                kernelize(Instance.from_graph(g.copy()), config)
    assert all(logged.values()), logged


class TestGoldenEngine:
    """kernelize carries the vertices each tier changed from call to call,
    so that tier 1 re-seeds only near them and the Alber scans resume.
    It must make exactly the calls, tier-1 firings and kernel of a loop
    whose every tier call scans the whole graph."""

    def test_on_small_inputs_against_the_naive_scans(self):
        corpus = [off_none_kernel(generate_instance(spec, i, 0))
                  for spec in canonical_groups() for i in range(5)]
        corpus += list(mixed_instance_stream(seed=41, count=150, max_n=24))
        corpus += [hub_cycle(h, p) for h, p in ((3, 4), (3, 6), (3, 12), (4, 4), (5, 5))]
        corpus += [SINGLE_FIRES]
        corpus += bw_small_shaped(0, 200)
        assert reducing_calls(corpus, NAIVE).total() >= 100
        # The hub-skewed graphs are where the loop's tier 4 whitens.
        skewed = reducing_calls(hub_skewed_stream(5, 200), NAIVE)
        assert skewed["sparsity_reduce"] >= 9

    def test_on_a_ladder_rung_against_the_stateless_tiers(self):
        g = generate_instance(GroupSpec(8008, 24000, 1), 0, 0)
        hits = assert_engine_matches_full_scans(g, STATELESS)
        assert hits.total() >= 28


class TestKernelReport:
    def test_fraction_zero_guards(self):
        report = KernelReport(
            config="off.none",
            initial_vertices=0,
            initial_edges=0,
            final_vertices=0,
            final_edges=0,
            solution_size=0,
            fully_solved=True,
            attempts=1,
            elapsed_seconds=0.0,
        )
        assert report.remaining_vertex_fraction == 0.0
        assert report.remaining_edge_fraction == 0.0

    def test_to_dict_carries_everything_but_config_flags(self):
        inst = Instance.from_graph(star_graph(3))
        report = kernelize(inst)
        payload = report.to_dict()
        assert payload["config"] == "off.none"
        assert payload["fully_solved"] is True
        assert payload["remaining_vertex_fraction"] == 0.0
        assert list(payload["rule_applications"]) == sorted(STAT_KEYS)
        assert STAT_KEYS[:6] == tuple(rule.name.lower() for rule in SimpleRule)
        assert set(CSV_COLUMNS) - {"kind", "group", "dataset"} <= payload.keys()


class TestKernelize:
    def test_star_fully_solved(self):
        inst = Instance.from_graph(star_graph(5))
        report = kernelize(inst)
        assert report.fully_solved
        assert report.solution_size == 1
        assert report.final_vertices == 0
        assert inst.solution == {0}

    def test_empty_graph(self):
        report = kernelize(Instance.from_graph(ColoredGraph()))
        assert report.fully_solved
        assert report.attempts == 1

    def test_report_counts_match_the_graph(self):
        for g in mixed_instance_stream(seed=15, count=40):
            inst = Instance.from_graph(g.copy())
            report = kernelize(inst, ApproachConfig.from_name("on.both"))
            assert report.initial_vertices == g.vertex_count
            assert report.initial_edges == g.edge_count
            assert report.final_vertices == inst.graph.vertex_count
            assert report.final_edges == inst.graph.edge_count
            assert report.solution_size == len(inst.solution)
            assert report.fully_solved == (inst.graph.vertex_count == 0)
            assert report.attempts <= ATTEMPT_LIMIT

    @pytest.mark.parametrize("name", ["off.none", "off.one"])
    def test_attempt_limit_stops_a_run(self, name, monkeypatch):
        # Tier 1 fires on the star, so its first call passes a limit of 1.
        config = ApproachConfig.from_name(name)
        report = kernelize(Instance.from_graph(star_graph(4)), config)
        assert 1 < report.attempts <= ATTEMPT_LIMIT
        monkeypatch.setattr(engine, "ATTEMPT_LIMIT", 1)
        with pytest.raises(RuntimeError, match="cycling suspected"):
            kernelize(Instance.from_graph(star_graph(4)), config)

    def test_result_is_a_fixed_point(self):
        for g in mixed_instance_stream(seed=16, count=30):
            for config in ALL_CONFIGS:
                inst = Instance.from_graph(g.copy())
                kernelize(inst, config)
                again = kernelize(inst, config)
                assert again.initial_vertices == again.final_vertices
                assert again.initial_edges == again.final_edges
                for rule in SimpleRule:
                    for v in sorted(inst.graph.adj):
                        assert PREDICATES[rule](inst.graph, v) is None

    def test_reports_are_deterministic_up_to_elapsed(self):
        for g in mixed_instance_stream(seed=17, count=20):
            for config in ALL_CONFIGS:
                first = kernelize(Instance.from_graph(g.copy()), config)
                second = kernelize(Instance.from_graph(g.copy()), config)
                a, b = first.to_dict(), second.to_dict()
                a.pop("elapsed_seconds")
                b.pop("elapsed_seconds")
                assert a == b

    def test_results_do_not_depend_on_insertion_order(self):
        """kernelize breaks every tie by vertex id, so rebuilding an input
        with its vertices, each adjacency set and the black set inserted
        in a shuffled order changes no report field but the time, no
        kernel and no solution."""
        inputs = [*bw_small_shaped(0, 30),
                  *(generate_instance(GroupSpec(n, 900), 0, 0) for n in (302, 450))]
        reordered = 0
        for g in inputs:
            want = [kernel_outcome(g.copy(), config) for config in ALL_CONFIGS]
            for seed in (1, 2):
                h = shuffled_rebuild(g, seed)
                reordered += any(list(h.adj[v]) != list(g.adj[v]) for v in g.adj)
                got = [kernel_outcome(shuffled_rebuild(g, seed), config)
                       for config in ALL_CONFIGS]
                assert got == want
        assert reordered == 2 * len(inputs)

    def test_every_config_preserves_the_optimum(self):
        for g in mixed_instance_stream(seed=18, count=100, max_n=12):
            base = brute_force_dom(g)
            for config in ALL_CONFIGS:
                inst = Instance.from_graph(g.copy())
                kernelize(inst, config)
                assert base == len(inst.solution) + exact_dom(inst.graph).size

    def test_tier_4_whitening_preserves_the_optimum(self):
        # The mixed stream above never makes tier 4 whiten; under on.none
        # and on.one, small hub cycles do.
        whitened = 0
        for hubs, paths in ((3, 4), (3, 6), (4, 4), (4, 6), (5, 5)):
            g = hub_cycle(hubs, paths)
            base = exact_dom(g).size
            for config in ALL_CONFIGS:
                inst = Instance.from_graph(g.copy())
                report = kernelize(inst, config)
                whitened += report.rule_applications["sparsity_whitened"]
                assert base == len(inst.solution) + exact_dom(inst.graph).size
        assert whitened > 0

    def test_vertex_growth_is_bounded_by_gadget_insertions(self):
        for g in mixed_instance_stream(seed=19, count=60):
            inst = Instance.from_graph(g.copy())
            report = kernelize(inst, ApproachConfig.from_name("off.both"))
            gadgets = report.rule_applications["alber_pair_gadget"]
            assert report.final_vertices <= report.initial_vertices + 2 * gadgets

    def test_alber_tiers_gated_by_config(self):
        # The star center is an alber-1 target, but off.none never runs
        # that tier; the simple rules still solve the star on their own,
        # so gate observation needs a graph the simple rules cannot touch.
        g = ColoredGraph.from_edges(
            [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
        )
        none_inst = Instance.from_graph(g.copy())
        none_report = kernelize(none_inst, ApproachConfig.from_name("off.none"))
        assert none_report.rule_applications["alber_single"] == 0
        assert none_report.rule_applications["alber_pair"] == 0
        one_inst = Instance.from_graph(g.copy())
        one_report = kernelize(one_inst, ApproachConfig.from_name("off.one"))
        assert one_report.rule_applications["alber_pair"] == 0
        both_inst = Instance.from_graph(g.copy())
        kernelize(both_inst, ApproachConfig.from_name("off.both"))
        assert (
            brute_force_dom(g)
            == len(both_inst.solution) + exact_dom(both_inst.graph).size
        )

    def test_sparsity_tier_gated_by_config(self):
        for g in mixed_instance_stream(seed=20, count=30):
            inst = Instance.from_graph(g.copy())
            report = kernelize(inst, ApproachConfig.from_name("off.both"))
            assert report.rule_applications["sparsity_scatter_calls"] == 0
            assert report.rule_applications["sparsity_passes"] == 0

    @pytest.mark.parametrize("offset", [1 << 32, 1 << 40], ids=["2^32", "2^40"])
    def test_large_ids_reduce_like_small_ones(self, offset):
        for g in mixed_instance_stream(seed=21, count=40):
            for config in ALL_CONFIGS:
                small = Instance.from_graph(shifted(g, 0))
                large = Instance.from_graph(shifted(g, offset))
                a = kernelize(small, config).to_dict()
                b = kernelize(large, config).to_dict()
                assert shifted(large.graph, -offset).adj == small.graph.adj
                assert shifted(large.graph, -offset).black == small.graph.black
                assert {v - offset for v in large.solution} == small.solution
                for key in ("solution_size", "attempts", "rule_applications"):
                    assert a[key] == b[key]
