"""Acceptance gate for the whole package.

Each numbered test checks one criterion and prints a single
`criterion N [label] PASS/FAIL: details` line straight to the terminal,
bypassing capture, so a plain `pytest -v` run shows both the verdict per
test and the measured quantities.  Criteria 4, 5, 7, and 8 share one
full benchmark run over the canonical generated dataset (25 instances
per group, master seed 0); the run doubles as the audit hook for
scatter validity, the stopwatch for the time budget, and the behaviour
oracle: its CSV must hash to the recorded digest.  The files that `gen`
writes must hash to theirs, too.
"""

import hashlib
import json
import os
import time
from types import SimpleNamespace

import pytest

import domkernel.sparsity as sparsity_mod
from domkernel.alber import apply_alber_pair_first, apply_alber_single_first
from domkernel.bench import (
    read_manifest,
    run_bench,
    worse_than_baseline_notes,
    write_csv,
    write_dataset,
)
from domkernel.cli import main
from domkernel.engine import ALL_CONFIGS, ATTEMPT_LIMIT, ApproachConfig, kernelize
from domkernel.exact import exact_dom
from domkernel.graph import Instance, Touched, is_1_scattered
from domkernel.plangen import GroupSpec, canonical_groups, generate_group, generate_instance
from domkernel.sparsity import sparsity_reduce

from helpers import (
    apex_stars,
    apply_one_simple_rule,
    bw_to_plain_gadget,
    mixed_instance_stream,
)

FRACTION_METRICS = ("remaining_vertex_fraction", "remaining_edge_fraction")

# sha256 of the CSV that `domkernel gen --seed 0 --instances 25` and
# `domkernel bench` write under all six configurations.
CANONICAL_CSV_SHA256 = "18e4238b438d603df9b67ac13b3e7b928937ed0a9b847e1a4305283bdcb7636f"

# sha256 of what `domkernel gen --seed 0 --instances 1` writes: each file
# in manifest order, then manifest.json.
GEN_SHA256 = "e3a23a7766c96008761a9c97e281827774804dade660604208dd4bedd1f43e84"

# sha256 of criterion 1's corpus, mixed_instance_stream(42, 1000, 16): per
# graph, the repr of its vertex order, edges, blacks and next fresh id.
CORPUS_SHA256 = "d1d42bf053f1e78d06487496668b1a54f1d71be39062eb2cabb782fa7cbb63b8"


def _verdict(capsys, num, label, ok, detail):
    line = f"criterion {num} [{label}] {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """One benchmark sweep of the canonical dataset under all six
    configurations, with every scatter call audited and the wall clock
    running."""
    root = tmp_path_factory.mktemp("acceptance-dataset")
    groups = [
        (spec.name, generate_group(spec, master_seed=0))
        for spec in canonical_groups(25)
    ]
    entries = read_manifest(write_dataset(root, groups, {"master_seed": 0}))

    audit = {"calls": 0, "violations": 0}
    real = sparsity_mod.uqw_scatter

    def audited(g, candidates, removed):
        scattered, deleted = real(g, candidates, removed)
        audit["calls"] += 1
        if not is_1_scattered(g, scattered, removed | deleted):
            audit["violations"] += 1
        return scattered, deleted

    sparsity_mod.uqw_scatter = audited
    start = time.perf_counter()
    try:
        result = run_bench(entries, [c.name for c in ALL_CONFIGS], workers=1)
    finally:
        sparsity_mod.uqw_scatter = real
    elapsed = time.perf_counter() - start

    means = {(m["group"], m["config"]): m for m in result.means}
    return SimpleNamespace(result=result, means=means, elapsed=elapsed, audit=audit)


def _one_step(inst):
    """A single rule application, cheapest family first."""
    if apply_one_simple_rule(inst) is not None:
        return True
    if apply_alber_single_first(inst, Touched()):
        return True
    if apply_alber_pair_first(inst, Touched()):
        return True
    return sparsity_reduce(inst, Touched()) > 0


def test_criterion_1_rule_safety(capsys):
    """Every single rule application, and every full run under every
    configuration, preserves the domination optimum exactly."""
    budget = 300.0
    start = time.perf_counter()
    instances = steps = 0
    bad = []
    for i, g in enumerate(mixed_instance_stream(seed=42, count=1000, max_n=16)):
        instances += 1
        base = exact_dom(g).size
        inst = Instance.from_graph(g.copy())
        while _one_step(inst):
            steps += 1
            if len(inst.solution) + exact_dom(inst.graph).size != base:
                bad.append((i, "stepwise", steps))
        for config in ALL_CONFIGS:
            run = Instance.from_graph(g.copy())
            kernelize(run, config)
            if len(run.solution) + exact_dom(run.graph).size != base:
                bad.append((i, config.name, None))
    elapsed = time.perf_counter() - start
    _verdict(
        capsys,
        1,
        "rule safety",
        not bad and elapsed < budget,
        f"{instances} instances, {steps} stepwise applications plus all six "
        f"configurations, {len(bad)} violations, {elapsed:.1f}s of {budget:.0f}s"
        + (f"; first violations {bad[:3]}" if bad else ""),
    )


def test_criterion_1_corpus_is_the_recorded_one():
    """A generator edit cannot quietly re-seed the safety corpus."""
    digest = hashlib.sha256()
    for g in mixed_instance_stream(seed=42, count=1000, max_n=16):
        digest.update(repr((list(g.adj), g.edges(), sorted(g.black), g._next_id)).encode())
    assert digest.hexdigest() == CORPUS_SHA256


def test_criterion_2_whitened_vertices_irrelevant(capsys):
    """Each vertex the sparsity rule whitens could have been declared
    already-dominated in the original instance without moving the
    optimum."""
    graphs = list(mixed_instance_stream(seed=43, count=400, max_n=16))
    graphs += [apex_stars(12, 3), apex_stars(6, 4), apex_stars(4, 5)]
    checked = bad = 0
    for g in graphs:
        inst = Instance.from_graph(g.copy())
        if sparsity_reduce(inst, Touched()) == 0:
            continue
        base = exact_dom(g).size
        whitened = g.black - inst.graph.black
        for z in sorted(whitened):
            relaxed = g.copy()
            relaxed.black.remove(z)
            checked += 1
            if exact_dom(relaxed).size != base:
                bad += 1
    _verdict(
        capsys,
        2,
        "whitened vertices irrelevant",
        checked > 0 and bad == 0,
        f"{checked} whitened vertices relaxed one at a time, {bad} moved the optimum",
    )


def test_criterion_3_color_removal_gadget(capsys):
    """The pendant-and-hub gadget shifts the optimum by exactly one on a
    fresh batch of random colored instances."""
    checked = bad = 0
    for g in mixed_instance_stream(seed=44, count=200, max_n=14):
        checked += 1
        if exact_dom(bw_to_plain_gadget(g)).size != exact_dom(g).size + 1:
            bad += 1
    _verdict(
        capsys,
        3,
        "color-removal gadget",
        checked == 200 and bad == 0,
        f"{checked} instances, {bad} off by more or less than one",
    )


def test_criterion_4_planar_kernel_quality(capsys, bench_run):
    """off.both on the 302x900 group keeps at most 5% of the vertices and
    2% of the edges on average, and adding rule families never hurts the
    group means anywhere."""
    m = bench_run.means[("302x900", "off.both")]
    head_ok = (
        m["remaining_vertex_fraction"] <= 0.05
        and m["remaining_edge_fraction"] <= 0.02
    )
    chain_bad = []
    for spec in canonical_groups(25):
        for family in ("off", "on"):
            for metric in FRACTION_METRICS:
                both = bench_run.means[(spec.name, family + ".both")][metric]
                one = bench_run.means[(spec.name, family + ".one")][metric]
                none = bench_run.means[(spec.name, family + ".none")][metric]
                if not both <= one <= none:
                    chain_bad.append((spec.name, family, metric))
    _verdict(
        capsys,
        4,
        "planar kernel quality",
        head_ok and not chain_bad,
        f"off.both 302x900 mean vertex fraction "
        f"{m['remaining_vertex_fraction']:.5f} (limit 0.05), edge fraction "
        f"{m['remaining_edge_fraction']:.5f} (limit 0.02); both<=one<=none "
        f"violated in {len(chain_bad)} of 24 group/family/metric cells"
        + (f": {chain_bad[:4]}" if chain_bad else ""),
    )


def test_criterion_5_sparsity_near_noop(capsys, bench_run):
    """On the planar dataset the sparsity stage changes group means by at
    most 0.01, and instances where it kept more than the baseline are
    recorded rather than hidden."""
    worst = 0.0
    for spec in canonical_groups(25):
        for mode in ("none", "one", "both"):
            for metric in FRACTION_METRICS:
                on = bench_run.means[(spec.name, "on." + mode)][metric]
                off = bench_run.means[(spec.name, "off." + mode)][metric]
                worst = max(worst, abs(on - off))
    notes = bench_run.result.notes
    mechanism_ok = list(notes) == worse_than_baseline_notes(list(bench_run.result.rows))
    _verdict(
        capsys,
        5,
        "sparsity near-noop",
        worst <= 0.01 and mechanism_ok,
        f"worst |on-off| group-mean gap {worst:.6f} (limit 0.01); "
        f"{len(notes)} worse-than-baseline instance notes recorded",
    )


def test_criterion_6_maximal_planar_solved_outright(capsys):
    """With only the simple rules, a strictly positive share of random
    maximal planar instances at 302 vertices reduces to the empty kernel."""
    spec = GroupSpec(302, 900, 100)
    config = ApproachConfig.from_name("off.none")
    solved = 0
    for index in range(spec.instances):
        inst = Instance.from_graph(generate_instance(spec, index, master_seed=0))
        report = kernelize(inst, config)
        solved += report.fully_solved
    _verdict(
        capsys,
        6,
        "maximal planar solved outright",
        solved > 0,
        f"{solved} of {spec.instances} instances fully solved "
        f"({100.0 * solved / spec.instances:.1f}%) under off.none",
    )


def test_criterion_7_scatter_validity(capsys, bench_run):
    """Every scatter the benchmark produced was checked to be 1-scattered
    in its residual graph."""
    audit = bench_run.audit
    _verdict(
        capsys,
        7,
        "scatter validity",
        audit["calls"] > 0 and audit["violations"] == 0,
        f"{audit['calls']} scatter calls audited, {audit['violations']} invalid",
    )


def test_criterion_8_bench_terminates_in_budget(capsys, bench_run):
    """The full sweep finishes inside 30 minutes and no single run burns
    through its rule-attempt budget."""
    rows = bench_run.result.rows
    max_attempts = max(r["attempts"] for r in rows)
    ok = (
        bench_run.elapsed <= 1800.0
        and len(rows) == 6 * 25 * len(ALL_CONFIGS)
        and max_attempts <= ATTEMPT_LIMIT
    )
    _verdict(
        capsys,
        8,
        "bench terminates in budget",
        ok,
        f"{len(rows)} runs in {bench_run.elapsed:.1f}s (limit 1800s), "
        f"max attempts {max_attempts} of {ATTEMPT_LIMIT}",
    )


def test_sweep_csv_is_byte_identical(bench_run, tmp_path):
    """The sweep writes the recorded CSV byte for byte: a change that
    alters one byte has changed behaviour, not just speed."""
    path = tmp_path / "results.csv"
    write_csv(path, bench_run.result)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CANONICAL_CSV_SHA256


def test_gen_writes_the_recorded_bytes(tmp_path):
    """gen writes the recorded dataset byte for byte: the CSV digest pins
    only what the kernelizer makes of it."""
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--seed", "0", "--instances", "1"]) == 0
    manifest = out / "manifest.json"
    digest = hashlib.sha256()
    for item in json.loads(manifest.read_text())["files"]:
        for key in ("path", "white"):
            if item[key]:
                digest.update((out / item[key]).read_bytes())
    digest.update(manifest.read_bytes())
    assert digest.hexdigest() == GEN_SHA256


def test_real_world_corpus_or_waiver(capsys):
    """Reproduce the small-corpus kernel size when a real-world manifest is
    supplied; otherwise record the waiver out loud."""
    manifest = os.environ.get("DOMKERNEL_REALWORLD_MANIFEST")
    if not manifest:
        with capsys.disabled():
            print(
                "criterion R [real-world corpus] WAIVED: no corpus manifest "
                "(set DOMKERNEL_REALWORLD_MANIFEST to run it)",
                flush=True,
            )
        return
    entries = read_manifest(manifest)
    result = run_bench(entries, ["off.both"])
    rows = [r for r in result.rows if r["group"] == "small"] or list(result.rows)
    mean = sum(r["remaining_vertex_fraction"] for r in rows) / len(rows)
    _verdict(
        capsys,
        "R",
        "real-world corpus",
        abs(mean - 0.426819) <= 0.05,
        f"off.both mean vertex fraction {mean:.6f} over {len(rows)} files, "
        f"target 0.426819 within 0.05",
    )
