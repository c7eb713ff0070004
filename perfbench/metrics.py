"""Turning passes and spans into the named metrics.

End-to-end metrics come from untraced passes; per-layer metrics from the
spans of traced passes.  Per-layer counts must repeat exactly from one
traced pass to the next; per-layer times are averaged over traced passes,
so that the tier times plus ``engine.other_s`` add up to
``engine.kernelize_s`` exactly as they do inside every pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from collections import defaultdict

from spans import END, NAME, PARENT, PASS, START, VALUE, layer_of

# Per-layer metric -> unit; BENCHMARK.json lists the same names.
LAYER_COUNTS = {
    "simple_rules.calls": "count",
    "simple_rules.firings": "count",
    "simple_rules.idle_calls": "count",
    "simple_rules.useful_ratio": "ratio",
    "alber.single_calls": "count",
    "alber.single_hits": "count",
    "alber.single_hit_ratio": "ratio",
    "alber.pair_calls": "count",
    "alber.pair_hits": "count",
    "alber.pair_hit_ratio": "ratio",
    "alber.pair_gadget": "count",
    "sparsity.calls": "count",
    "sparsity.whitened": "count",
    "sparsity.passes": "count",
    "sparsity.scatter_calls": "count",
    "engine.kernelize_calls": "count",
    "edgelist.load_calls": "count",
    "edgelist.bytes": "bytes",
    "exact.calls": "count",
    "engine.kernel_vertex_frac": "fraction",
    "engine.kernel_edge_frac": "fraction",
}
LAYER_TIMES = {
    "simple_rules.s": "s",
    "simple_rules.first_pass_s": "s",
    "alber.single_s": "s",
    "alber.pair_s": "s",
    "sparsity.s": "s",
    "engine.kernelize_s": "s",
    "engine.other_s": "s",
    "edgelist.load_s": "s",
    "bench.overhead_s": "s",
    "exact.s": "s",
    "exact.max_s": "s",
    "plangen.generate_s": "s",
    "trace.overhead_s": "s",
}

# The tiers engine.kernelize calls; their spans are its only children.
TIER_SPANS = {
    "simple_rules.apply_simple_exhaustively": "simple_rules.s",
    "alber.single_first": "alber.single_s",
    "alber.pair_first": "alber.pair_s",
    "sparsity.reduce": "sparsity.s",
}


def pass_digest(reports) -> str:
    """Fingerprint of what the runs of a pass produced, in run order: each
    run's final vertices, final edges, solution size and rule applications
    (a failed run, given as None, counts as a marker)."""
    h = hashlib.sha256()
    for r in reports:
        if r is None:
            h.update(b"failed\n")
            continue
        payload = [
            r.final_vertices,
            r.final_edges,
            r.solution_size,
            sorted(r.rule_applications.items()),
        ]
        h.update(json.dumps(payload, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()[:16]


def kernel_outside_input(original, kernel, gadgets: int) -> str | None:
    """The kernel may only keep vertices and edges of the input, plus the
    two fresh witnesses each pair gadget adds and their edges."""
    extra = kernel.adj.keys() - original.adj.keys()
    if len(extra) > 2 * gadgets:
        return f"kernel has {len(extra)} vertices not in the input, {gadgets} gadgets"
    top = max(original.adj, default=-1)
    if any(x <= top for x in extra):
        return "kernel has a non-fresh vertex that is not in the input"
    for u, nbrs in kernel.adj.items():
        if u in extra:
            continue
        for v in nbrs:
            if v not in extra and v not in original.adj[u]:
                return f"kernel edge {u}-{v} is not in the input"
    return None


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond its
    nearest-rank value (50 if n is too small for that)."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def nearest_rank(sorted_values, p: int) -> float:
    return sorted_values[max(0, math.ceil(p * len(sorted_values) / 100) - 1)]


def layer_pass_metrics(spans, selfs, pass_index) -> tuple[dict, dict]:
    """(counts, times) of one traced pass."""
    c = defaultdict(int)
    t = defaultdict(float)
    first_child_seen = set()
    exact_max = 0.0
    for i, s in enumerate(spans):
        if s[PASS] != pass_index:
            continue
        name, dur, value = s[NAME], s[END] - s[START], s[VALUE]
        if name in TIER_SPANS:
            t[TIER_SPANS[name]] += dur
        if name == "simple_rules.apply_simple_exhaustively":
            c["simple_rules.calls"] += 1
            c["simple_rules.firings"] += value
            c["simple_rules.idle_calls"] += value == 0
            if s[PARENT] not in first_child_seen:
                first_child_seen.add(s[PARENT])
                t["simple_rules.first_pass_s"] += dur
        elif name == "alber.single_first":
            c["alber.single_calls"] += 1
            c["alber.single_hits"] += value
        elif name == "alber.pair_first":
            c["alber.pair_calls"] += 1
            c["alber.pair_hits"] += value
        elif name == "sparsity.reduce":
            c["sparsity.calls"] += 1
        elif name == "engine.kernelize":
            c["engine.kernelize_calls"] += 1
            t["engine.kernelize_s"] += dur
            t["engine.other_s"] += selfs[i]
            apps = value.rule_applications
            c["alber.pair_gadget"] += apps["alber_pair_gadget"]
            c["sparsity.whitened"] += apps["sparsity_whitened"]
            c["sparsity.passes"] += apps["sparsity_passes"]
            c["sparsity.scatter_calls"] += apps["sparsity_scatter_calls"]
            c["engine.kernel_vertex_frac"] += value.remaining_vertex_fraction
            c["engine.kernel_edge_frac"] += value.remaining_edge_fraction
        elif name == "edgelist.load_graph":
            c["edgelist.load_calls"] += 1
            c["edgelist.bytes"] += value
            t["edgelist.load_s"] += dur
        elif name == "exact.exact_dom":
            c["exact.calls"] += 1
            t["exact.s"] += dur
            exact_max = max(exact_max, dur)
        if layer_of(name) == "bench":
            t["bench.overhead_s"] += selfs[i]
    t["exact.max_s"] = exact_max

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    c["simple_rules.useful_ratio"] = 1.0 - ratio("simple_rules.idle_calls", "simple_rules.calls")
    c["alber.single_hit_ratio"] = ratio("alber.single_hits", "alber.single_calls")
    c["alber.pair_hit_ratio"] = ratio("alber.pair_hits", "alber.pair_calls")
    c["engine.kernel_vertex_frac"] = ratio("engine.kernel_vertex_frac", "engine.kernelize_calls")
    c["engine.kernel_edge_frac"] = ratio("engine.kernel_edge_frac", "engine.kernelize_calls")
    return {k: c[k] for k in LAYER_COUNTS}, dict(t)


def setup_generate_s(spans) -> float:
    """Median over set-up repetitions of the time spent in plangen."""
    per_setup = defaultdict(float)
    for s in spans:
        if s[PASS] is not None and s[PASS] < 0 and layer_of(s[NAME]) == "plangen":
            per_setup[s[PASS]] += s[END] - s[START]
    return statistics.median(per_setup.values()) if per_setup else 0.0


def self_time_by_layer(spans, selfs, passes) -> dict:
    out = defaultdict(float)
    for i, s in enumerate(spans):
        if s[PASS] in passes:
            out[layer_of(s[NAME])] += selfs[i]
    return {k: v / len(passes) for k, v in sorted(out.items())}

