#!/usr/bin/env python3
"""The scale ladder: CPU time per vertex of `kernelize` as planar input
grows.

For instance 0 at seed 0 of each rung, 16016x48000, 32032x96000,
64064x192000 and 128128x384000 (GroupSpec(2002k, 6000k) for k = 8, 16,
32, 64), runs off.none and on.both once each, from the generated graph,
and prints one JSON line per run: the rung, the configuration, the
vertices, the CPU seconds of the kernelize call and per input vertex,
the pair-rule firings, each tier's calls, CPU seconds and CPU seconds of
its first call apart (tier 1's first call, seeded with every vertex, is
most of tier 1's time), the CPU seconds that `generate_instance` took to
build the rung's graph, the CPU seconds of the `write_edge_list` call
that writes it to a file in a temporary directory (`write_s`), the
cyclic collector's collections per generation, young to old, during the
generation and the write together (`generate_gc`, from `gc.get_stats()`;
the counts depend on the Python version), and the CPU seconds that
`load_graph` took to read the file back.  The tier numbers come from
wrappers assigned, for the run, to the tier names that
`domkernel.engine` looks up.  All times are `time.process_time`.

    PYTHONPATH=src python3 scripts/ladder.py

takes no options and about 10 s.  One run per rung is a pointer, not a
claim: CPU speed on a shared host varies from run to run.
"""

import gc
import json
import sys
import tempfile
import time
from pathlib import Path

import domkernel.engine as engine
from domkernel.edgelist import load_graph, write_edge_list
from domkernel.engine import ApproachConfig, kernelize
from domkernel.graph import Instance
from domkernel.plangen import GroupSpec, generate_instance

RUNGS = tuple(GroupSpec(2002 * k, 6000 * k, 1) for k in (8, 16, 32, 64))
CONFIGS = ("off.none", "on.both")
TIERS = (
    "apply_simple_exhaustively",
    "apply_alber_single_first",
    "apply_alber_pair_first",
    "sparsity_reduce",
)


def measure(spec: GroupSpec, g, config_name: str) -> dict:
    """Kernelize g under the configuration, timing each tier call."""
    tiers = {name: {"calls": 0, "cpu_s": 0.0, "first_cpu_s": 0.0} for name in TIERS}
    originals = {name: getattr(engine, name) for name in TIERS}

    def timed(name):
        tier, record = originals[name], tiers[name]

        def call(*args, **kwargs):
            start = time.process_time()
            try:
                return tier(*args, **kwargs)
            finally:
                spent = time.process_time() - start
                if not record["calls"]:
                    record["first_cpu_s"] = spent
                record["calls"] += 1
                record["cpu_s"] += spent
        return call

    try:
        for name in TIERS:
            setattr(engine, name, timed(name))
        start = time.process_time()
        report = kernelize(Instance.from_graph(g), ApproachConfig.from_name(config_name))
        cpu = time.process_time() - start
    finally:
        for name, tier in originals.items():
            setattr(engine, name, tier)
    return {
        "group": spec.name,
        "config": config_name,
        "vertices": report.initial_vertices,
        "cpu_s": round(cpu, 4),
        "us_per_vertex": round(cpu / report.initial_vertices * 1e6, 2),
        "pair_firings": report.rule_applications["alber_pair"],
        "tiers": {
            name: {key: round(n, 4) for key, n in t.items()}
            for name, t in tiers.items() if t["calls"]
        },
    }


def collections() -> list:
    """The cyclic collector's collections so far, per generation."""
    return [stats["collections"] for stats in gc.get_stats()]


def main(rungs=RUNGS, out=sys.stdout) -> int:
    for spec in rungs:
        before = collections()
        start = time.process_time()
        g = generate_instance(spec, 0, 0)
        generate_s = round(time.process_time() - start, 4)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{spec.name}.edges"
            start = time.process_time()
            write_edge_list(path, g)
            write_s = round(time.process_time() - start, 4)
            generate_gc = [n - m for n, m in zip(collections(), before)]
            start = time.process_time()
            load_graph(path)
            load_s = round(time.process_time() - start, 4)
        for config_name in CONFIGS:
            line = measure(spec, g.copy(), config_name)
            line["generate_s"] = generate_s
            line["write_s"] = write_s
            line["generate_gc"] = generate_gc
            line["load_s"] = load_s
            out.write(json.dumps(line) + "\n")
            out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
