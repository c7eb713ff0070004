"""The workloads: inputs made from a seed, and one timed pass each.

``setup`` builds a workload's inputs (everything before the timed body)
and returns its state; ``run_pass`` is the timed body and returns one
``Run`` per (instance, configuration), calling ``speed.tick()`` between
runs; ``check`` marks the runs that fail a workload-specific check, after
the timed body.  Inputs depend only on the data seed, so every pass of a
process does the same work.  domkernel functions are called through their
modules, so that a traced pass can wrap them, and ``tracer.run`` names the
run that the spans recorded next belong to.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import domkernel.bench as bench
import domkernel.engine as engine
import domkernel.exact as exact
import domkernel.plangen as plangen
from domkernel.edgelist import write_edge_list
from domkernel.engine import ALL_CONFIGS, ApproachConfig
from domkernel.exact import OracleSizeError
from domkernel.graph import WHITE, Instance
from domkernel.plangen import GroupSpec, canonical_groups

from harness import PassOutput, Run
from spans import clock, patched

ALL_CONFIG_NAMES = tuple(c.name for c in ALL_CONFIGS)


def _kernel_run(tracer, speed, key, original, config_name) -> Run:
    """Kernelize a fresh copy of original; only the call itself is timed."""
    run = Run(key, original)
    tracer.run = key
    inst = Instance.from_graph(original.copy())
    config = ApproachConfig.from_name(config_name)
    speed.tick()
    try:
        t0 = clock()
        run.report = engine.kernelize(inst, config)
        run.timed = (t0, clock())
    except Exception as exc:  # a failed run is counted, not fatal
        run.error = f"{type(exc).__name__}: {exc}"
    run.kernel = inst.graph
    return run


# -- planar ------------------------------------------------------------

# Instances per canonical group in one pass.  The three small groups get
# three times as many, so that the per-run median sits inside the
# small-instance mode, not in the gap between the two size modes, and
# rests on enough instances to vary little from seed to seed.
PLANAR_INSTANCES = {
    "302x900": 3,
    "450x900": 3,
    "600x900": 3,
    "2002x6000": 1,
    "3000x6000": 1,
    "4000x6000": 1,
}


@dataclass
class PlanarState:
    manifest: Path
    csv: Path
    originals: dict  # dataset path -> generated graph
    keys: list  # (dataset, config) in bench row order


class Planar:
    """The paper's own traffic: canonical groups, all six configurations,
    dataset-major through bench.run_bench from a manifest on disk."""

    name = "planar"
    runs_per_pass = sum(PLANAR_INSTANCES.values()) * len(ALL_CONFIG_NAMES)

    def setup(self, seed, workdir: Path) -> PlanarState:
        files, originals = [], {}
        for spec in canonical_groups():
            (workdir / spec.name).mkdir(parents=True, exist_ok=True)
            for index in range(PLANAR_INSTANCES[spec.name]):
                g = plangen.generate_instance(spec, index, seed)
                rel = f"{spec.name}/inst_{index:03d}.edges"
                write_edge_list(workdir / rel, g)
                files.append({"group": spec.name, "path": rel, "white": None})
                originals[rel] = g
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps({"master_seed": seed, "files": files}, indent=2))
        keys = [(f["path"], c) for f in files for c in ALL_CONFIG_NAMES]
        return PlanarState(manifest, workdir / "results.csv", originals, keys)

    def run_pass(self, state: PlanarState, tracer, speed) -> PassOutput:
        """One bench sweep.  bench loads each file, then kernelizes it; the
        load names the run, and the kernelize call alone is timed."""
        timed, captured = [], []
        load_graph, kernelize = bench.load_graph, bench.kernelize

        def naming_load(*args):
            i = len(captured)
            tracer.run = "|".join(state.keys[i]) if i < len(state.keys) else None
            return load_graph(*args)

        def capturing_kernelize(inst, *args):
            speed.tick()
            t0 = clock()
            report = kernelize(inst, *args)
            timed.append((t0, clock()))
            captured.append((report, inst.graph))
            return report

        error = None
        try:
            with patched([(bench, "load_graph", naming_load),
                          (bench, "kernelize", capturing_kernelize)]):
                entries = bench.read_manifest(state.manifest)
                result = bench.run_bench(entries, list(ALL_CONFIG_NAMES), workers=1)
                tracer.run = None
                bench.write_csv(state.csv, result)
        except Exception as exc:  # the whole sweep failed; every run counts
            error = f"{type(exc).__name__}: {exc}"
        runs = []
        for i, (dataset, config) in enumerate(state.keys):
            run = Run(f"{dataset}|{config}", state.originals[dataset])
            if error is not None or i >= len(captured):
                run.error = error or "no kernelize call recorded"
            else:
                run.report, run.kernel = captured[i]
                run.timed = timed[i]
                if run.report.config != config:
                    run.error = f"run order: expected {config}, got {run.report.config}"
            runs.append(run)
        sha = None
        if error is None:
            sha = hashlib.sha256(state.csv.read_bytes()).hexdigest()
        return PassOutput(runs, sha)

    def check(self, state: PlanarState, out: PassOutput, tracer) -> None:
        """Planar has no oracle: the reference digest and CSV checks of
        run.check_pass cover it."""


# -- bw-small --------------------------------------------------------------

BW_INSTANCES = 100
BW_SPEC = GroupSpec(50, 110)
BW_WHITE_SHARE = 0.3


class BwSmall:
    """Small black/white planar instances inside the exact oracle's limit,
    under all six configurations, each run checked against the oracle."""

    name = "bw-small"
    runs_per_pass = BW_INSTANCES * len(ALL_CONFIG_NAMES)

    def setup(self, seed, workdir: Path) -> list:
        instances = []
        for i in range(BW_INSTANCES):
            g = plangen.generate_instance(BW_SPEC, i, seed)
            rng = random.Random(seed * 1_000_003 + i)
            vertices = sorted(g.adj)
            for v in rng.sample(vertices, round(BW_WHITE_SHARE * len(vertices))):
                g.set_color(v, WHITE)
            instances.append(g)
        return instances

    def run_pass(self, instances: list, tracer, speed) -> PassOutput:
        runs = [
            _kernel_run(tracer, speed, f"inst_{i:03d}|{config}", g, config)
            for i, g in enumerate(instances)
            for config in ALL_CONFIG_NAMES
        ]
        return PassOutput(runs)

    def check(self, instances: list, out: PassOutput, tracer) -> None:
        """Conservation against the exact oracle, for every run.  It runs
        after the timed body: the oracle's branch and bound takes 25% more
        or less time from one seed to the next, while kernelize varies
        by 3%."""
        per_instance = len(ALL_CONFIG_NAMES)
        for i, g in enumerate(instances):
            tracer.run = f"inst_{i:03d}"
            optimum = exact.exact_dom(g).size
            for run in out.runs[i * per_instance:(i + 1) * per_instance]:
                if run.error is not None:
                    continue
                tracer.run = run.key
                try:
                    rest = exact.exact_dom(run.kernel).size
                except OracleSizeError as exc:
                    run.error = f"OracleSizeError: {exc}"
                    continue
                solution = run.report.solution_size
                if optimum != solution + rest:
                    run.error = (
                        f"conservation: optimum {optimum} != "
                        f"{solution} committed + {rest} in kernel"
                    )


WORKLOADS = {w.name: w for w in (Planar(), BwSmall())}
