"""What one run of a workload leaves for the checks, and the traced pass.

Workloads call domkernel functions through their modules
(``engine.kernelize``, ``exact.exact_dom``, ``bench.run_bench`` ...).  A
traced pass assigns span-recording wrappers to those module attributes and
to the names that ``domkernel.engine`` (the tier functions) and
``domkernel.bench`` (load, kernelize) look up, so the layers below a call
are timed too.  Outside a traced pass the modules hold their own functions.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

import domkernel.bench as bench
import domkernel.engine as engine
import domkernel.exact as exact
import domkernel.plangen as plangen

from spans import Tracer, patched


@dataclass
class Run:
    """One (instance, configuration) kernelize run of a pass."""

    key: str
    original: object  # ColoredGraph before reduction
    timed: tuple | None = None  # (start, end) CPU clock of the kernelize call
    report: object = None  # KernelReport
    kernel: object = None  # ColoredGraph after reduction
    error: str | None = None


@dataclass
class PassOutput:
    runs: list
    csv_sha256: str | None = None


def _file_bytes(args, _result) -> int:
    return sum(os.path.getsize(p) for p in args[:2] if p is not None)


def _returned(_args, result):
    return result


@contextmanager
def traced_pass(tracer: Tracer, index: int):
    """Record spans of every wrapped call made inside; they belong to pass
    `index` (negative for set-up repetitions)."""
    tracer.pass_index = index
    tracer.run = None
    w = tracer.wrap
    kernelize = w("engine.kernelize", engine.kernelize, _returned)
    try:
        with patched([
            (engine, "kernelize", kernelize),
            (bench, "kernelize", kernelize),
            (bench, "load_graph",
             w("edgelist.load_graph", bench.load_graph, _file_bytes)),
            (engine, "apply_simple_exhaustively",
             w("simple_rules.apply_simple_exhaustively",
               engine.apply_simple_exhaustively, _returned)),
            (engine, "apply_alber_single_first",
             w("alber.single_first", engine.apply_alber_single_first, _returned)),
            (engine, "apply_alber_pair_first",
             w("alber.pair_first", engine.apply_alber_pair_first, _returned)),
            (engine, "sparsity_reduce",
             w("sparsity.reduce", engine.sparsity_reduce, _returned)),
            (exact, "exact_dom", w("exact.exact_dom", exact.exact_dom)),
            (plangen, "generate_instance",
             w("plangen.generate_instance", plangen.generate_instance)),
            (bench, "read_manifest", w("bench.read_manifest", bench.read_manifest)),
            (bench, "run_bench", w("bench.run_bench", bench.run_bench)),
            (bench, "write_csv", w("bench.write_csv", bench.write_csv)),
        ]):
            yield
    finally:
        tracer.pass_index = None
        tracer.run = None
