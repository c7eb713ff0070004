"""The benchmark's capture contract, checked with the benchmark's own code.

perfbench wraps and counts what `bench` and `engine` call: one
`kernelize` per configuration in `ALL_CONFIGS` order, the tier functions
by name, and the `rule_applications` keys its pass digest hashes.  A
change that breaks that contract would otherwise show only when the
benchmark itself runs.  Here each workload runs at data seed 0: one
untraced and two traced passes, each checked by `run.check_pass` against
the recorded reference (pass digest, planar CSV sha256, oracle
conservation, kernel within its input), and the two traced passes must
give the same per-layer counts, as `run.py` requires.
"""

import importlib
import sys
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("harness", "metrics", "run", "spans", "speed", "workloads")


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's modules, imported from its directory and unloaded after.
    No bytecode is written, so the import leaves perfbench/ as it was."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        mp.setattr(sys, "dont_write_bytecode", True)
        try:
            modules = {name: importlib.import_module(name) for name in MODULES}
            for module in modules.values():
                assert Path(module.__file__).resolve().parent == PERFBENCH
            yield SimpleNamespace(**modules)
        finally:
            for name in MODULES:
                sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["planar", "bw-small"])
def test_passes_reproduce_the_reference(perfbench, name, tmp_path):
    pb = perfbench
    wl = pb.workloads.WORKLOADS[name]
    data_seed, expected = pb.run.load_reference(name, 0)
    state = wl.setup(data_seed, tmp_path)
    tracer, speed = pb.spans.Tracer(), pb.speed.Speed()
    for index, traced in enumerate((False, True, True)):
        with pb.harness.traced_pass(tracer, index) if traced else nullcontext():
            t0 = pb.spans.clock()
            out = wl.run_pass(state, tracer, speed)
            t1 = pb.spans.clock()
            wl.check(state, out, tracer)
        summary = pb.run.check_pass(out, traced, t1 - t0, (t0, t1), expected)
        assert summary.problems == [], f"pass {index}: {summary.problems[:3]}"
        assert summary.runs == wl.runs_per_pass
    selfs = pb.spans.self_times(tracer.spans)
    first, second = (
        pb.metrics.layer_pass_metrics(tracer.spans, selfs, i)[0] for i in (1, 2)
    )
    assert first["engine.kernelize_calls"] == wl.runs_per_pass
    assert first == second
