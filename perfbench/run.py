#!/usr/bin/env python3
"""domkernel benchmark: one workload, one seed, one JSON result.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload planar --seed 3 --seconds 50 --trace 0

The program is imported from ./src; nothing needs installing or building.
The run repeats timed passes for about --seconds seconds, and at least
three times; a run's time is the median of its repetitions.  The
workload's inputs are set up afresh before every pass, and at least five
times in all (reporting the median set-up time), so that set-ups are
spread over the run as the passes are.  Every run of every pass is
checked; README.md describes the checks, the workloads and the metrics.

Times are CPU time of this process (spans.clock).  End-to-end times are
scaled to a reference CPU speed measured between the runs (speed.py),
because a shared host's CPU speed changes by up to 1.7 times from one
minute to the next.

With --trace 0 the last line of stdout holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run (traced and untraced
passes alternate, so the tracing overhead is measured in the same run).
Spans of a traced run go to .perfbench_work/traces/.  Exit code 0 means
a result was printed; its "correct" field says whether every check held.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from metrics import (
    LAYER_COUNTS,
    LAYER_TIMES,
    kernel_outside_input,
    layer_pass_metrics,
    nearest_rank,
    pass_digest,
    self_time_by_layer,
    setup_generate_s,
    tail_percentile,
)
from spans import Tracer, clock, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

SETUP_REPEATS = 5
REPEATS = 3  # untraced passes at least: a run's time is the median of three or more
MIN_TRACED = 2  # traced passes of a --trace 1 run, to compare their counts
TIME_CAP = 140.0  # seconds of set-ups and passes after which no new pass starts


def _import_program():
    """Import domkernel from this checkout's src/, or exit 2."""
    if not (SRC / "domkernel" / "__init__.py").is_file():
        print(f"error: no domkernel sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import domkernel

    if Path(domkernel.__file__).resolve().parent != (SRC / "domkernel").resolve():
        print(f"error: domkernel imported from {domkernel.__file__}", file=sys.stderr)
        sys.exit(2)


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


def load_reference(workload: str, seed: int):
    """(data seed, recorded outputs), or exit 2 if they are not recorded.
    The reference holds the outputs of data seeds 0..slots-1; a seed
    selects slot seed % slots."""
    path = HERE / "reference.json"
    try:
        ref = json.loads(path.read_text())
        slot = seed % ref["slots"]
        return slot, ref[workload][str(slot)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: no recorded reference for {workload} seed {seed} in {path}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)


@dataclass
class PassSummary:
    """What is kept of a pass once it has been checked."""

    traced: bool
    cpu: float  # CPU seconds of the timed body, reference slices left out
    interval: tuple  # (start, end) CPU clock of the timed body
    times: dict  # run key -> (start, end) CPU clock of its kernelize call
    runs: int
    problems: list  # "key: problem" per failed run
    digest: str
    csv_sha256: str | None


def check_pass(out, traced, cpu, interval, expected) -> PassSummary:
    """Check every run of a pass against its input and the reference
    (None only while the reference is being recorded)."""
    problems = {}
    for run in out.runs:
        if run.error is not None:
            problems[run.key] = run.error
            continue
        gadgets = run.report.rule_applications["alber_pair_gadget"]
        msg = kernel_outside_input(run.original, run.kernel, gadgets)
        if msg:
            problems[run.key] = msg
    digest = pass_digest([run.report for run in out.runs])
    if expected is not None:
        wrong = []
        if digest != expected["digest"]:
            wrong.append(f"pass digest {digest} != recorded {expected['digest']}")
        if expected.get("csv") and out.csv_sha256 != expected["csv"]:
            wrong.append("bench CSV sha256 differs from the recorded one")
        for run in out.runs:
            if wrong and run.key not in problems:
                problems[run.key] = "; ".join(wrong)
    return PassSummary(
        traced,
        cpu,
        interval,
        {run.key: run.timed for run in out.runs if run.timed is not None},
        len(out.runs),
        [f"{k}: {v}" for k, v in problems.items()],
        digest,
        out.csv_sha256,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from harness import traced_pass
    from speed import Speed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    data_seed, expected = load_reference(wl.name, args.seed)
    facts = machine_facts()
    print(f"# machine: {json.dumps(facts)}")
    print(f"# workload {wl.name}, seed {args.seed} (data seed {data_seed}), trace {args.trace}")

    tracer = Tracer()
    speed = Speed()
    # End-to-end times are scaled to the reference speed; the per-layer
    # times of a traced run are plain CPU seconds.
    speed.active = not args.trace

    def pass_context(index, traced):
        return traced_pass(tracer, index) if traced else nullcontext()

    work = ROOT / ".perfbench_work" / f"run-{wl.name}-{args.seed}-{os.getpid()}"
    setups = []  # CPU-clock interval of each set-up

    def set_up():
        i = len(setups)
        speed.tick()
        t0 = clock()
        with pass_context(-1 - i, args.trace):
            state = wl.setup(data_seed, work / f"setup{i}")
        setups.append((t0, clock()))
        return state

    try:
        passes = []
        rounds = []  # wall seconds of each set-up, pass and check
        run_start = perf_counter()
        while True:
            start = perf_counter()
            state = set_up()
            traced = bool(args.trace) and len(passes) % 2 == 0
            with pass_context(len(passes), traced):
                spent, t0 = speed.spent, clock()
                out = wl.run_pass(state, tracer, speed)
                t1 = clock()
                cpu = t1 - t0 - (speed.spent - spent)
                if speed.active:
                    speed.slice()  # the slice after the last run
                wl.check(state, out, tracer)
            summary = check_pass(out, traced, cpu, (t0, t1), expected)
            del out
            passes.append(summary)
            n_traced = sum(p.traced for p in passes)
            n_plain = len(passes) - n_traced
            if not args.trace:
                usable = True
                enough = n_plain >= REPEATS
            else:
                usable = n_traced >= 1 and n_plain >= 1
                enough = n_traced >= MIN_TRACED and n_plain >= 1
            rounds.append(perf_counter() - start)
            done = perf_counter() - run_start + statistics.median(rounds)
            if usable and (done > TIME_CAP or (enough and done > args.seconds)):
                break
        while len(setups) < SETUP_REPEATS:
            set_up()
        if speed.active:
            speed.slice()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.runs for p in passes)
    failed = sum(len(p.problems) for p in passes)
    notes = [n for p in passes for n in p.problems][:10]

    plain = [p for p in passes if not p.traced]
    cpus = [p.cpu for p in plain]
    print(f"# {len(plain)} untraced passes, CPU s: {[round(c, 4) for c in cpus]}")
    print(f"# set-up CPU s: {[round(e - s, 4) for s, e in setups]}")
    if not args.trace:
        slices = [e - s for s, e in zip(speed.starts, speed.ends)]
        print(f"# {len(slices)} reference slices, CPU ms: min {1e3 * min(slices):.2f}, "
              f"median {1e3 * statistics.median(slices):.2f}, max {1e3 * max(slices):.2f}")
        repeats = defaultdict(list)  # run key -> its scaled time in each pass
        for p in plain:
            for key, timed in p.times.items():
                repeats[key].append(speed.scaled(timed))
        latencies = sorted(statistics.median(r) for r in repeats.values())
        # No latency at all means every run failed; correct is false then.
        latencies = latencies or [0.0]
        pct = tail_percentile(wl.runs_per_pass)
        beyond = len(latencies) - math.ceil(pct * len(latencies) / 100)
        print(f"# run_tail_ms is p{pct} of {len(latencies)} run latencies "
              f"({beyond} beyond it), each the median of {len(plain)} repetitions")
        values = {
            "setup_s": (statistics.median(speed.scaled(s) for s in setups), "s"),
            "pass_s": (statistics.median(p.cpu * speed.factor(*p.interval) for p in plain),
                       "s"),
            "run_p50_ms": (1e3 * statistics.median(latencies), "ms"),
            "run_tail_ms": (1e3 * nearest_rank(latencies, pct), "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        spans = tracer.spans
        selfs = self_times(spans)
        traced_idx = [i for i, p in enumerate(passes) if p.traced]
        per_pass = [layer_pass_metrics(spans, selfs, i) for i in traced_idx]
        counts = per_pass[0][0]
        if len(per_pass) < MIN_TRACED:
            print("# only one traced pass fitted: per-layer counts were not compared")
        for i, (c, _) in zip(traced_idx[1:], per_pass[1:]):
            if c != counts:
                diff = sorted(k for k in c if c[k] != counts[k])
                failed += 1
                notes.append(f"traced pass {i}: per-layer counts differ in {diff}")
        times = {
            k: statistics.fmean(t.get(k, 0.0) for _, t in per_pass) for k in LAYER_TIMES
        }
        times["plangen.generate_s"] = setup_generate_s(spans)
        traced_cpus = [p.cpu for p in passes if p.traced]
        times["trace.overhead_s"] = statistics.median(traced_cpus) - statistics.median(cpus)
        tiers = sum(times[k] for k in
                    ("simple_rules.s", "alber.single_s", "alber.pair_s", "sparsity.s"))
        print(f"# traced CPU s: {[round(c, 4) for c in traced_cpus]}; "
              f"tracing overhead {times['trace.overhead_s']:.4f} s per pass")
        print(f"# tiers {tiers:.6f} s + engine.other_s {times['engine.other_s']:.6f} s"
              f" = {tiers + times['engine.other_s']:.6f} s;"
              f" engine.kernelize_s {times['engine.kernelize_s']:.6f} s")
        print("# self time per layer, s per traced pass: "
              + json.dumps({k: round(v, 6) for k, v in
                            self_time_by_layer(spans, selfs, set(traced_idx)).items()}))
        values = {k: (counts[k], LAYER_COUNTS[k]) for k in LAYER_COUNTS}
        values.update({k: (times[k], LAYER_TIMES[k]) for k in LAYER_TIMES})
        trace_dir = ROOT / ".perfbench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{wl.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_file, {"workload": wl.name, "seed": args.seed,
                                        "machine": facts})
        print(f"# spans: {trace_file.relative_to(ROOT)}")

    print(f"# failed_frac {failed / attempted:.6f} ({failed} of {attempted} runs)")
    for note in notes:
        print(f"# FAIL {note}")
    for k, (v, unit) in values.items():
        print(f"# {k:28s} {v:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
