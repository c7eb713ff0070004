#!/usr/bin/env python3
"""Record perfbench/reference.json: what the program outputs on each data
seed of every workload.

    python3 perfbench/record_reference.py

For each data seed 0..63 it sets each workload up once, runs one
pass, and stores the pass digest (every run's final vertices, final
edges, solution size and rule applications, in run order) plus, for
planar, the sha256 of the CSV that bench.write_csv wrote.  A run that
fails a check aborts the recording.  The data seeds are recorded in
parallel, one process per usable CPU.  Re-record only when the workloads
themselves change: the program must keep reproducing these outputs.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys

import run

SLOTS = 64


def record_slot(slot: int) -> dict:
    run._import_program()
    from spans import Tracer
    from speed import Speed
    from workloads import WORKLOADS

    out = {}
    for name, wl in WORKLOADS.items():
        work = run.ROOT / ".perfbench_work" / f"record-{name}-{slot}-{os.getpid()}"
        try:
            state = wl.setup(slot, work)
            tracer = Tracer()
            result = wl.run_pass(state, tracer, Speed())
            wl.check(state, result, tracer)
            summary = run.check_pass(result, False, 0.0, (0.0, 0.0), None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if summary.problems:
            raise RuntimeError(f"{name} data seed {slot}: {summary.problems[:3]}")
        out[name] = {"digest": summary.digest}
        if summary.csv_sha256 is not None:
            out[name]["csv"] = summary.csv_sha256
    print(f"data seed {slot} recorded", file=sys.stderr, flush=True)
    return out


def main() -> int:
    slots = range(SLOTS)
    jobs = len(os.sched_getaffinity(0))
    with multiprocessing.get_context("spawn").Pool(jobs) as pool:
        results = pool.map(record_slot, slots, chunksize=1)
    # One line per data seed keeps the file small and its diffs readable.
    text = f'{{\n "slots": {SLOTS}'
    for name in results[0]:
        body = ",\n".join(
            f'  "{s}": {json.dumps(r[name], separators=(",", ":"))}'
            for s, r in zip(slots, results)
        )
        text += f',\n "{name}": {{\n{body}\n }}'
    path = run.HERE / "reference.json"
    path.write_text(text + "\n}\n")
    print(f"wrote {path.relative_to(run.ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
