"""The dataset format, batch kernelization over it, and CSV reporting.

A dataset is a directory of ``<group>/inst_NNN.edges`` files, their
``.white`` sidecars, and the ``manifest.json`` that lists them;
``write_dataset`` writes one and ``read_manifest`` reads it.  A bench
run takes the dataset manifest, runs every (file, configuration) pair,
and emits one CSV row per pair plus per-group mean rows.  Each file is
loaded once, and each configuration continues from the kernel of its
prefix (``ApproachConfig.prefix``) instead of starting over; the CSV
bytes are those of a separate load and run per pair.  Row order,
aggregation order, and float formatting are all deterministic, so a
re-run over the same dataset produces a byte-identical CSV.  Wall-clock
times are deliberately kept out of the CSV for the same reason.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

from .edgelist import (
    DataError, load_graph, read_text, write_edge_list, write_white_list,
)
from .engine import ALL_CONFIGS, ApproachConfig, kernelize
from .graph import Instance

FRACTIONS = ("remaining_vertex_fraction", "remaining_edge_fraction")

CSV_COLUMNS = (
    "kind",
    "group",
    "dataset",
    "config",
    "initial_vertices",
    "initial_edges",
    "final_vertices",
    "final_edges",
    "solution_size",
    "fully_solved",
    "attempts",
) + FRACTIONS


@dataclass(frozen=True)
class BenchResult:
    rows: tuple
    means: tuple
    notes: tuple


def write_dataset(root, groups, metadata) -> Path:
    """Write each (group name, graphs) pair under root as
    ``<group>/inst_NNN.edges``, numbered from 0, with an ``inst_NNN.white``
    sidecar for a graph that has whites, then ``manifest.json``: the
    ``metadata`` keys, the group names, and the files.  Deletes every
    ``*/inst_*.edges`` and ``*/inst_*.white`` the manifest does not list.
    An edge list keeps only edges, so a graph with an isolated vertex
    raises ValueError instead of being written as another instance.
    Returns the manifest's path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    names, files = [], []
    for name, graphs in groups:
        names.append(name)
        (root / name).mkdir(exist_ok=True)
        for index, graph in enumerate(graphs):
            stem = f"{name}/inst_{index:03d}"
            if not all(graph.adj.values()):
                raise ValueError(f"{stem}.edges: an isolated vertex would be lost")
            write_edge_list(root / f"{stem}.edges", graph)
            white = f"{stem}.white" if graph.white_vertices() else None
            if white:
                write_white_list(root / white, graph)
            files.append({"group": name, "path": f"{stem}.edges", "white": white})
    manifest = root / "manifest.json"
    data = {**metadata, "groups": names, "files": files}
    manifest.write_text(json.dumps(data, indent=2) + "\n")
    listed = {root / f[key] for f in files for key in ("path", "white") if f[key]}
    on_disk = [*root.glob("*/inst_*.edges"), *root.glob("*/inst_*.white")]
    for stale in set(on_disk) - listed:
        stale.unlink()
    return manifest


def read_manifest(path):
    """Load the dataset manifest; file paths resolve relative to it.  A
    manifest of the wrong shape, one with an empty 'path' or 'white'
    string, or one that lists a path twice, raises DataError naming
    the file."""
    path = Path(path)
    try:
        data = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise DataError(path, None, f"malformed JSON: {exc}") from None
    files = data.get("files") if isinstance(data, dict) else None
    if not isinstance(files, list):
        raise DataError(path, None, "expected an object with a 'files' list")
    base = path.parent
    entries = []
    for i, item in enumerate(files):
        if not (
            isinstance(item, dict)
            and isinstance(item.get("group"), str)
            and isinstance(item.get("path"), str)
            and isinstance(item.get("white"), (str, type(None)))
        ):
            raise DataError(
                path, None,
                f"files[{i}] needs string 'group' and 'path' and a string"
                " or null 'white'",
            )
        if item["path"] == "" or item.get("white") == "":
            raise DataError(path, None, f"files[{i}] has an empty 'path' or 'white'")
        entries.append(
            {
                "group": item["group"],
                "dataset": item["path"],
                "path": str(base / item["path"]),
                "white_path": str(base / item["white"]) if item.get("white") else None,
            }
        )
    if len({e["path"] for e in entries}) != len(entries):
        raise DataError(path, None, "a 'path' is listed more than once")
    return entries


def _run_file(entry, plan, requested):
    """Load one file and kernelize it under each configuration of ``plan``
    in order; return the rows of ``requested``, in its order.

    ``off.none`` runs on the loaded instance; every other configuration
    continues from a copy of its prefix's kernel, which ``plan`` runs
    earlier, so no kernel is mutated after its own run.  Any exception
    raises DataError naming the file."""
    try:
        base = Instance.from_graph(load_graph(entry["path"], entry.get("white_path")))
        runs = {}  # config -> (instance it left, report)
        for config in plan:
            if config.prefix is None:
                inst, after = base, None
            else:
                parent, after = runs[config.prefix]
                inst = parent.copy()
            runs[config] = (inst, kernelize(inst, config, after))
    except Exception as exc:
        raise DataError(entry["path"], None, f"{type(exc).__name__}: {exc}") from exc
    rows = []
    for config in requested:
        full = runs[config][1].to_dict()
        full.update(kind="instance", group=entry["group"], dataset=entry["dataset"])
        rows.append({c: full[c] for c in CSV_COLUMNS})
    return rows


def run_bench(entries, configs=None, workers: int = 1) -> BenchResult:
    """Kernelize every manifest entry under every configuration.

    An unknown configuration name raises ValueError before any file is
    read.  The plan is the prefix closure of ``configs``: the
    configurations whose ``tiers`` lead those of a requested one, in
    ``ALL_CONFIGS`` order, where every prefix comes before the ones that
    extend it.  Each file is one task that loads it once and runs the plan
    (see ``_run_file``); its rows equal a separate load and run per
    requested configuration.  Rows are dataset-major (all configurations of
    a file together, in the given order) regardless of worker count.  The
    first failing file in manifest order raises DataError: no later
    file starts in a serial run, and a pool's workers are terminated.
    """
    if configs is None:
        configs = [c.name for c in ALL_CONFIGS]
    requested = [ApproachConfig.from_name(name) for name in configs]
    plan = [
        c for c in ALL_CONFIGS
        if any(r.tiers[: len(c.tiers)] == c.tiers for r in requested)
    ]
    run = functools.partial(_run_file, plan=plan, requested=requested)
    if workers > 1 and len(entries) > 1:
        with multiprocessing.Pool(processes=min(workers, len(entries))) as pool:
            rows = list(itertools.chain.from_iterable(pool.imap(run, entries)))
    else:
        rows = list(itertools.chain.from_iterable(map(run, entries)))
    means = aggregate_means(rows, configs)
    notes = worse_than_baseline_notes(rows)
    return BenchResult(tuple(rows), tuple(means), tuple(notes))


def aggregate_means(rows, configs):
    """Per (group, config) means of the remaining fractions, groups in
    first-appearance order, configs in the order they were run."""
    by_group = {}
    for row in rows:
        by_group.setdefault(row["group"], {}).setdefault(row["config"], []).append(row)
    means = []
    for group, by_config in by_group.items():
        for config in configs:
            sub = by_config[config]
            row = dict.fromkeys(CSV_COLUMNS, "")
            row.update(kind="group-mean", group=group, config=config)
            for key in ("fully_solved",) + FRACTIONS:
                # Added left to right: since Python 3.12, sum() adds
                # floats with compensation, which changes CSV bytes.
                total = 0
                for r in sub:
                    total += r[key]
                row[key] = total / len(sub)
            means.append(row)
    return means


def worse_than_baseline_notes(rows):
    """Instances where a sparsity-on run kept strictly more than its prefix,
    the sparsity-off sibling; recorded, never treated as a failure.
    ``on.none`` and ``on.one`` continue their prefix's kernel and only
    delete or whiten, so they never can; only ``on.both``, whose run
    repeats the pair tier and its vertex-adding gadget, might."""
    by_key = {(r["group"], r["dataset"], r["config"]): r for r in rows}
    notes = []
    for r in rows:
        config = ApproachConfig.from_name(r["config"])
        if not config.sparsity:
            continue
        off = by_key.get((r["group"], r["dataset"], config.prefix.name))
        if off is None:
            continue
        for metric in FRACTIONS:
            if r[metric] > off[metric]:
                notes.append(
                    f"{r['group']}/{r['dataset']}: {r['config']} kept "
                    f"{metric.split('_')[1]} fraction {r[metric]:.6f} "
                    f"> {off[metric]:.6f} under {off['config']}"
                )
    return notes


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path, result: BenchResult) -> None:
    """Instance rows first, then the group means; byte-deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in list(result.rows) + list(result.means):
            writer.writerow(_format_cell(row[c]) for c in CSV_COLUMNS)
