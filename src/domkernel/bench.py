"""The dataset format, batch kernelization over it, and CSV reporting.

A dataset is a directory of ``<group>/inst_NNN.edges`` files and the
``manifest.json`` that lists them; ``write_dataset`` writes one and
``read_manifest`` reads it.  A bench run takes the dataset manifest,
runs every (file, configuration) pair, and emits one CSV row per pair
plus per-group mean rows.  Each file is loaded once, and each
configuration continues from the kernel of its prefix
(``ApproachConfig.prefix``) instead of starting over; the CSV bytes are
those of a separate load and run per pair.  Row order, aggregation
order, and float formatting are all deterministic, so a re-run over the
same dataset produces a byte-identical CSV.  Wall-clock times are
deliberately kept out of the CSV for the same reason.
"""

from __future__ import annotations

import csv
import json
import multiprocessing
from dataclasses import dataclass
from pathlib import Path

from .edgelist import load_graph, write_edge_list
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


class BenchRunError(RuntimeError):
    """A dataset file failed to process; the whole run aborts."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class BenchResult:
    rows: tuple
    means: tuple
    notes: tuple


def write_dataset(root, groups, metadata) -> Path:
    """Write each (group name, graphs) pair under root as
    ``<group>/inst_NNN.edges``, numbered from 0, then ``manifest.json``:
    the ``metadata`` keys, the group names, and the files with a null
    'white'.  Deletes every ``*/inst_*.edges`` the manifest does not list.
    An edge list keeps only edges, so a graph with a white or an isolated
    vertex raises ValueError instead of being written as another instance.
    Returns the manifest's path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    names, files = [], []
    for name, graphs in groups:
        names.append(name)
        (root / name).mkdir(exist_ok=True)
        for index, graph in enumerate(graphs):
            rel = f"{name}/inst_{index:03d}.edges"
            if graph.white_vertices() or not all(graph.adj.values()):
                raise ValueError(f"{rel}: a white or isolated vertex would be lost")
            write_edge_list(root / rel, graph)
            files.append({"group": name, "path": rel, "white": None})
    manifest = root / "manifest.json"
    data = {**metadata, "groups": names, "files": files}
    manifest.write_text(json.dumps(data, indent=2) + "\n")
    listed = {root / f["path"] for f in files}
    for stale in set(root.glob("*/inst_*.edges")) - listed:
        stale.unlink()
    return manifest


def read_manifest(path):
    """Load the dataset manifest; file paths resolve relative to it.  A
    manifest of the wrong shape, one with an empty 'path' or 'white'
    string, or one that lists a path twice, raises BenchRunError naming
    the file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except UnicodeDecodeError as exc:
        raise BenchRunError(str(path), f"undecodable text: {exc}") from None
    files = data.get("files") if isinstance(data, dict) else None
    if not isinstance(files, list):
        raise BenchRunError(str(path), "expected an object with a 'files' list")
    base = path.parent
    entries = []
    for i, item in enumerate(files):
        if not (
            isinstance(item, dict)
            and isinstance(item.get("group"), str)
            and isinstance(item.get("path"), str)
            and isinstance(item.get("white"), (str, type(None)))
        ):
            raise BenchRunError(
                str(path),
                f"files[{i}] needs string 'group' and 'path' and a string"
                " or null 'white'",
            )
        if item["path"] == "" or item.get("white") == "":
            raise BenchRunError(
                str(path), f"files[{i}] has an empty 'path' or 'white'"
            )
        entries.append(
            {
                "group": item["group"],
                "dataset": item["path"],
                "path": str(base / item["path"]),
                "white_path": str(base / item["white"]) if item.get("white") else None,
            }
        )
    if len({e["path"] for e in entries}) != len(entries):
        raise BenchRunError(str(path), "a 'path' is listed more than once")
    return entries


def _run_file(entry, configs):
    """Load one file and kernelize it under each configuration in order.

    The prefix closure of ``configs`` (each one, its prefix, that one's
    prefix, ...) runs in ``ALL_CONFIGS`` order, where every prefix comes
    before the configurations that extend it.  ``off.none`` runs on the
    loaded instance; every other configuration continues from a copy of
    its prefix's kernel, so no kernel is mutated after its own run.  Rows
    are returned for ``configs`` only, in the given order."""
    try:
        base = Instance.from_graph(load_graph(entry["path"], entry.get("white_path")))
        requested = [ApproachConfig.from_name(name) for name in configs]
        needed = set()
        for config in requested:
            while config is not None:
                needed.add(config)
                config = config.prefix
        runs = {}  # config -> (instance it left, report)
        for config in ALL_CONFIGS:
            if config not in needed:
                continue
            if config.prefix is None:
                inst, after = base, None
            else:
                parent, after = runs[config.prefix]
                inst = parent.copy()
            runs[config] = (inst, kernelize(inst, config, after))
        reports = [runs[config][1] for config in requested]
    except Exception as exc:
        return ("error", entry["path"], f"{type(exc).__name__}: {exc}")
    rows = []
    for report in reports:
        full = report.to_dict()
        full.update(kind="instance", group=entry["group"], dataset=entry["dataset"])
        rows.append({c: full[c] for c in CSV_COLUMNS})
    return ("ok", rows)


def run_bench(entries, configs=None, workers: int = 1) -> BenchResult:
    """Kernelize every manifest entry under every configuration.

    Each file is one task: it is loaded once, and each configuration
    continues from the kernel of its prefix (see ``_run_file``), so a
    subset of configurations also runs its unrequested prefixes.  The rows
    are the same as from a separate load and run per configuration, and
    there is one per requested configuration.  Rows are dataset-major (all
    configurations of a file together, in the given order) regardless of
    worker count.  The first file that fails aborts
    the run with the file named.
    """
    if configs is None:
        configs = [c.name for c in ALL_CONFIGS]
    tasks = [(e, configs) for e in entries]
    if workers > 1 and len(tasks) > 1:
        with multiprocessing.Pool(processes=min(workers, len(tasks))) as pool:
            outcomes = pool.starmap(_run_file, tasks, chunksize=1)
    else:
        outcomes = [_run_file(*t) for t in tasks]
    rows = []
    for outcome in outcomes:
        if outcome[0] == "error":
            raise BenchRunError(outcome[1], outcome[2])
        rows += outcome[1]
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
                row[key] = sum(r[key] for r in sub) / len(sub)
            means.append(row)
    return means


def worse_than_baseline_notes(rows):
    """Instances where a sparsity-on run kept strictly more than its prefix,
    the sparsity-off sibling.  Known to happen occasionally; recorded, never
    treated as a failure."""
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
