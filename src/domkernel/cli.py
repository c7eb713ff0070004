"""Command line entry points.

Exit codes: 0 success, 1 usage errors (bad flags, unknown configuration),
2 data errors (unreadable, undecodable or malformed input files), 3
exact-solver refusal on an oversized instance.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .bench import read_manifest, run_bench, write_csv, write_dataset
from .edgelist import DataError, load_graph, write_edge_list, write_white_list
from .engine import ApproachConfig, kernelize
from .exact import DEFAULT_VERTEX_LIMIT, OracleSizeError, exact_dom
from .graph import Instance
from .plangen import GroupSpec, canonical_groups, generate_group

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ORACLE = 3


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage problems; we use 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="domkernel", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = sub.add_parser("gen", help="generate the planar benchmark dataset")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, default=0, help="master seed")
    gen.add_argument(
        "--instances", type=int, default=25,
        help="instances per group (default 25; 100 for the full scale)",
    )
    gen.add_argument(
        "--groups", default=None,
        help="comma-separated NxM group names to generate instead of the"
        " canonical six: N vertices thinned to M edges, e.g. 302x900",
    )

    ker = sub.add_parser("kernelize", help="reduce one instance")
    ker.add_argument("edges", help="edge list file")
    ker.add_argument("--white", default=None, help="white-vertex sidecar file")
    ker.add_argument("--config", default="off.none", help="configuration name")
    ker.add_argument("--report", default=None, help="write a JSON report here")
    ker.add_argument(
        "--kernel-out", default=None,
        help="write the reduced edge list here, and its whites to <path>.white",
    )

    ben = sub.add_parser("bench", help="run the benchmark over a dataset")
    ben.add_argument("--manifest", required=True, help="dataset manifest.json")
    ben.add_argument("--csv", required=True, help="output CSV path")
    ben.add_argument(
        "--configs", default=None,
        help="comma-separated configuration names (default: all six)",
    )
    ben.add_argument(
        "--workers", type=int, default=1, help="parallel workers (default 1)"
    )

    sol = sub.add_parser("solve-exact", help="exact optimum of a small instance")
    sol.add_argument("edges", help="edge list file")
    sol.add_argument("--white", default=None, help="white-vertex sidecar file")
    sol.add_argument(
        "--limit", type=int, default=DEFAULT_VERTEX_LIMIT, help="vertex limit"
    )

    return parser


def _name_list(flag, value):
    """The names of a comma-separated flag value; at least one, no repeats."""
    names = [s.strip() for s in value.split(",") if s.strip()]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"{flag} needs distinct names, got {value!r}")
    return names


def _group(name: str, instances: int) -> GroupSpec:
    """The group an NxM name stands for, with `instances` instances."""
    match = re.fullmatch(r"([1-9][0-9]*)x(0|[1-9][0-9]*)", name)
    if match is None:
        raise ValueError(f"--groups names are NxM, e.g. 302x900; got {name!r}")
    try:
        return GroupSpec(int(match[1]), int(match[2]), instances)
    except ValueError as exc:
        raise ValueError(f"--groups {name}: {exc}") from None


def _cmd_gen(args) -> int:
    if args.groups is None:
        groups = canonical_groups(args.instances)
    else:
        names = _name_list("--groups", args.groups)
        groups = tuple(_group(name, args.instances) for name in names)
    graphs = ((spec.name, generate_group(spec, args.seed)) for spec in groups)
    metadata = {"master_seed": args.seed, "instances_per_group": args.instances}
    manifest = write_dataset(args.out, graphs, metadata)
    count = sum(spec.instances for spec in groups)
    print(f"wrote {count} instances in {len(groups)} groups to {manifest.parent}")
    return EXIT_OK


def _cmd_kernelize(args) -> int:
    config = ApproachConfig.from_name(args.config)
    g = load_graph(args.edges, args.white)
    inst = Instance.from_graph(g)
    report = kernelize(inst, config)
    print(f"input: {args.edges}")
    print(f"config: {report.config}")
    print(
        f"vertices: {report.initial_vertices} -> {report.final_vertices}"
        f" ({report.remaining_vertex_fraction:.6f})"
    )
    print(
        f"edges: {report.initial_edges} -> {report.final_edges}"
        f" ({report.remaining_edge_fraction:.6f})"
    )
    print(f"solution: {report.solution_size}")
    print(f"fully solved: {'yes' if report.fully_solved else 'no'}")
    fired = {k: v for k, v in sorted(report.rule_applications.items()) if v}
    if fired:
        print("applications:", " ".join(f"{k}={v}" for k, v in fired.items()))
    else:
        print("applications: none")
    if args.report:
        payload = report.to_dict()
        payload["input"] = args.edges
        payload["white"] = args.white
        Path(args.report).write_text(json.dumps(payload, indent=2) + "\n")
    if args.kernel_out:
        write_edge_list(args.kernel_out, inst.graph)
        write_white_list(f"{args.kernel_out}.white", inst.graph)
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    configs = None
    if args.configs is not None:
        configs = _name_list("--configs", args.configs)
    entries = read_manifest(args.manifest)
    result = run_bench(entries, configs, workers=args.workers)
    write_csv(args.csv, result)
    for note in result.notes:
        print(f"note: {note}", file=sys.stderr)
    for mean in result.means:
        print(
            f"{mean['group']:>12}  {mean['config']:<8}"
            f"  vertices {mean['remaining_vertex_fraction']:.6f}"
            f"  edges {mean['remaining_edge_fraction']:.6f}"
            f"  solved {mean['fully_solved']:.2f}"
        )
    print(f"csv: {args.csv}")
    return EXIT_OK


def _cmd_solve_exact(args) -> int:
    if args.limit < 0:
        raise ValueError(f"--limit must be non-negative, got {args.limit}")
    g = load_graph(args.edges, args.white)
    result = exact_dom(g, limit=args.limit)
    print(f"optimum: {result.size}")
    print("witness:", " ".join(str(v) for v in sorted(result.witness)))
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "kernelize": _cmd_kernelize,
    "bench": _cmd_bench,
    "solve-exact": _cmd_solve_exact,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OracleSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
