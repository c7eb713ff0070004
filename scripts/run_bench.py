#!/usr/bin/env python3
"""One-shot benchmark driver.

Makes sure the canonical planar dataset for the requested seed and
instance count exists, generating it when the manifest is missing or was
made for another seed or count, then sweeps every kernelization
configuration over it.  Leaves everything under --workdir (default
./bench_output):

  dataset/       edge lists plus manifest.json
  results.csv    one row per (instance, configuration), then group means

and prints the group-mean table to stdout.  Rerunning with the same
seed and instance count reuses the dataset and reproduces the CSV
byte for byte.
"""

import argparse
import json
import sys
from pathlib import Path

from domkernel.cli import main as domkernel


def dataset_matches(manifest: Path, seed: int, instances: int) -> bool:
    """True iff the manifest exists and was generated with this master
    seed and this many instances per group."""
    try:
        meta = json.loads(manifest.read_text())
    except (OSError, ValueError):
        return False
    return (
        isinstance(meta, dict)
        and meta.get("master_seed") == seed
        and meta.get("instances_per_group") == instances
    )


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="generate the dataset if needed, then run the full sweep"
    )
    parser.add_argument(
        "--workdir", default="bench_output", help="where the dataset and results go"
    )
    parser.add_argument(
        "--instances", type=int, default=25, help="instances per group when generating"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed for generation")
    parser.add_argument(
        "--configs",
        default=None,
        help="comma-separated configuration names (default: all six)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes for the sweep"
    )
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    dataset = workdir / "dataset"
    manifest = dataset / "manifest.json"
    if not dataset_matches(manifest, args.seed, args.instances):
        code = domkernel(
            [
                "gen",
                "--out",
                str(dataset),
                "--instances",
                str(args.instances),
                "--seed",
                str(args.seed),
            ]
        )
        if code != 0:
            return code
    else:
        print(f"reusing dataset at {dataset}")

    bench_argv = [
        "bench",
        "--manifest",
        str(manifest),
        "--csv",
        str(workdir / "results.csv"),
        "--workers",
        str(args.workers),
    ]
    if args.configs:
        bench_argv += ["--configs", args.configs]
    return domkernel(bench_argv)


if __name__ == "__main__":
    sys.exit(run())
