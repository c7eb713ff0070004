#!/usr/bin/env python3
"""One-shot benchmark driver: `domkernel gen`, then `domkernel bench`.

Generates the canonical planar dataset for --seed and --instances into
<workdir>/dataset, replacing whatever was there, then sweeps it with
`domkernel bench --csv <workdir>/results.csv`.  Every other argument,
such as --configs or --workers, goes to `bench` unchanged; one that
`bench` does not accept exits 1 before anything is generated.  Leaves
everything under --workdir (default ./bench_output):

  dataset/       edge lists plus manifest.json
  results.csv    one row per (instance, configuration), then group means

and prints the group-mean table to stdout.  The same arguments
reproduce the CSV byte for byte.
"""

import argparse
import sys
from pathlib import Path

from domkernel.cli import build_parser, main as domkernel


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="generate the dataset, then sweep it with `domkernel bench`;"
        " every other argument goes to bench",
        allow_abbrev=False,  # `--work` is bench's `--workers`, not `--workdir`
    )
    parser.add_argument("--workdir", default="bench_output", help="output directory")
    parser.add_argument("--instances", default="25", help="instances per group")
    parser.add_argument("--seed", default="0", help="master seed for generation")
    args, bench_args = parser.parse_known_args(argv)

    dataset = Path(args.workdir) / "dataset"
    csv = str(Path(args.workdir) / "results.csv")
    bench = ["bench", "--manifest", str(dataset / "manifest.json"), "--csv", csv]
    bench += bench_args
    build_parser().parse_args(bench)  # a flag bench does not know exits 1 here
    gen = ["gen", "--out", str(dataset), "--instances", args.instances, "--seed", args.seed]
    code = domkernel(gen)
    if code != 0:
        return code
    return domkernel(bench)


if __name__ == "__main__":
    sys.exit(run())
