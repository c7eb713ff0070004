"""The one-shot benchmark driver generates the dataset it is asked for on
every run and hands every argument it does not define to `bench`, whose
parser checks them before anything is generated."""

import csv
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "scripts" / "run_bench.py"
spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
run_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_bench)


def sweep(workdir, seed, instances=1, bench_args=("--configs", "off.none")):
    argv = ["--workdir", str(workdir), "--seed", str(seed),
            "--instances", str(instances), *bench_args]
    assert run_bench.run(argv) == 0
    manifest = json.loads((workdir / "dataset" / "manifest.json").read_text())
    return manifest, (workdir / "results.csv").read_bytes()


def test_a_new_seed_or_count_regenerates_the_dataset(tmp_path):
    first, csv0 = sweep(tmp_path, 0)
    assert (first["master_seed"], first["instances_per_group"]) == (0, 1)

    second, csv1 = sweep(tmp_path, 1)
    assert second["master_seed"] == 1
    assert csv1 != csv0

    third, csv2 = sweep(tmp_path, 1)
    assert (third, csv2) == (second, csv1)

    fourth, _ = sweep(tmp_path, 1, instances=2)
    assert (fourth["master_seed"], fourth["instances_per_group"]) == (1, 2)

    fifth, _ = sweep(tmp_path, 1)
    dataset = tmp_path / "dataset"
    on_disk = {p.relative_to(dataset).as_posix() for p in dataset.glob("*/inst_*.edges")}
    assert on_disk == {item["path"] for item in fifth["files"]}
    assert len(on_disk) == 6


def test_an_unreadable_manifest_is_regenerated(tmp_path):
    manifest = tmp_path / "dataset" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_text("not json")
    meta, _ = sweep(tmp_path, 0)
    assert meta["master_seed"] == 0


def test_workers_do_not_change_the_csv(tmp_path):
    configs = ("--configs", "off.none,on.both")
    _, one = sweep(tmp_path / "one", 0, bench_args=configs + ("--workers", "1"))
    _, two = sweep(tmp_path / "two", 0, bench_args=configs + ("--workers", "2"))
    assert one == two


def test_configs_reach_bench(tmp_path):
    _, body = sweep(tmp_path, 0)
    configs = {row["config"] for row in csv.DictReader(body.decode().splitlines())}
    assert configs == {"off.none"}


def test_an_unknown_flag_exits_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_bench.run(["--workdir", str(tmp_path), "--instances", "1", "--no-such-flag"])
    assert exc.value.code == 1
    assert not (tmp_path / "dataset").exists()
