"""The one-shot benchmark driver regenerates its dataset exactly when the
request differs from what the manifest records."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).parent.parent / "scripts" / "run_bench.py"
spec = importlib.util.spec_from_file_location("run_bench", SCRIPT)
run_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_bench)


def sweep(workdir, seed, instances=1):
    argv = ["--workdir", str(workdir), "--seed", str(seed),
            "--instances", str(instances), "--configs", "off.none"]
    assert run_bench.run(argv) == 0
    manifest = json.loads((workdir / "dataset" / "manifest.json").read_text())
    return manifest, (workdir / "results.csv").read_bytes()


def test_a_new_seed_or_count_regenerates_the_dataset(tmp_path, capsys):
    first, csv0 = sweep(tmp_path, 0)
    assert (first["master_seed"], first["instances_per_group"]) == (0, 1)

    second, csv1 = sweep(tmp_path, 1)
    assert second["master_seed"] == 1
    assert csv1 != csv0

    capsys.readouterr()
    third, csv2 = sweep(tmp_path, 1)
    assert "reusing dataset" in capsys.readouterr().out
    assert (third, csv2) == (second, csv1)

    fourth, _ = sweep(tmp_path, 1, instances=2)
    assert (fourth["master_seed"], fourth["instances_per_group"]) == (1, 2)


def test_an_unreadable_manifest_is_regenerated(tmp_path):
    manifest = tmp_path / "dataset" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_text("not json")
    meta, _ = sweep(tmp_path, 0)
    assert meta["master_seed"] == 0
