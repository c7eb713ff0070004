"""Command line behavior: the four subcommands and the exit-code contract
(0 ok, 1 usage, 2 data, 3 oracle refusal)."""

import json
import random

import pytest

from domkernel.cli import main
from domkernel.edgelist import write_edge_list, write_white_list
from domkernel.engine import ALL_CONFIGS
from domkernel.exact import exact_dom
from domkernel.plangen import GroupSpec, canonical_groups, generate_instance

from helpers import cycle_graph, path_graph, star_graph


def write_graph(tmp_path, g, name="g.edges"):
    p = tmp_path / name
    write_edge_list(p, g)
    return p


class TestGen:
    def test_writes_files_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "data"
        code = main(
            ["gen", "--out", str(out), "--groups", "302x900", "--instances", "2"]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 0
        assert manifest["instances_per_group"] == 2
        assert manifest["groups"] == ["302x900"]
        assert len(manifest["files"]) == 2
        for item in manifest["files"]:
            assert item["white"] is None
            body = (out / item["path"]).read_text().splitlines()
            assert body[0] == "# 302 900"
            assert len(body) == 901
        assert "2 instances" in capsys.readouterr().out

    def test_same_seed_twice_is_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["gen", "--out", str(out), "--groups", "302x900",
                  "--instances", "2", "--seed", "9"])
        for rel in ("302x900/inst_000.edges", "302x900/inst_001.edges"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    @staticmethod
    def files_on_disk_and_in_manifest(out):
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.relative_to(out).as_posix() for p in out.glob("*/inst_*.edges")}
        return on_disk, {item["path"] for item in manifest["files"]}

    def test_fewer_instances_in_place_leave_no_stale_files(self, tmp_path):
        out = tmp_path / "data"
        for count in ("3", "1"):
            argv = ["gen", "--out", str(out), "--groups", "302x900", "--instances", count]
            assert main(argv) == 0
        on_disk, listed = self.files_on_disk_and_in_manifest(out)
        assert on_disk == listed == {"302x900/inst_000.edges"}

    def test_narrower_groups_in_place_leave_no_stale_files(self, tmp_path):
        out = tmp_path / "data"
        assert main(["gen", "--out", str(out), "--instances", "1"]) == 0
        assert len(self.files_on_disk_and_in_manifest(out)[0]) == 6
        assert main(["gen", "--out", str(out), "--instances", "1",
                     "--groups", "302x900"]) == 0
        on_disk, listed = self.files_on_disk_and_in_manifest(out)
        assert on_disk == listed == {"302x900/inst_000.edges"}

    def test_canonical_names_write_the_canonical_bytes(self, tmp_path):
        names = ",".join(spec.name for spec in canonical_groups())
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--out", str(a), "--instances", "1"]) == 0
        assert main(["gen", "--out", str(b), "--instances", "1", "--groups", names]) == 0
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        assert len(files) == 7
        for rel in files:
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_unknown_group_is_a_usage_error(self, tmp_path, capsys):
        # 1x1 has the NxM form, but GroupSpec refuses it; its reason is shown.
        out = tmp_path / "x"
        code = main(["gen", "--out", str(out), "--groups", "1x1"])
        assert code == 1
        assert "need at least 3 vertices" in capsys.readouterr().err
        assert not out.exists()

    def test_more_edges_than_planar_allows_is_a_usage_error(self, tmp_path, capsys):
        # Half of 2002x6000 is not 1001x3000: a planar graph on 1001
        # vertices has at most 3 * 1001 - 6 = 2997 edges.
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--groups", "1001x3000"]) == 1
        assert "edge target 3000 outside [0, 2997]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["big", "302x", "302X900", "0302x900", "302x900x1"])
    def test_a_group_name_that_is_not_nxm_is_a_usage_error(self, tmp_path, capsys, name):
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--groups", f"302x900,{name}"]) == 1
        assert "NxM" in capsys.readouterr().err
        assert not out.exists()

    def test_any_nxm_name_generates_its_group(self, tmp_path):
        out = tmp_path / "data"
        argv = ["gen", "--out", str(out), "--groups", "1001x2997",
                "--instances", "1", "--seed", "4"]
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["groups"] == ["1001x2997"]
        want = tmp_path / "want.edges"
        write_edge_list(want, generate_instance(GroupSpec(1001, 2997, 1), 0, 4))
        got = out / manifest["files"][0]["path"]
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "groups", [",", "302x900,302x900"], ids=["no-groups", "repeated-group"]
    )
    def test_nonsense_group_list_is_a_usage_error(self, tmp_path, capsys, groups):
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--groups", groups]) == 1
        assert "--groups" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_instance_count_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen", "--out", str(out), "--instances", "-2"]) == 1
        assert "negative" in capsys.readouterr().err
        assert not out.exists()


class TestKernelize:
    def test_star_fully_solved(self, tmp_path, capsys):
        edges = write_graph(tmp_path, star_graph(5))
        report = tmp_path / "report.json"
        kernel = tmp_path / "kernel.edges"
        code = main(
            ["kernelize", str(edges), "--report", str(report),
             "--kernel-out", str(kernel)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fully solved: yes" in out
        payload = json.loads(report.read_text())
        assert payload["config"] == "off.none"
        assert payload["fully_solved"] is True
        assert payload["solution_size"] == 1
        assert payload["input"] == str(edges)
        assert kernel.read_text() == "# 0 0\n"
        assert (tmp_path / "kernel.edges.white").read_text() == "# 0 white vertices\n"

    def test_white_sidecar_respected(self, tmp_path, capsys):
        # All-white input needs no dominators at all; without the sidecar
        # the same star costs one.
        g = star_graph(3, white=[0, 1, 2, 3])
        edges = write_graph(tmp_path, g)
        white = tmp_path / "g.white"
        write_white_list(white, g)
        code = main(["kernelize", str(edges), "--white", str(white)])
        assert code == 0
        assert "solution: 0" in capsys.readouterr().out
        assert main(["kernelize", str(edges)]) == 0
        assert "solution: 1" in capsys.readouterr().out

    @pytest.mark.parametrize("config", [c.name for c in ALL_CONFIGS])
    def test_written_kernel_keeps_the_optimum(self, tmp_path, capsys, config):
        # optimum(original) == |solution| + optimum(written kernel), with the
        # kernel read back from --kernel-out and its .white sidecar.
        kernel = tmp_path / "kernel.edges"
        kernel_whites = 0
        for index in range(6):
            g = generate_instance(GroupSpec(50, 110), index, 0)
            for v in random.Random(index).sample(sorted(g.adj), 15):
                g.black.remove(v)
            edges = write_graph(tmp_path, g)
            white = tmp_path / "g.white"
            write_white_list(white, g)
            report = tmp_path / "report.json"
            assert main(["kernelize", str(edges), "--white", str(white),
                         "--config", config, "--report", str(report),
                         "--kernel-out", str(kernel)]) == 0
            solution = json.loads(report.read_text())["solution_size"]
            kernel_white = tmp_path / "kernel.edges.white"
            kernel_whites += len(kernel_white.read_text().splitlines()) - 1
            capsys.readouterr()
            assert main(["solve-exact", str(kernel), "--white",
                         str(kernel_white)]) == 0
            out = capsys.readouterr().out
            rest = int(out.split("optimum: ")[1].split()[0])
            assert exact_dom(g).size == solution + rest, f"instance {index}"
        assert kernel_whites > 0

    def test_config_flag_changes_the_run(self, tmp_path, capsys):
        edges = write_graph(tmp_path, cycle_graph(9))
        assert main(["kernelize", str(edges), "--config", "on.both"]) == 0
        assert "config: on.both" in capsys.readouterr().out

    def test_unknown_config_is_a_usage_error(self, tmp_path, capsys):
        edges = write_graph(tmp_path, star_graph(2))
        assert main(["kernelize", str(edges), "--config", "bogus.none"]) == 1
        assert "unknown configuration" in capsys.readouterr().err
        assert main(["kernelize", str(edges), "--config", "off.everything"]) == 1
        assert "unknown configuration" in capsys.readouterr().err

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code = main(["kernelize", str(tmp_path / "absent.edges")])
        assert code == 2

    def test_malformed_file_is_a_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\nnope\n")
        code = main(["kernelize", str(bad)])
        assert code == 2
        assert "bad.edges:2" in capsys.readouterr().err


class TestBench:
    def test_end_to_end_over_a_generated_dataset(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["gen", "--out", str(out), "--groups", "302x900", "--instances", "2"])
        csv_path = tmp_path / "bench.csv"
        code = main(
            ["bench", "--manifest", str(out / "manifest.json"),
             "--csv", str(csv_path), "--configs", "off.none,off.both"]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "302x900" in stdout and "off.both" in stdout
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 1 + 4 + 2

    def test_bad_config_name_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "data"
        main(["gen", "--out", str(out), "--groups", "302x900", "--instances", "1"])
        code = main(
            ["bench", "--manifest", str(out / "manifest.json"),
             "--csv", str(tmp_path / "x.csv"), "--configs", "off.bogus"]
        )
        assert code == 1

    def test_bad_manifest_is_reported_before_a_bad_config_name(
        self, tmp_path, capsys
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"files": 3}')
        code = main(
            ["bench", "--manifest", str(manifest), "--csv", str(tmp_path / "x.csv"),
             "--configs", "off.bogus"]
        )
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--configs", ","], ["--configs", "off.none, off.none"],
         ["--workers", "0"], ["--workers", "-3"]],
        ids=["no-configs", "repeated-config", "zero-workers", "negative-workers"],
    )
    def test_nonsense_run_shape_is_a_usage_error(self, tmp_path, capsys, flags):
        out = tmp_path / "data"
        main(["gen", "--out", str(out), "--groups", "302x900", "--instances", "1"])
        csv_path = tmp_path / "x.csv"
        code = main(
            ["bench", "--manifest", str(out / "manifest.json"),
             "--csv", str(csv_path)] + flags
        )
        assert code == 1
        assert flags[0] in capsys.readouterr().err
        assert not csv_path.exists()

    def test_malformed_manifest_is_a_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{not json")
        code = main(
            ["bench", "--manifest", str(manifest), "--csv", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert f"error: {manifest}: malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            [1, 2],
            {"files": {"path": "x.edges"}},
            {"files": [{"path": "x.edges"}]},
            {"files": [{"group": "g", "path": "x.edges", "white": 5}]},
            {},
            {"files": [{"group": g, "path": p, "white": None}
                       for g, p in (("a", "x.edges"), ("b", "./x.edges"))]},
        ],
        ids=["top-level-list", "files-not-a-list", "no-group", "white-not-a-string",
             "no-files", "repeated-path"],
    )
    def test_manifest_of_the_wrong_shape_is_a_data_error(
        self, tmp_path, capsys, body
    ):
        write_graph(tmp_path, path_graph(2), "x.edges")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(body))
        code = main(
            ["bench", "--manifest", str(manifest), "--csv", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["path", "white"])
    def test_empty_path_or_white_is_a_data_error(self, tmp_path, capsys, field):
        write_graph(tmp_path, path_graph(2), "x.edges")
        item = {"group": "g", "path": "x.edges", "white": None, field: ""}
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"files": [item]}))
        csv_path = tmp_path / "x.csv"
        code = main(["bench", "--manifest", str(manifest), "--csv", str(csv_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "files[0]" in err
        assert not csv_path.exists()

    def test_missing_dataset_file_is_a_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"files": [{"group": "g", "path": "gone.edges",
                                   "white": None}]})
        )
        code = main(
            ["bench", "--manifest", str(manifest), "--csv", str(tmp_path / "x.csv")]
        )
        assert code == 2
        assert "gone.edges" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, name",
    [("kernelize", "--config", "off.bogus"), ("bench", "--configs", "on.tow")],
)
def test_unknown_configuration_error_names_it(tmp_path, capsys, command, flag, name):
    edges = write_graph(tmp_path, path_graph(3), "a.edges")
    manifest = tmp_path / "manifest.json"
    manifest.write_text(
        json.dumps({"files": [{"group": "g", "path": "a.edges", "white": None}]})
    )
    csv_path = tmp_path / "x.csv"
    argv = {
        "kernelize": ["kernelize", str(edges)],
        "bench": ["bench", "--manifest", str(manifest), "--csv", str(csv_path)],
    }[command]
    assert main(argv + [flag, name]) == 1
    assert f"error: unknown configuration name {name!r}" in capsys.readouterr().err
    assert not csv_path.exists()


class TestSolveExact:
    def test_two_path(self, tmp_path, capsys):
        edges = write_graph(tmp_path, path_graph(2))
        assert main(["solve-exact", str(edges)]) == 0
        assert "optimum: 1" in capsys.readouterr().out

    def test_six_cycle(self, tmp_path, capsys):
        edges = write_graph(tmp_path, cycle_graph(6))
        assert main(["solve-exact", str(edges)]) == 0
        out = capsys.readouterr().out
        assert "optimum: 2" in out
        assert "witness:" in out

    def test_white_sidecar(self, tmp_path, capsys):
        g = path_graph(4, white=[0, 1, 2, 3])
        edges = write_graph(tmp_path, g)
        white = tmp_path / "g.white"
        write_white_list(white, g)
        assert main(["solve-exact", str(edges), "--white", str(white)]) == 0
        assert "optimum: 0" in capsys.readouterr().out

    def test_oversized_input_refused_with_exit_3(self, tmp_path, capsys):
        edges = write_graph(tmp_path, path_graph(70))
        code = main(["solve-exact", str(edges), "--limit", "64"])
        assert code == 3
        assert "70 vertices exceeds the limit" in capsys.readouterr().err

    def test_limit_flag_tightens_the_refusal(self, tmp_path, capsys):
        edges = write_graph(tmp_path, path_graph(6))
        assert main(["solve-exact", str(edges), "--limit", "5"]) == 3
        assert main(["solve-exact", str(edges)]) == 0

    def test_negative_limit_is_a_usage_error(self, tmp_path, capsys):
        edges = write_graph(tmp_path, path_graph(3))
        assert main(["solve-exact", str(edges), "--limit", "-1"]) == 1
        assert "--limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["kernelize", "solve-exact", "kernelize-white", "bench"]
)
def test_undecodable_input_is_a_data_error(tmp_path, capsys, command):
    good = write_graph(tmp_path, path_graph(3))
    bad = tmp_path / "undecodable"
    bad.write_bytes(b"\xff\xfe0 1\n")
    argv = {
        "kernelize": ["kernelize", str(bad)],
        "solve-exact": ["solve-exact", str(bad)],
        "kernelize-white": ["kernelize", str(good), "--white", str(bad)],
        "bench": ["bench", "--manifest", str(bad), "--csv", str(tmp_path / "x.csv")],
    }[command]
    assert main(argv) == 2
    assert f"{bad}: undecodable text" in capsys.readouterr().err


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--out", "x", "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--csv", "x.csv"])
        assert exc.value.code == 1
