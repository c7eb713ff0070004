"""Batch runner: ordering, aggregation, notes, and CSV byte determinism."""

import json
import multiprocessing
import pickle

import pytest

import domkernel.bench as bench
import domkernel.engine as engine
from domkernel.bench import (
    CSV_COLUMNS,
    aggregate_means,
    read_manifest,
    run_bench,
    worse_than_baseline_notes,
    write_csv,
    write_dataset,
)
from domkernel.edgelist import DataError, load_graph
from domkernel.engine import ALL_CONFIGS
from domkernel.plangen import GroupSpec, generate_group

from helpers import (
    bench_rows_per_run,
    colored,
    cycle_graph,
    path_graph,
    wheel_with_pendants,
)


def tiny_dataset(root):
    """Two small groups, two instances each, written under root and read
    back through the manifest."""
    specs = (GroupSpec(20, 40, instances=2), GroupSpec(24, 30, instances=2))
    groups = [(spec.name, generate_group(spec, master_seed=0)) for spec in specs]
    return read_manifest(write_dataset(root, groups, {"master_seed": 0}))


def missing_entry(root, name="gone.edges"):
    """A manifest entry whose file does not exist."""
    return {
        "group": "20x40",
        "dataset": f"20x40/{name}",
        "path": str(root / "20x40" / name),
        "white_path": None,
    }


def counting(monkeypatch, name):
    """Replace bench.<name> with a wrapper; returns the list of its calls."""
    calls, real = [], getattr(bench, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(bench, name, wrapper)
    return calls


CONFIGS = ["off.none", "on.both"]
ALL_NAMES = [c.name for c in ALL_CONFIGS]


class TestReadManifest:
    def test_paths_resolve_relative_to_the_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "files": [
                        {"group": "g", "path": "g/a.edges", "white": None},
                        {"group": "g", "path": "g/b.edges", "white": "g/b.white"},
                    ]
                }
            )
        )
        entries = read_manifest(manifest)
        assert entries[0]["path"] == str(tmp_path / "g" / "a.edges")
        assert entries[0]["white_path"] is None
        assert entries[1]["white_path"] == str(tmp_path / "g" / "b.white")

    @pytest.mark.parametrize(
        "item",
        [
            {"group": "g", "path": "g/b.edges", "white": ""},
            {"group": "g", "path": "", "white": None},
        ],
        ids=["empty-white", "empty-path"],
    )
    def test_empty_path_or_white_is_refused(self, tmp_path, item):
        # An empty 'white' once ran the file as all black, like null.
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {"files": [{"group": "g", "path": "g/a.edges", "white": None}, item]}
            )
        )
        with pytest.raises(DataError) as exc:
            read_manifest(manifest)
        assert exc.value.path == str(manifest)
        assert "files[1]" in str(exc.value)

    def test_empty_manifest(self, tmp_path):
        # An empty file list; a manifest with no 'files' key is refused.
        manifest = tmp_path / "manifest.json"
        manifest.write_text('{"files": []}')
        assert read_manifest(manifest) == []


class TestWriteDataset:
    def test_groups_read_back_in_order(self, tmp_path):
        graphs = {"a": [path_graph(3), cycle_graph(4)], "b": [path_graph(5)]}
        manifest = write_dataset(
            tmp_path, graphs.items(), {"master_seed": 7, "note": "x"}
        )
        assert list(json.loads(manifest.read_text())) == [
            "master_seed", "note", "groups", "files"
        ]
        entries = read_manifest(manifest)
        assert [(e["group"], e["dataset"], e["white_path"]) for e in entries] == [
            ("a", "a/inst_000.edges", None),
            ("a", "a/inst_001.edges", None),
            ("b", "b/inst_000.edges", None),
        ]
        written = [g for group in graphs.values() for g in group]
        for entry, g in zip(entries, written):
            assert load_graph(entry["path"]).edges() == g.edges()

    @pytest.mark.parametrize(
        "graph", [colored([(0, 1)], isolated=[2])], ids=["isolated"]
    )
    def test_a_vertex_the_edge_list_would_lose_raises(self, tmp_path, graph):
        with pytest.raises(ValueError, match="a/inst_000.edges"):
            write_dataset(tmp_path, [("a", [graph])], {})

    def test_whites_round_trip_through_sidecars(self, tmp_path):
        graphs = [wheel_with_pendants(6), path_graph(5, white=[1, 3]), path_graph(4)]
        entries = read_manifest(write_dataset(tmp_path, [("a", graphs)], {}))
        assert [e["white_path"] is not None for e in entries] == [True, True, False]
        for entry, g in zip(entries, graphs):
            back = load_graph(entry["path"], entry["white_path"])
            assert back.adj == g.adj and back.black == g.black
        configs = [c.name for c in ALL_CONFIGS]
        result = run_bench(entries, configs)
        assert list(result.rows) == bench_rows_per_run(entries, configs)
        # Rewriting the group all black removes the now stale sidecars.
        write_dataset(tmp_path, [("a", [path_graph(3), path_graph(4)])], {})
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [
            "inst_000.edges", "inst_001.edges"
        ]


class TestRunBench:
    def test_empty_run_gives_header_only_csv(self, tmp_path):
        result = run_bench([], CONFIGS)
        assert result.rows == ()
        assert result.means == ()
        out = tmp_path / "out.csv"
        write_csv(out, result)
        assert out.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_rows_are_dataset_major_in_config_order(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        result = run_bench(entries, CONFIGS)
        key = [(r["dataset"], r["config"]) for r in result.rows]
        assert key == [
            (e["dataset"], name) for e in entries for name in CONFIGS
        ]
        assert all(r["kind"] == "instance" for r in result.rows)

    def test_fractions_recompute_from_the_counts(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        result = run_bench(entries, CONFIGS)
        for r in result.rows:
            assert (
                r["remaining_vertex_fraction"]
                == r["final_vertices"] / r["initial_vertices"]
            )
            assert (
                r["remaining_edge_fraction"]
                == r["final_edges"] / r["initial_edges"]
            )

    def test_mean_rows_follow_group_then_config_order(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        result = run_bench(entries, CONFIGS)
        key = [(m["group"], m["config"]) for m in result.means]
        assert key == [
            ("20x40", "off.none"),
            ("20x40", "on.both"),
            ("24x30", "off.none"),
            ("24x30", "on.both"),
        ]
        for m in result.means:
            sub = [
                r
                for r in result.rows
                if r["group"] == m["group"] and r["config"] == m["config"]
            ]
            assert m["kind"] == "group-mean"
            assert m["dataset"] == ""
            assert m["initial_vertices"] == ""
            assert (
                m["remaining_vertex_fraction"]
                == sum(r["remaining_vertex_fraction"] for r in sub) / len(sub)
            )
            assert m["fully_solved"] == sum(r["fully_solved"] for r in sub) / len(
                sub
            )

    def test_interleaved_groups_keep_first_appearance_order(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        entries = [entries[0], entries[2], entries[1]]  # 20x40, 24x30, 20x40
        result = run_bench(entries, ["on.both", "off.none"])
        key = [(m["group"], m["config"]) for m in result.means]
        assert key == [
            ("20x40", "on.both"),
            ("20x40", "off.none"),
            ("24x30", "on.both"),
            ("24x30", "off.none"),
        ]
        for m in result.means:
            sub = [
                r["remaining_edge_fraction"]
                for r in result.rows
                if r["group"] == m["group"] and r["config"] == m["config"]
            ]
            assert len(sub) == (2 if m["group"] == "20x40" else 1)
            assert m["remaining_edge_fraction"] == sum(sub) / len(sub)

    def test_missing_file_aborts_naming_it(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        entries.insert(1, missing_entry(tmp_path))
        with pytest.raises(DataError) as exc:
            run_bench(entries, CONFIGS)
        assert "gone.edges" in str(exc.value)

    def test_a_failing_first_file_stops_a_serial_run(self, tmp_path, monkeypatch):
        entries = [missing_entry(tmp_path)] + tiny_dataset(tmp_path)
        loads = counting(monkeypatch, "load_graph")
        calls = counting(monkeypatch, "kernelize")
        with pytest.raises(DataError) as exc:
            run_bench(entries, CONFIGS, workers=1)
        assert exc.value.path == entries[0]["path"]
        assert len(loads) == 1
        assert calls == []

    def test_a_pool_names_the_first_failing_file_in_manifest_order(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        entries.insert(1, missing_entry(tmp_path, "gone1.edges"))
        entries.insert(4, missing_entry(tmp_path, "gone4.edges"))
        with pytest.raises(DataError) as exc:
            run_bench(entries, CONFIGS, workers=2)
        assert exc.value.path == entries[1]["path"]
        again = pickle.loads(pickle.dumps(exc.value))
        assert type(again) is DataError
        assert (again.path, str(again)) == (exc.value.path, str(exc.value))

    @pytest.mark.parametrize("files", [4, 0])
    def test_an_unknown_config_name_raises_before_any_load(
        self, tmp_path, monkeypatch, files
    ):
        entries = tiny_dataset(tmp_path)[:files]
        loads = counting(monkeypatch, "load_graph")
        with pytest.raises(ValueError, match="'off.bogus'"):
            run_bench(entries, ["off.bogus"])
        assert loads == []

    def test_malformed_file_aborts(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("0 1\n1 2 3\n")
        entries = [
            {
                "group": "g",
                "dataset": "bad.edges",
                "path": str(bad),
                "white_path": None,
            }
        ]
        with pytest.raises(DataError) as exc:
            run_bench(entries, ["off.none"])
        assert "bad.edges" in str(exc.value)


class TestSharedTier1:
    """run_bench loads each file once and continues every configuration
    from its prefix's kernel; the rows equal those of a separate load and
    run per (file, configuration)."""

    @pytest.mark.parametrize(
        "configs, workers",
        [
            (ALL_NAMES, 1),
            (["on.both", "off.one"], 1),
            (ALL_NAMES, 2),
            (["on.both"], 1),
            (["on.one", "off.none"], 1),
        ],
        ids=[
            "all",
            "no-off-none-out-of-order",
            "all-2-workers",
            "on-both-alone",
            "on-one-then-off-none",
        ],
    )
    def test_rows_equal_the_per_run_model(self, tmp_path, configs, workers):
        entries = tiny_dataset(tmp_path)
        result = run_bench(entries, configs, workers=workers)
        assert list(result.rows) == bench_rows_per_run(entries, configs)

    @pytest.mark.parametrize(
        "configs, closure",
        [
            (["on.both"], ["off.none", "off.one", "off.both", "on.both"]),
            (["on.one", "off.none"], ["off.none", "off.one", "on.one"]),
            (["on.none", "off.one"], ["off.none", "off.one", "on.none"]),
            (["off.none"], ["off.none"]),
        ],
        ids=["on-both", "on-one-off-none", "on-none-off-one", "off-none"],
    )
    def test_a_subset_runs_its_prefix_closure_in_order(
        self, tmp_path, monkeypatch, configs, closure
    ):
        entries = tiny_dataset(tmp_path)[:2]
        called = []
        real_kernelize = bench.kernelize

        def recording_kernelize(inst, config, *args):
            called.append(config.name)
            return real_kernelize(inst, config, *args)

        monkeypatch.setattr(bench, "kernelize", recording_kernelize)
        result = run_bench(entries, configs)
        assert called == closure * len(entries)
        assert [r["config"] for r in result.rows] == configs * len(entries)

    def test_call_sequence(self, tmp_path, monkeypatch):
        # What a caller wrapping bench.load_graph and bench.kernelize may
        # rely on: one load per file, then one kernelize call per
        # (file, configuration) in order, the first on the loaded instance,
        # and no call's graph is changed by a later one.
        entries = tiny_dataset(tmp_path)
        full = [load_graph(e["path"]).vertex_count for e in entries]
        loads, calls, tier1_sizes = [], [], []
        real_load, real_kernelize = bench.load_graph, bench.kernelize
        real_tier1 = engine.apply_simple_exhaustively

        def counting_load(*args):
            loads.append(args[0])
            return real_load(*args)

        def capturing_kernelize(inst, *args):
            report = real_kernelize(inst, *args)
            calls.append((report, inst.graph))
            return report

        def sizing_tier1(inst, **kwargs):
            tier1_sizes.append((len(loads) - 1, inst.graph.vertex_count))
            return real_tier1(inst, **kwargs)

        monkeypatch.setattr(bench, "load_graph", counting_load)
        monkeypatch.setattr(bench, "kernelize", capturing_kernelize)
        monkeypatch.setattr(engine, "apply_simple_exhaustively", sizing_tier1)
        result = run_bench(entries, ALL_NAMES)
        assert loads == [e["path"] for e in entries]
        assert [r.config for r, _ in calls] == ALL_NAMES * len(entries)
        for i, n in enumerate(full):
            sizes = [size for file, size in tier1_sizes if file == i]
            assert sizes[0] == n
            assert sizes.count(n) == 1
        for (report, graph), row in zip(calls, result.rows):
            assert report.config == row["config"]
            assert graph.vertex_count == report.final_vertices
            assert graph.edge_count == report.final_edges

    @pytest.mark.parametrize(
        "files, workers, started", [(2, 64, 2), (3, 2, 2), (1, 8, None)]
    )
    def test_pool_size_is_capped_by_the_file_count(
        self, tmp_path, monkeypatch, files, workers, started
    ):
        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        entries = tiny_dataset(tmp_path)[:files]
        result = run_bench(entries, CONFIGS, workers=workers)
        assert len(result.rows) == files * len(CONFIGS)
        assert sizes == ([] if started is None else [started])


class TestDeterminism:
    def test_reruns_are_byte_identical(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(first, run_bench(entries, CONFIGS))
        write_csv(second, run_bench(entries, CONFIGS))
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_the_bytes(self, tmp_path):
        entries = tiny_dataset(tmp_path)
        serial = tmp_path / "serial.csv"
        pooled = tmp_path / "pooled.csv"
        write_csv(serial, run_bench(entries, CONFIGS, workers=1))
        write_csv(pooled, run_bench(entries, CONFIGS, workers=2))
        assert serial.read_bytes() == pooled.read_bytes()

    def test_csv_formatting(self, tmp_path):
        entries = tiny_dataset(tmp_path)[:1]
        out = tmp_path / "out.csv"
        write_csv(out, run_bench(entries, ["off.none"]))
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        cells = lines[1].split(",")
        assert cells[CSV_COLUMNS.index("fully_solved")] in ("true", "false")
        fraction = cells[CSV_COLUMNS.index("remaining_vertex_fraction")]
        assert float(fraction) == float(repr(float(fraction)))


class TestAggregateMeans:
    def test_means_add_left_to_right_on_every_python(self):
        # Ten additions of 0.1 from the left give 0.9999999999999999;
        # sum() on Python 3.12 and later would give 1.0, and the mean 0.1.
        rows = [
            {"group": "g", "config": "off.none", "fully_solved": i < 3,
             "remaining_vertex_fraction": 0.1, "remaining_edge_fraction": 0.1}
            for i in range(10)
        ]
        (mean,) = aggregate_means(rows, ["off.none"])
        assert mean["remaining_vertex_fraction"] == 0.09999999999999999
        assert mean["remaining_edge_fraction"] == 0.09999999999999999
        assert mean["fully_solved"] == 0.3


class TestWorseThanBaselineNotes:
    def _row(self, config, vfrac, efrac):
        return {
            "kind": "instance",
            "group": "g",
            "dataset": "a.edges",
            "config": config,
            "fully_solved": False,
            "remaining_vertex_fraction": vfrac,
            "remaining_edge_fraction": efrac,
        }

    def test_silent_when_sparsity_never_hurts(self):
        rows = [self._row("off.both", 0.2, 0.1), self._row("on.both", 0.2, 0.1)]
        assert worse_than_baseline_notes(rows) == []

    def test_flags_a_strictly_worse_run(self):
        rows = [self._row("off.both", 0.1, 0.05), self._row("on.both", 0.2, 0.05)]
        notes = worse_than_baseline_notes(rows)
        assert notes == [
            "g/a.edges: on.both kept vertex fraction 0.200000 "
            "> 0.100000 under off.both"
        ]

    def test_both_metrics_can_fire(self):
        rows = [self._row("off.one", 0.1, 0.05), self._row("on.one", 0.2, 0.06)]
        assert len(worse_than_baseline_notes(rows)) == 2

    def test_unpaired_rows_ignored(self):
        rows = [self._row("on.both", 0.9, 0.9)]
        assert worse_than_baseline_notes(rows) == []
        # the sibling must run the same alber mode
        rows = [self._row("off.one", 0.1, 0.1), self._row("on.both", 0.9, 0.9)]
        assert worse_than_baseline_notes(rows) == []
