"""The scale ladder script prints one JSON line per (rung, configuration)
run, its tier numbers taken at the names `engine` looks up, each tier's
first call apart, the rung's generation, write and load times, and the
collections during generation and write."""

import gc
import importlib.util
import io
import json
from pathlib import Path

import domkernel.engine as engine
from domkernel.engine import ApproachConfig, kernelize
from domkernel.graph import Instance
from domkernel.plangen import GroupSpec, generate_instance
from domkernel.simple_rules import STAT_NAMES

SCRIPT = Path(__file__).parent.parent / "scripts" / "ladder.py"
spec = importlib.util.spec_from_file_location("ladder", SCRIPT)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)


def test_the_rungs_are_the_ladder():
    assert [r.name for r in ladder.RUNGS] == [
        "16016x48000", "32032x96000", "64064x192000", "128128x384000"]


def test_a_small_rung_prints_one_line_per_run():
    rung = GroupSpec(2002, 6000, 1)
    tiers = {name: getattr(engine, name) for name in ladder.TIERS}
    out = io.StringIO()
    assert ladder.main((rung,), out) == 0
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    assert [(line["group"], line["config"]) for line in lines] == [
        ("2002x6000", "off.none"), ("2002x6000", "on.both")]
    for line in lines:
        report = kernelize(Instance.from_graph(generate_instance(rung, 0, 0)),
                           ApproachConfig.from_name(line["config"]))
        assert line["vertices"] == 2002
        assert line["generate_s"] >= 0
        assert line["load_s"] >= 0
        assert line["write_s"] >= 0
        # Counts differ across Python versions, so only their form is checked.
        assert len(line["generate_gc"]) == len(gc.get_stats())
        assert all(type(n) is int and n >= 0 for n in line["generate_gc"])
        assert line["pair_firings"] == report.rule_applications["alber_pair"]
        # attempts counts one per tier call plus tier 1's firings.
        calls = sum(t["calls"] for t in line["tiers"].values())
        tier1_firings = sum(report.rule_applications[k] for k in STAT_NAMES)
        assert calls == report.attempts - tier1_firings
        assert sum(t["cpu_s"] for t in line["tiers"].values()) <= line["cpu_s"] + 1e-3
        for t in line["tiers"].values():
            assert 0 <= t["first_cpu_s"] <= t["cpu_s"]
    assert set(lines[0]["tiers"]) == {"apply_simple_exhaustively"}
    # off.none calls tier 1 once; on.both calls it again after each hit.
    none, both = (line["tiers"]["apply_simple_exhaustively"] for line in lines)
    assert none["calls"] == 1 and none["first_cpu_s"] == none["cpu_s"]
    assert both["calls"] > 1
    assert set(lines[1]["tiers"]) == set(ladder.TIERS)
    assert lines[1]["pair_firings"] > 0
    # The engine's own tiers are back in place.
    assert {name: getattr(engine, name) for name in ladder.TIERS} == tiers
