"""The package and the scripts import nothing outside the standard
library."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "domkernel").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert any(p.name == "engine.py" for p in SOURCES)
    assert any(p.name == "run_bench.py" for p in SCRIPTS)


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda p: p.name)
def test_only_stdlib_and_package_imports(path):
    outside = {
        name
        for name in absolute_imports(path)
        if name != "domkernel" and name not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"
