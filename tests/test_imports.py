"""The package and the scripts import nothing outside the standard
library, and nothing they never use."""

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


def unused_imports(path):
    """Names a module imports but never references.  `__future__` imports
    are exempt, and so are the re-exports an `__init__.py` lists in
    `__all__`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (
            path.name == "__init__.py"
            and isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


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


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name} imports {unused} but never uses them"
