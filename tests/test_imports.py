"""The package and the scripts import nothing outside the standard
library; they and the tests import nothing they never use; the package
root binds no name; every package name the benchmark uses exists; every
package function and class is used outside the tests; colour is written
only through `ColoredGraph.black`; the tier layer's run state has no
defaults."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "domkernel").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def unused_imports(path):
    """Names a module imports but never references.  `__future__` imports
    are exempt."""
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
    return sorted(imported - used)


def test_sources_found():
    assert any(p.name == "engine.py" for p in SOURCES)
    assert any(p.name == "run_bench.py" for p in SCRIPTS)
    assert any(p.name == "helpers.py" for p in TESTS)


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda p: p.name)
def test_only_stdlib_and_package_imports(path):
    outside = {
        name
        for name in absolute_imports(path)
        if name != "domkernel" and name not in sys.stdlib_module_names
    }
    assert not outside, f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", SOURCES + SCRIPTS + TESTS, ids=lambda p: p.name)
def test_every_import_is_used(path):
    unused = unused_imports(path)
    assert not unused, f"{path.name} imports {unused} but never uses them"


COLOUR_API = {"set_color", "BLACK", "WHITE"}


def names_used(node):
    """The names node uses as a name, an attribute or an import; docstrings
    and comments do not count."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name)
    return found


def colour_api_names(path):
    """The string colour API names path uses as a name, an attribute or
    an import."""
    return names_used(ast.parse(path.read_text(), filename=str(path))) & COLOUR_API


COLOUR_EXEMPT = ("graph.py", "test_graph.py")


@pytest.mark.parametrize(
    "path",
    [p for p in SOURCES + SCRIPTS + TESTS if p.name not in COLOUR_EXEMPT],
    ids=lambda p: p.name,
)
def test_colour_is_written_through_black(path):
    """Outside graph.py and its unit tests, nothing uses the string colour
    API; its one remaining caller is perfbench's bw-small set-up."""
    used = colour_api_names(path)
    assert not used, f"{path.name} uses {sorted(used)}"


def test_every_package_definition_is_used_by_the_program():
    """Every module-level function and class of the package is named in
    src/, scripts/ or perfbench/ outside its own definition, so that no
    second code path lives on for the tests alone."""
    bodies = {path: ast.parse(path.read_text(), filename=str(path)).body
              for path in SOURCES + SCRIPTS + BENCHMARK}
    used = {(path, i): names_used(stmt)
            for path, body in bodies.items() for i, stmt in enumerate(body)}
    unused = [
        f"{path.stem}.{stmt.name}"
        for path in SOURCES
        for i, stmt in enumerate(bodies[path])
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(stmt.name in names
                    for where, names in used.items() if where != (path, i))
    ]
    assert not unused, f"only the tests use {unused}"


def test_package_root_binds_no_name():
    """Every name has one import path, `domkernel.<module>`: the package
    root neither imports nor assigns."""
    init = ROOT / "src" / "domkernel" / "__init__.py"
    bound = [
        ast.unparse(node)
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        or isinstance(getattr(node, "ctx", None), ast.Store)
    ]
    assert not bound, f"__init__.py binds {bound}"


def package_names_used(path):
    """(module, attribute path) for every `from domkernel.X import name`,
    and for every attribute read on a name bound by `import domkernel.X as
    Y` or by `from domkernel.X import name`, such as `Instance.from_graph`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("domkernel.") and alias.asname:
                    bound[alias.asname] = (alias.name, ())
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            "domkernel."
        ):
            for alias in node.names:
                yield node.module, (alias.name,)
                bound[alias.asname or alias.name] = (node.module, (alias.name,))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in bound
        ):
            module, prefix = bound[node.value.id]
            yield module, prefix + (node.attr,)


def resolves(module, names):
    obj = importlib.import_module(module)
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_package_name_the_benchmark_uses_exists():
    import domkernel

    src = (ROOT / "src" / "domkernel").resolve()
    assert Path(domkernel.__file__).resolve().parent == src
    used = {pair for path in BENCHMARK for pair in package_names_used(path)}
    assert ("domkernel.engine", ("apply_simple_exhaustively",)) in used
    assert ("domkernel.graph", ("Instance", "from_graph")) in used
    missing = sorted(
        ".".join((module,) + names)
        for module, names in used
        if not resolves(module, names)
    )
    assert not missing, f"perfbench uses {missing}, which src/ does not define"


RUN_STATE = ("touched", "removed", "log")


def test_the_tier_layer_has_no_default_run_state():
    """Every tier of every configuration, and the tier-4 steps below
    `sparsity_reduce`, take the run's log (and the vertices masked out)
    from their caller: a default would be a second, log-less path that
    only the tests take."""
    from domkernel.engine import ALL_CONFIGS
    from domkernel.graph import is_1_scattered
    from domkernel.sparsity import group_and_reduce, uqw_scatter

    functions = {tier for config in ALL_CONFIGS for tier in config.tiers}
    assert len(functions) == 4
    functions |= {uqw_scatter, is_1_scattered, group_and_reduce}
    defaults = sorted(
        f"{function.__name__}({name})"
        for function in functions
        for name, parameter in inspect.signature(function).parameters.items()
        if name in RUN_STATE and parameter.default is not parameter.empty
    )
    assert not defaults, f"{defaults} have defaults"
