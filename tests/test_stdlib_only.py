"""The package stays pure stdlib: every module imports only the standard
library or, relatively, its own modules.  The exhaustive search stays
apart from the construction it checks.  No module checks an invariant with
`assert`, which python -O strips.  And every function the benchmark's tracer
wraps is still there to wrap."""

from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "listpacking"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_the_package_modules_are_found():
    assert PACKAGE / "__init__.py" in MODULES and PACKAGE / "search.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library_or_relatively(path):
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        outside += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"{path.name} imports {outside}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_assert_statement(path):
    # An internal check must raise under python -O too: RuntimeError, not assert.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts on lines {lines}"


def test_search_imports_only_coloring_and_graphs_from_the_package():
    # The exhaustive oracles certify the construction, so they must not
    # come to depend on it: no packing, galvin, formats or cli.
    path = PACKAGE / "search.py"
    own = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            own.add(node.module or ".".join(alias.name for alias in node.names))
    assert own == {"coloring", "graphs"}


def test_every_function_the_benchmark_tracer_wraps_exists():
    # bench/tracing.py replaces (module, attr) pairs on listpacking's modules;
    # a renamed or removed function would only surface in a traced run.  Read
    # its two tables from the source, without importing or writing anything.
    path = ROOT / "bench" / "tracing.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPANS", "GENERATOR_SPANS")
    }
    assert tables.keys() == {"SPANS", "GENERATOR_SPANS"}
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in tables["SPANS"] + tables["GENERATOR_SPANS"]
        if not callable(getattr(importlib.import_module(f"listpacking.{module}"), attr, None))
    ]
    assert not missing, f"bench/tracing.py wraps missing functions {missing}"


def test_every_private_module_level_name_is_used_by_the_package():
    # A private function or class that only the tests reach belongs in the
    # tests: each one defined at a module's top level must be named by
    # package code outside its own definition.  Dunders are exempt.
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    private, used = set(), set()
    for path in MODULES:
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            own = top.name if isinstance(top, definitions) else None
            if own and own.startswith("_") and not own.endswith("__"):
                private.add(f"{path.name}:{own}")
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    unused = sorted(entry for entry in private if entry.split(":")[1] not in used)
    assert private and not unused, f"private names no package code uses: {unused}"
