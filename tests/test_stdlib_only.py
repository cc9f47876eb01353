"""The package stays pure stdlib: every module imports only the standard
library or, relatively, its own modules.  And the exhaustive search stays
apart from the construction it checks."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "listpacking"
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


def test_search_imports_only_coloring_and_graphs_from_the_package():
    # The exhaustive oracles certify the construction, so they must not
    # come to depend on it: no packing, galvin, formats or cli.
    path = PACKAGE / "search.py"
    own = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            own.add(node.module or ".".join(alias.name for alias in node.names))
    assert own == {"coloring", "graphs"}
