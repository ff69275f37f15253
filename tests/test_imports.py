"""Static check: no module of the package imports a name it never uses.

There is no linter in the test environment, so this is a small ``ast``
scan.  ``__init__.py`` re-exports names by importing them and is skipped,
as is ``from __future__ import annotations``.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "compalg")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by the imports of source and never read in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from typing import Dict, List\nx: Dict = math.pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "List")]
