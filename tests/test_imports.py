"""Static checks: no module of the package imports a name it never uses,
and no private module-level name goes unread.

There is no linter in the test environment, so these are small ``ast``
scans.  ``__init__.py`` re-exports names by importing them and is skipped
by the import scan, as is ``from __future__ import annotations``.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "compalg")
MODULES = sorted(name for name in os.listdir(SRC)
                 if name.endswith(".py") and name != "__init__.py")


def _read(module: str) -> str:
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return fh.read()


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


def dead_private_names(sources: dict) -> list:
    """The private module-level names (functions, classes and assigned
    names starting with ``_``, dunders excepted) of the modules in sources
    that no module reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [(module, node.lineno, name) for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports(_read(module)) == []


def test_no_dead_private_names():
    modules = MODULES + ["__init__.py"]
    assert dead_private_names({module: _read(module) for module in modules}) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport math, os.path\n"
              "from typing import Dict, List\nx: Dict = math.pi\n")
    assert unused_imports(source) == [(2, "os"), (3, "List")]


def test_the_scan_finds_a_dead_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n__version__ = '1'\ndef _used():\n    return _LIMIT\n"
                "def _dead():\n    pass\nclass _Gone:\n    pass\n",
        "b.py": "from . import a\n_x: int = 0\nvalue = a._used()\n",
    }
    assert dead_private_names(sources) == [("a.py", 5, "_dead"), ("a.py", 7, "_Gone"),
                                           ("b.py", 2, "_x")]
