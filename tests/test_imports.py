"""Every name a module of the package imports is used in that module.

No lint tool is a dependency, so this walks the syntax trees itself.  An
import counts as used when its name is read anywhere in the scope (module
or function) that holds the import.  `__init__.py` is exempt: its imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "arrlog"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(node):
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    return [a.asname or a.name for a in node.names]


def unused_imports(source: str):
    """(line, name) of each imported name its scope never reads."""
    tree = ast.parse(source)
    out = []
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        body = list(ast.iter_child_nodes(scope))
        while body:
            node = body.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue  # a nested scope is checked on its own
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                out += [(node.lineno, name) for name in _imported_names(node) if name not in read]
            body.extend(ast.iter_child_nodes(node))
    return sorted(out)


def test_checker_finds_unused_imports():
    source = (
        "import os\n"
        "import numpy as np\n"
        "from math import comb, gcd\n"
        "def f():\n"
        "    from fractions import Fraction\n"
        "    return gcd(1, 2)\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == [(1, "os"), (3, "comb"), (5, "Fraction")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
