"""Every name a module of the package imports is used in that module, and
every function, class and method it defines is referenced somewhere.

No lint tool is a dependency, so this walks the syntax trees itself.  An
import counts as used when its name is read anywhere in the scope (module
or function) that holds the import.  `__init__.py` is exempt: its imports
are the package's re-exports; `REEXPORTS` lists each other name a module
binds only for a reader outside it.  A definition counts as referenced when
its name is read, imported, or named in a dotted string (perfbench names
its trace targets that way) in `src/`, `tests/` or `perfbench/`, outside
the definition itself; dunder methods are exempt.

The public functions also have a fixed number of defaulted parameters,
so a new option is a visible change to a count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "arrlog"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = ("src", "tests", "perfbench")


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


# (module, name) bound only for a reader outside the package:
# perfbench/test_perfbench.py reads `arrlog.resolution.minimal_generators`
# to check that its tracer wraps by-name imports.  The entry goes when that
# assertion names another module.
REEXPORTS = {("resolution.py", "minimal_generators")}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    unused = [(line, name) for line, name in unused_imports(path.read_text()) if (path.name, name) not in REEXPORTS]
    assert unused == []


def _references(tree):
    """Counter of the names a syntax tree reads, imports or names in a dotted string."""
    docstrings = {
        id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
    }
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.split(".")[-1]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
            and re.fullmatch(r"[A-Za-z_][\w.]*", node.value)
        ):
            names.update(node.value.split("."))
    return names


def unreferenced_definitions(defining, sources):
    """(file, name) of each non-dunder def or class in `defining` that no
    tree of `sources` references outside the definition itself.

    Both arguments map a file name to its source text.
    """
    total = Counter()
    for text in sources.values():
        total += _references(ast.parse(text))
    out = []
    for fname, text in defining.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if total[node.name] <= _references(node)[node.name]:
                out.append((fname, node.name))
    return sorted(out)


def test_checker_finds_unreferenced_definitions():
    lib = (
        "class Used:\n"
        "    def method(self):\n"
        "        return self.method()\n"
        "    def traced(self):\n"
        "        return 1\n"
        "    def __repr__(self):\n"
        "        return 'Used'\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def documented():\n"
        "    \"recursive\"\n"
    )
    user = "from lib import Used, documented\nTARGET = 'Used.traced'\n"
    got = unreferenced_definitions({"lib.py": lib}, {"lib.py": lib, "user.py": user})
    assert got == [("lib.py", "method"), ("lib.py", "recursive")]


def test_no_unreferenced_definitions():
    sources = {
        str(p.relative_to(ROOT)): p.read_text() for tree in TREES for p in sorted((ROOT / tree).rglob("*.py"))
    }
    defining = {name: text for name, text in sources.items() if name.startswith("src/arrlog/")}
    assert unreferenced_definitions(defining, sources) == []


def defaulted_public_parameters(source: str):
    """(function, parameter) of each defaulted, non-underscore parameter of
    a public top-level function."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        named = positional[len(positional) - len(a.defaults):]
        named += [arg for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
        out += [(node.name, arg.arg) for arg in named if not arg.arg.startswith("_")]
    return out


def test_checker_counts_defaulted_public_parameters():
    source = (
        "def f(a, b=1, *, c, d=2, _e=3):\n"
        "    def inner(x=1):\n"
        "        return x\n"
        "def _private(a=1):\n"
        "    return a\n"
        "class C:\n"
        "    def m(self, a=1):\n"
        "        return a\n"
    )
    assert defaulted_public_parameters(source) == [("f", "b"), ("f", "d")]


def test_defaulted_public_parameter_count():
    # `cli.py` parses its own options and `__init__.py` only re-exports
    options = [
        (path.name, *option)
        for path in MODULES
        if path.name != "cli.py"
        for option in defaulted_public_parameters(path.read_text())
    ]
    assert len(options) == 61, options
