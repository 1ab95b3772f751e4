"""Lint checks on the package source, by parsing it.

The repository has no linter, so this parses each module of ``src/mgode``.
Every name bound by a module-level ``import`` or ``from ... import`` must be
read in its module, as a name or as the base of an attribute (except in
``__init__.py``, whose imports are its public re-exports).  And the scheme
family is read in one place outside ``tableau.py``: the tableau owns every
per-family number, and the slab solver takes its pinned/solved split from
the scheme rule, so the only comparison against a family tag left is
``stability_factor_error``'s rejection of a discontinuous dual.  No public
function or method signature annotates a ``_``-prefixed name: a caller
cannot name a private type it must pass or receive.  And ``tableau.py``
holds the only ``functools.lru_cache`` and ``functools.cache`` uses: the
per-(method, order) numbers and the Lagrange results are cached there, once.
And ``import mgode, mgode.cli`` in a fresh interpreter loads no scipy module:
the root searches are the package's own, and the matrix-exponential closed
forms import ``scipy.linalg`` only when they are called.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mgode"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scanner_sees_names_and_attribute_bases():
    source = ("from __future__ import annotations\n"
              "import math\nimport numpy as np\nimport os.path\n"
              "from typing import Callable, Sequence\n"
              "x: Callable = np.zeros(math.pi)\n")
    assert unused_imports(source) == ["os", "Sequence"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


FAMILY_NAMES = {"MCG", "MDG"}
FAMILY_TAGS = {"mcG", "mdG"}


def _names_family(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_family(e) for e in node.elts)
    if isinstance(node, ast.Name):
        return node.id in FAMILY_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in FAMILY_NAMES
    return isinstance(node, ast.Constant) and node.value in FAMILY_TAGS


def family_comparisons(source: str) -> list[tuple[str | None, str]]:
    """(enclosing function, source text) of every comparison with an
    operand that is MCG, MDG, "mcG" or "mdG", or a tuple, list or set
    holding one."""
    tree = ast.parse(source)
    owner = {}
    found = []
    for node in ast.walk(tree):      # breadth first: parents come first
        name = (node.name if isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef))
                else owner.get(node))
        for child in ast.iter_child_nodes(node):
            owner[child] = name
        if (isinstance(node, ast.Compare)
                and any(map(_names_family, [node.left, *node.comparators]))):
            found.append((owner.get(node), ast.unparse(node)))
    return found


def test_family_scanner_sees_every_form():
    source = ("def f(m, t):\n"
              "    a = m == MCG\n"
              "    b = t.method != tableau.MDG\n"
              "    c = 'mdG' == m\n"
              "    def g():\n"
              "        return m in (MCG, MDG)\n"
              "    return m in METHODS and [MCG, MDG] and m == 'mcg'\n"
              "x = m is MDG\n")
    assert family_comparisons(source) == [
        (None, "m is MDG"), ("f", "m == MCG"), ("f", "t.method != tableau.MDG"),
        ("f", "'mdG' == m"), ("g", "m in (MCG, MDG)")]


def test_family_read_in_one_place_outside_the_tableau():
    found = [(path.name, *hit) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "tableau.py"
             for hit in family_comparisons(path.read_text())]
    assert found == [("estimator.py", "stability_factor_error",
                      "m == MDG")]


def private_annotations(source: str) -> list[tuple[str, str]]:
    """(function, name) for every ``_``-prefixed name or attribute in the
    parameter and return annotations of a public module-level function or a
    public method of a public class; a string annotation is parsed."""
    found = []

    def scan(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                scan(node.body, f"{prefix}{node.name}.")
            elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_")):
                a = node.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                anns = [p.annotation for p in params if p] + [node.returns]
                for ann in filter(None, anns):
                    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                        ann = ast.parse(ann.value, mode="eval")
                    for n in ast.walk(ann):
                        name = n.id if isinstance(n, ast.Name) else getattr(n, "attr", "")
                        if name.startswith("_"):
                            found.append((prefix + node.name, name))

    scan(ast.parse(source).body, "")
    return found


def test_private_annotation_scanner_sees_every_form():
    source = ("def f(a: _A, /, b: int, *c: list[int], d: '_B | None',\n"
              "      **e: m._C) -> tuple[_D, int]: ...\n"
              "def _g(a: _A): ...\n"
              "def h(a, b=_A): ...\n"
              "class K:\n"
              "    def m(self, a: _E = None): ...\n"
              "    def _n(self, a: _E): ...\n"
              "    def __init__(self, a: _E): ...\n"
              "class _L:\n"
              "    def m(self, a: _E): ...\n"
              "def outer(x: int):\n"
              "    def inner(y: _F): ...\n")
    assert private_annotations(source) == [
        ("f", "_A"), ("f", "_B"), ("f", "_C"), ("f", "_D"), ("K.m", "_E")]


def test_public_signatures_name_no_private_type():
    found = [(path.name, *hit) for path in sorted(PACKAGE.glob("*.py"))
             for hit in private_annotations(path.read_text())]
    assert found == []


CACHE_FUNCTIONS = {"lru_cache", "cache"}


def cache_uses(source: str) -> list[tuple[int, str]]:
    """(line, source text) of every reference to ``functools.lru_cache`` or
    ``functools.cache`` -- as a decorator, a call or a value -- under any
    name an import gives it."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            names |= {a.asname or a.name for a in node.names
                      if a.name in CACHE_FUNCTIONS}
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names
                        if a.name == "functools"}
    found = [node for node in ast.walk(tree)
             if (isinstance(node, ast.Name) and node.id in names)
             or (isinstance(node, ast.Attribute) and node.attr in CACHE_FUNCTIONS
                 and isinstance(node.value, ast.Name) and node.value.id in modules)]
    return sorted((node.lineno, ast.unparse(node)) for node in found)


def test_cache_scanner_sees_every_form():
    source = ("import functools\n"
              "import functools as ft\n"
              "from functools import lru_cache, cache as memo, partial\n"
              "@functools.lru_cache(maxsize=None)\n"
              "def a(): ...\n"
              "@ft.cache\n"
              "def b(): ...\n"
              "@lru_cache\n"
              "def c(): ...\n"
              "d = memo(len)\n"
              "@partial(print)\n"
              "def e(): ...\n"
              "class K:\n"
              "    @functools.cached_property\n"
              "    def f(self): ...\n"
              "    g = other.lru_cache\n")
    assert cache_uses(source) == [
        (4, "functools.lru_cache"), (6, "ft.cache"), (8, "lru_cache"), (10, "memo")]


def test_only_the_tableau_caches():
    found = {path.name: cache_uses(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("tableau.py")
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_importing_the_package_loads_no_scipy():
    code = ("import sys\nimport mgode, mgode.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path),
                         check=True)
    assert res.stdout.strip() == "[]"
