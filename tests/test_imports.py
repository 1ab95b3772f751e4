"""Every module-level import of the package is used by its module.

The repository has no linter, so this parses each module of ``src/mgode``
(except ``__init__.py``, whose imports are its public re-exports) and checks
that every name bound by a module-level ``import`` or ``from ... import``
is read in that module, as a name or as the base of an attribute.
"""

import ast
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
