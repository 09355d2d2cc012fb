"""Every name a library module imports is referenced in that module.

The package's __init__ is left out: its imports are the package's public
names, re-exported rather than used.
"""

import ast
from pathlib import Path

import pytest

import conformal_metrics

PACKAGE = Path(conformal_metrics.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    referenced = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree)
              if name not in referenced]
    assert not unused, f"{path.name} imports {unused} and never uses them"
