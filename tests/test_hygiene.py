"""Source hygiene of the package, checked with the standard library's ast
module: no module imports a name it never uses, and every name in
__all__ resolves."""

import ast
from pathlib import Path

import pytest

import slidechrom

PACKAGE = Path(slidechrom.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_all_names_resolve():
    # the package root is the only module with an __all__
    missing = [n for n in slidechrom.__all__ if not hasattr(slidechrom, n)]
    assert not missing, f"slidechrom.__all__ names missing attributes: {missing}"
