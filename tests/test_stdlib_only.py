"""The runtime depends on the standard library alone: every absolute import
in the package names a standard-library module or betaforge itself."""

import ast
import sys
from pathlib import Path

import betaforge as bf

PACKAGE = Path(bf.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 10
    foreign = [
        (path.name, name)
        for path in files
        for name in _absolute_imports(ast.parse(path.read_text(), str(path)))
        if name.split(".")[0] not in sys.stdlib_module_names | {"betaforge"}
    ]
    assert foreign == []
