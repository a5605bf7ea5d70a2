"""flagcalc is stdlib-only: every import in the package is relative or names a standard module."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagcalc"


def _absolute_imports(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    outside = [
        (path.name, name)
        for path in sources
        for name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside, outside
