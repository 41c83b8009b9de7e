"""Every function the package exports has a user outside the test suite."""
from __future__ import annotations

import ast
import types
from pathlib import Path

import wondersys

ROOT = Path(__file__).resolve().parent.parent


def _referenced_names() -> set:
    """Names read, imported or looked up as attributes in `src/` (but for
    `__init__.py`), `demos/` and `perfbench/`.  A `def` is not a reference."""
    package = Path(wondersys.__file__).resolve().parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_exported_function_has_a_user():
    functions = [
        name for name in wondersys.__all__
        if isinstance(getattr(wondersys, name), types.FunctionType)
    ]
    assert "dumps" in functions and "localize" in functions
    used = _referenced_names()
    assert [name for name in functions if name not in used] == []
