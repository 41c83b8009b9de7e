"""Every function the package exports, every public method and property of
an exported class, and every public function of a package module has a user
outside the test suite."""
from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import wondersys

ROOT = Path(__file__).resolve().parent.parent


def _references() -> tuple:
    """The names read or imported, and the names looked up as attributes, in
    `src/` (but for `__init__.py`), `demos/` and `perfbench/`.  A `def` is
    not a reference."""
    package = Path(wondersys.__file__).resolve().parent
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, attributes


def test_every_exported_function_has_a_user():
    functions = [
        name for name in wondersys.__all__
        if isinstance(getattr(wondersys, name), types.FunctionType)
    ]
    assert "dumps" in functions and "localize" in functions
    used = set().union(*_references())
    assert [name for name in functions if name not in used] == []


def test_every_public_method_of_an_exported_class_has_a_user():
    members = [
        f"{name}.{attr}"
        for name in wondersys.__all__
        if isinstance(cls := getattr(wondersys, name), type)
        for attr, member in vars(cls).items()
        if not attr.startswith("_")
        and isinstance(member, (types.FunctionType, property, classmethod, staticmethod))
    ]
    assert "RootSystem.induced" in members and "OrbitPoset.nodes" in members
    # A method or property is used only through an attribute: a variable of
    # the same name is not a use.
    _, used = _references()
    assert [m for m in members if m.rpartition(".")[2] not in used] == []


def test_every_public_module_function_has_a_user():
    package = Path(wondersys.__file__).resolve().parent
    functions = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"wondersys.{path.stem}")
        functions += [
            f"{path.stem}.{attr}"
            for attr, member in vars(module).items()
            if not attr.startswith("_")
            and isinstance(member, types.FunctionType)
            and member.__module__ == module.__name__
        ]
    assert "sphsys.coroot_table" in functions and "rootlat.half_text" in functions
    used = set().union(*_references())
    assert [f for f in functions if f.rpartition(".")[2] not in used] == []
