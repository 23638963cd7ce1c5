"""No module of the package or the tests imports a name it never uses,
no private module-level name of the package goes unreferenced, and
every name a package module exports in ``__all__`` exists on it."""

import ast
import importlib
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted(
    path
    for folder in (ROOT / "src" / "nfcap", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)
PACKAGE = sorted((ROOT / "src" / "nfcap").glob("*.py"))
READERS = sorted(
    path
    for folder in ("src", "tests", "perfbench", "benchmarks")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of ``source`` that no name
    expression in it reads; ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_unused_names():
    source = "import os, sys\nimport a.b\nfrom x import y as z, w\nprint(sys, a, w)\n"
    assert unused_imports(source) == ["os", "z"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_definitions(source: str) -> list[str]:
    """Private names (``_x``, not dunder) that a module-level def, class
    or assignment of ``source`` binds."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def references(source: str) -> set[str]:
    """Every name that ``source`` reads, reaches as an attribute, imports
    or spells out as a whole string (as ``getattr`` and tracers do)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def dead_definitions(definers: list[str], readers: list[str]) -> list[str]:
    "Private names defined in ``definers`` that no source in ``readers`` references."
    used = set().union(*map(references, readers))
    return [n for src in definers for n in private_definitions(src) if n not in used]


def test_dead_definition_scan_finds_unreferenced_private_names():
    module = (
        "_USED = 1\n_DEAD: int = 2\n__dunder__ = 3\npublic = _USED\n"
        "def _helper(): pass\ndef _orphan(): pass\nclass _Gone: pass\n"
        "def _self_named(): _self_named = 1\n"
    )
    reader = "from m import _helper\nsetattr(m, '_Traced', f)\nm._attr\n"
    found = dead_definitions([module, "_Traced = 0\n_attr = 0\n"], [module, reader])
    assert found == ["_DEAD", "_orphan", "_Gone", "_self_named"]


def test_no_dead_private_definitions():
    package = [path.read_text(encoding="utf-8") for path in PACKAGE]
    readers = [path.read_text(encoding="utf-8") for path in READERS]
    assert dead_definitions(package, readers) == []


def stale_exports(module: types.ModuleType) -> list[str]:
    "Names in ``module.__all__`` that are not attributes of ``module``."
    return [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]


def test_stale_export_scan_finds_missing_names():
    module = types.ModuleType("m")
    module.kept = 1
    module.__all__ = ["kept", "gone"]
    assert stale_exports(module) == ["gone"]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    name = "nfcap" if path.stem == "__init__" else f"nfcap.{path.stem}"
    assert stale_exports(importlib.import_module(name)) == []
