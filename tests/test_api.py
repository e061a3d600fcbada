"""The library is what runs: every exported name, and every public method and
property of an exported class, has a caller in the library or a demo, and no
library module imports a name it does not use."""

import ast
import inspect
import types
from pathlib import Path

import mddsim

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mddsim"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _references(path: Path) -> set[str]:
    """Names and attributes a file reads, except inside the top-level
    function or class of the same name (its own definition)."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                found.add(name)
    return found


def test_every_export_is_reached_from_the_library_or_a_demo():
    exported = [name for name in mddsim.__all__
                if not isinstance(getattr(mddsim, name), types.ModuleType)]
    used = set().union(*map(_references, MODULES + DEMOS))
    assert [name for name in exported if name not in used] == []


def test_every_public_method_is_reached_from_the_library_or_a_demo():
    used = set().union(*map(_references, MODULES + DEMOS))
    classes = [(name, value) for name, value in vars(mddsim).items()
               if name in mddsim.__all__ and inspect.isclass(value)]
    members = [f"{name}.{attr}" for name, cls in classes for attr, value in vars(cls).items()
               if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(
                   value, (property, classmethod, staticmethod)))]
    assert [member for member in members if member.split(".")[1] not in used] == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}" for name, line in imported.items()
            if name not in loaded]


def test_no_module_level_import_is_unused():
    assert [entry for path in MODULES for entry in _unused_imports(path)] == []
