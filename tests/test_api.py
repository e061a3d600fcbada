"""The library is what runs: every exported name, and every public method and
property of an exported class, has a caller in the library or a demo, no
library module imports a name it does not use, the number of values a
caller can set is pinned, and so are the signatures the CLI dispatches to."""

import ast
import inspect
import types
from pathlib import Path

import mddsim
from mddsim.experiments import _RUNNERS, VERIFY_SUITES

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


# parameter defaults (18), defaulted dataclass fields that __init__ takes (3) and
# ExperimentConfig fields (20): a new knob changes this number in plain sight
SETTABLE_VALUES = 41


def _is_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def _init_takes(value) -> bool:
    return not (isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords))


def test_settable_value_count_is_pinned():
    count = 0
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                count += len(fields) if node.name == "ExperimentConfig" else sum(
                    s.value is not None and _init_takes(s.value) for s in fields)
    assert count == SETTABLE_VALUES


def _signature(fn) -> list[tuple[str, object]]:
    return [(name, param.default) for name, param in inspect.signature(fn).parameters.items()]


def test_dispatch_signatures_are_pinned():
    # each value lives in ExperimentConfig or the CLI's argparse, so what the CLI
    # dispatches to takes every argument without a default
    assert {name: _signature(suite) for name, suite in VERIFY_SUITES.items()} == {
        name: [("seed", inspect.Parameter.empty)] for name in VERIFY_SUITES}
    assert {name: _signature(runner) for name, runner in _RUNNERS.items()} == {
        name: [(arg, inspect.Parameter.empty) for arg in ("config", "out_dir", "jobs")]
        for name in _RUNNERS}
