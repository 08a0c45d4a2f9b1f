import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import freecalc

# __main__ is skipped: importing it runs the command line
_MODULES = [freecalc] + [
    importlib.import_module(f"freecalc.{info.name}")
    for info in pkgutil.iter_modules(freecalc.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize(
    "module",
    [m for m in _MODULES if hasattr(m, "__all__")],
    ids=lambda m: m.__name__,
)
def test_exported_names_resolve_without_duplicates(module):
    names = module.__all__
    assert len(names) == len(set(names)), "duplicate names in __all__"
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_surface_is_the_module_lists():
    # each module's __all__ declares its share; the package adds only its version
    shares = [freecalc.errors, freecalc.freepoly, freecalc.funcalc,
              freecalc.matrix_core, freecalc.realization, freecalc.spectral]
    assert freecalc.__all__ == [n for m in shares for n in m.__all__] + ["__version__"]
    assert len(freecalc.__all__) <= 53
    for module in shares:
        assert all(getattr(freecalc, n) is getattr(module, n) for n in module.__all__)


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random on first touch; a command that samples nothing
    # (calc, eval, validate) should not pay its import time and memory
    src = os.path.dirname(os.path.dirname(freecalc.__file__))
    code = "import sys, freecalc.cli; print('numpy.random' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True)
    assert res.stdout.strip() == "False"


def _referenced_names(path: Path) -> set[str]:
    """Every name read or bound as an ``ast.Name`` or ``ast.Attribute`` in a file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_is_reached():
    # an export earns its place when a module of the package or the
    # acceptance gate uses it; one that only its own tests call is dead weight
    package = Path(freecalc.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources.append(Path(__file__).parent / "test_acceptance.py")
    reached = set().union(*map(_referenced_names, sources))
    assert [n for n in freecalc.__all__ if n != "__version__" and n not in reached] == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(Path(freecalc.__file__).parent.glob("*.py")) if p.name != "__init__.py"],
    ids=lambda p: p.name,
)
def test_modules_use_every_import(path):
    # __init__ is exempt: its imports are the re-exports
    assert _unused_imports(path) == []


def _perfbench_spans() -> dict[str, tuple]:
    """FUNCTION_SPANS and METHOD_SPANS as written in perfbench/run.py, read without importing it."""
    tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "run.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTION_SPANS", "METHOD_SPANS")
    }


def test_benchmark_span_targets_exist():
    # The benchmark's --trace 1 run rebinds these names, methods through the class
    # __dict__; a renamed or inherited target would only fail there.
    spans = _perfbench_spans()
    assert spans["FUNCTION_SPANS"] and spans["METHOD_SPANS"]
    for module, attr in spans["FUNCTION_SPANS"]:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    for module, cls, method in spans["METHOD_SPANS"]:
        assert method in vars(getattr(importlib.import_module(module), cls)), f"{cls}.{method}"
