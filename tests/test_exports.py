import ast
import importlib
import pkgutil
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
