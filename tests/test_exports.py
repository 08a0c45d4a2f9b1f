import importlib
import pkgutil

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
