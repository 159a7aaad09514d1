import importlib
import pkgutil

import pytest

import cvqubits

MODULES = ["cvqubits"] + [
    f"cvqubits.{info.name}"
    for info in pkgutil.iter_modules(cvqubits.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate entries in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []

