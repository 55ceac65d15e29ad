import importlib
import pkgutil

import pytest

import lftident

MODULES = ["lftident"] + [f"lftident.{m.name}" for m in pkgutil.iter_modules(lftident.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # A name left in __all__ after its definition is deleted breaks
    # ``from lftident.<module> import *``.
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
