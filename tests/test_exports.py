import importlib
import pkgutil

import pytest

import toroidal

MODULES = [m.name for m in pkgutil.iter_modules(toroidal.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"toroidal.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
