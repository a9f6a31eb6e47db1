import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import toroidal

MODULES = [m.name for m in pkgutil.iter_modules(toroidal.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"toroidal.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_reports_imports_only_public_tower_names():
    # Each ``from .m import ...`` in these modules names only members of ``m.__all__``.
    for name in ["towers", "reports", "catalog", "cli"]:
        module = importlib.import_module(f"toroidal.{name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        imported = [
            (node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names
        ]
        assert imported, name
        private = [
            (source, attr)
            for source, attr in imported
            if attr not in importlib.import_module(f"toroidal.{source}").__all__
        ]
        assert private == [], name
