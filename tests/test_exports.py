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
    import toroidal.reports
    import toroidal.towers

    tree = ast.parse(Path(toroidal.reports.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "towers"
        for alias in node.names
    ]
    assert imported
    assert [name for name in imported if name not in toroidal.towers.__all__] == []
