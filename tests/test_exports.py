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


def _width(bound: ast.expr | None) -> str | None:
    """The fixed width a slice's upper bound states: a positive integer
    literal (``[:40]``, ``[pos:pos + 12]``) or a constant's name.  A negative
    bound (``[:-3]``) counts from the end and states none."""
    if bound is None or isinstance(bound, ast.UnaryOp):
        return None
    for node in ast.walk(bound):
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value > 0:
            return str(node.value)
        if isinstance(node, ast.Name) and node.id.lstrip("_").isupper():
            return node.id
    return None


def test_one_rule_cuts_every_value_a_message_shows():
    # A message shows a value through laurent.quoted; no f-string formats a
    # slice of its own, and the one cut width is stated in laurent alone.
    sliced, widths = [], []
    for path in sorted(Path(toroidal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FormattedValue):
                # A cut anywhere inside (``{quoted(s[:40])}``), or a formatted slice itself (``{s[i:]!r}``).
                whole = getattr(node.value, "slice", None)
                sliced += [f"{path.name}:{node.lineno}" for sub in ast.walk(node.value)
                           if isinstance(sub, ast.Slice) and (sub.upper is not None or sub is whole)]
            elif isinstance(node, ast.Slice) and _width(node.upper) is not None:
                widths.append((path.name, _width(node.upper)))
    assert sliced == []
    assert widths == [("laurent.py", "_MAX_QUOTED")]
