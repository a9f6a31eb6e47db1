import ast
import importlib
import pkgutil
import re
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


def _width(bound: ast.expr | None, from_end: bool = False) -> str | None:
    """The fixed width a slice's bound states: a positive integer literal
    (``[:40]``, ``[pos:pos + 12]``) or a constant's name in its upper bound,
    or the same negated in its lower bound (``[-40:]``, the last 40).  A
    negative upper bound (``[:-3]``) drops characters and states none."""
    if bound is None or isinstance(bound, ast.UnaryOp) != from_end:
        return None
    for node in ast.walk(bound):
        if isinstance(node, ast.Constant) and type(node.value) is int and node.value > 0:
            return str(node.value)
        if isinstance(node, ast.Name) and node.id.lstrip("_").isupper():
            return node.id
    return None


def test_one_rule_cuts_every_value_a_message_shows():
    # A message shows a value through laurent.quoted; no f-string formats a
    # slice of its own or a bare repr (``{x!r}``, which neither cuts nor
    # marks), and the one cut width is stated in laurent alone, by the head
    # and the tail that a cut keeps.
    sliced, reprs, widths = [], [], []
    for path in sorted(Path(toroidal.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FormattedValue):
                if node.conversion == ord("r"):
                    reprs.append(f"{path.name}:{node.lineno}")
                # A cut anywhere inside (``{quoted(s[:40])}``), or a formatted slice itself (``{s[i:]!r}``).
                whole = getattr(node.value, "slice", None)
                sliced += [f"{path.name}:{node.lineno}" for sub in ast.walk(node.value)
                           if isinstance(sub, ast.Slice) and (sub.upper is not None or sub is whole)]
            elif isinstance(node, ast.Slice):
                widths += [(path.name, w) for w in (_width(node.upper), _width(node.lower, True)) if w]
    assert sliced == []
    assert reprs == []
    assert widths == [("laurent.py", "_MAX_QUOTED")] * 2


def test_every_grammar_reads_ascii_digits_only():
    # ``\d`` also matches other scripts' digits (Arabic-Indic, Devanagari, ...),
    # which int() converts; every INT of the grammars is ASCII 0-9.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(toroidal.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value
    ]
    assert found == []


def test_every_grammar_reads_ascii_whitespace_only():
    # ``\s`` and an argument-less ``str.strip`` or ``split`` also take Unicode
    # spaces and the separators \x1c-\x1f; whitespace is space, tab, CR and LF
    # throughout, stated once as laurent._WHITESPACE: every strip passes it,
    # and no other string constant names a tab.
    found, stated = [], []
    for path in sorted(Path(toroidal.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if "\\s" in node.value:
                    found.append(f"{path.name}:{node.lineno}")
                if "\t" in node.value or "\\t" in node.value:
                    stated.append(path.name)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                args = [ast.unparse(arg) for arg in node.args]
                if (node.func.attr in ("strip", "lstrip", "rstrip") and args != ["_WHITESPACE"]
                        or node.func.attr == "split" and not args):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert stated == ["laurent.py"]


def _private_definitions(statement: ast.stmt) -> list[str]:
    """The private module-level names (``_x``, not ``__x__``) a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.endswith("__")]


def _references(statement: ast.stmt) -> set[str]:
    """The names a statement reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def _package_statements() -> list[tuple[str, ast.stmt]]:
    """Each top-level statement of the package, with its module's name."""
    return [
        (path.stem, statement)
        for path in sorted(Path(toroidal.__file__).parent.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
    ]


def test_every_private_helper_is_used_by_the_library():
    # A module-level private name serves the library: some other top-level
    # statement of the package reads it, so none survives only for the tests.
    statements = _package_statements()
    references = [_references(statement) for _, statement in statements]
    defined = [(i, module, name) for i, (module, statement) in enumerate(statements)
               for name in _private_definitions(statement)]
    assert defined
    unused = [f"{module}:{name}" for i, module, name in defined
              if not any(name in refs for j, refs in enumerate(references) if j != i)]
    assert unused == []


def test_every_public_function_is_read_or_documented():
    # A function in a module's ``__all__`` has a reader: another top-level
    # statement of the package, the acceptance tests, or the README, which
    # documents it for users; none survives only for the unit tests.
    statements = _package_statements()
    references = [_references(statement) for _, statement in statements]
    here = Path(__file__).parent
    outside = _references(ast.parse((here / "test_acceptance.py").read_text(encoding="utf-8")))
    outside |= set(re.findall(r"\w+", (here.parent / "README.md").read_text(encoding="utf-8")))
    public = [(i, module, statement.name) for i, (module, statement) in enumerate(statements)
              if isinstance(statement, ast.FunctionDef)
              and statement.name in importlib.import_module(f"toroidal.{module}").__all__]
    assert public
    unread = [f"{module}:{name}" for i, module, name in public
              if name not in outside
              and not any(name in refs for j, refs in enumerate(references) if j != i)]
    assert unread == []
