from __future__ import annotations

# The usage text, which -h prints: bound as a plain string, not written as the
# module docstring, so that python -OO, which drops docstrings, keeps it.
__doc__ = """toroidal: invariants of knots and towers of solid tori, from the command line.

Usage:
    toroidal knot genus|alexander "<expr>"
    toroidal diagram alexander|genus <file.pd>
    toroidal tower report <file.json>
    toroidal catalog list
    toroidal catalog report <name>

--json switches any command to JSON output; it may stand anywhere and may
repeat.  -h or --help anywhere prints this text.  A word that starts with
"-" is an option, except "-" itself, a negative number such as -5, and a
word that holds a space; every other word fills the command's next place.
Exit status: 0 on success, 1 on usage errors, 2 on validation errors
(unreadable files, malformed expressions, PD codes or tower files, and
towers rejected by the validator).
"""

import json
import re
import sys

__all__ = ["main"]

# The grammar: each command names its second word and that word's choices,
# and each choice names its one argument (None: it takes none).
_COMMANDS = {
    "knot": ("invariant", {"genus": "expr", "alexander": "expr"}),
    "diagram": ("invariant", {"alexander": "file", "genus": "file"}),
    "tower": ("action", {"report": "file"}),
    "catalog": ("action", {"list": None, "report": "name"}),
}
_NEGATIVE_NUMBER = re.compile(r"-[0-9]+$|-[0-9]*\.[0-9]+$")


class _UsageError(Exception):
    pass


def _parse(argv: list[str]) -> tuple[list, bool]:
    """The command, its second word and its argument (``None`` for ``catalog
    list``, which takes none), and whether ``--json`` was given."""
    from .laurent import quoted  # the one rule for a message that shows a word

    places = [("command", _COMMANDS)]  # each place's name, and its choices (None: any word)
    words, unknown, as_json = [], [], False
    for word in argv:
        if word == "--json":
            as_json = True
        elif word.startswith("--json="):
            raise _UsageError(f"argument --json: ignored explicit argument {quoted(word.partition('=')[2])}")
        elif len(words) == len(places) or (word.startswith("-") and word != "-" and " " not in word
                                            and not _NEGATIVE_NUMBER.match(word)):
            unknown.append(word)
        else:
            name, choices = places[len(words)]
            if choices is not None and word not in choices:
                raise _UsageError(f"argument {name}: invalid choice: {quoted(word)} "
                                  f"(choose from {', '.join(map(repr, choices))})")
            words.append(word)
            if choices and choices[word]:  # a command's second word, or a second word's argument
                places.append(choices[word] if len(words) == 1 else (choices[word], None))
    if len(words) < len(places):
        raise _UsageError(f"the following arguments are required: {places[len(words)][0]}")
    if unknown:
        raise _UsageError(f"unrecognized arguments: {' '.join(map(quoted, unknown))}")
    return words + [None] * (3 - len(words)), as_json


def _emit(payload: dict, text: str, as_json: bool, out) -> None:
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n" if as_json else text)


# Each command imports only the modules it runs, so a process that asks for
# a knot's genus never loads the tower or diagram engines.
def _run_knot(invariant: str, text: str, as_json: bool, out) -> int:
    from .knots import alexander_of_knot, genus_of_knot, parse_knot

    expr = parse_knot(text)
    if invariant == "genus":
        g = genus_of_knot(expr)
        payload = {"expr": str(expr), "genus_lower": g.lower, "genus_upper": g.upper}
        _emit(payload, f"{g}\n", as_json, out)
    else:
        delta = alexander_of_knot(expr)
        _emit({"expr": str(expr), "alexander": str(delta)}, f"{delta}\n", as_json, out)
    return 0


def _run_diagram(invariant: str, path: str, as_json: bool, out) -> int:
    from .diagrams import alexander_from_diagram, genus_bounds, parse_pd
    from .laurent import quoted

    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{quoted(path)}: not UTF-8 text: {exc}") from exc
    d = parse_pd(text)
    if invariant == "alexander":
        delta = alexander_from_diagram(d)
        _emit({"file": path, "alexander": str(delta)}, f"{delta}\n", as_json, out)
    else:
        lo, hi = genus_bounds(d)
        text = f"{lo}\n" if lo == hi else f"[{lo}, {hi}]\n"
        _emit({"file": path, "genus_lower": lo, "genus_upper": hi}, text, as_json, out)
    return 0


def _run_towers(command: str, action: str, arg: str | None, as_json: bool, out, err) -> int:
    """``tower report`` and ``catalog``, the commands that load towers."""
    from .towers import InvalidTowerError, load_tower

    try:
        if command == "tower":
            tower = load_tower(arg)
        else:
            from .catalog import built_in_towers, resolve

            if action == "list":
                names = sorted(built_in_towers())
                text = "\n".join(names) + "\n" + "mask:<bits>  (generated family)\n"
                _emit({"towers": names, "mask_family": "mask:<bits>"}, text, as_json, out)
                return 0
            tower = resolve(arg)
        from .reports import build_report, render_json, render_text

        doc = build_report(tower)
    except InvalidTowerError as exc:
        err.write(f"invalid tower:\n{exc}\n")
        return 2
    out.write(render_json(doc) if as_json else render_text(doc))
    return 0


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        out.write(__doc__)
        return 0
    from .laurent import quoted

    try:
        (command, word, arg), as_json = _parse(argv)
    except _UsageError as exc:
        err.write(f"usage error: {exc}\n")
        return 1
    try:
        if command == "knot":
            return _run_knot(word, arg, as_json, out)
        if command == "diagram":
            return _run_diagram(word, arg, as_json, out)
        return _run_towers(command, word, arg, as_json, out, err)
    except (OSError, ValueError) as exc:
        name = getattr(exc, "filename", None)  # an OSError's file name is input too
        err.write(f"error: {str(exc).replace(repr(name), quoted(name))}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
