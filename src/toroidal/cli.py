"""Command-line front end.

Subcommands::

    toroidal knot genus|alexander "<expr>"
    toroidal diagram alexander|genus <file.pd>
    toroidal tower report <file.json>
    toroidal catalog list
    toroidal catalog report <name>

``--json`` switches any subcommand to JSON output.  Exit status: 0 on
success, 1 on usage errors, 2 on validation errors (unreadable files,
malformed expressions, PD codes or tower files, and towers rejected by the
validator).

Each subcommand imports only the modules it runs, so a process that asks
for a knot's genus never loads the tower or diagram engines.
"""

from __future__ import annotations

import argparse
import json
import sys

__all__ = ["main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a leaf parser from clobbering a --json given before
    # the subcommand; the flag works in either position.
    p.add_argument(
        "--json", action="store_true", default=argparse.SUPPRESS,
        help="emit JSON instead of text",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="toroidal", description=__doc__.splitlines()[0])
    parser.set_defaults(json=False)
    _add_json_flag(parser)
    sub = parser.add_subparsers(dest="command", required=True)

    knot = sub.add_parser("knot", help="invariants of symbolic knot expressions")
    knot_sub = knot.add_subparsers(dest="invariant", required=True)
    for inv in ("genus", "alexander"):
        p = knot_sub.add_parser(inv)
        p.add_argument("expr", help="knot expression, e.g. 'torus(2,3)'")
        _add_json_flag(p)

    diagram = sub.add_parser("diagram", help="invariants computed from a PD file")
    diagram_sub = diagram.add_subparsers(dest="invariant", required=True)
    for inv in ("alexander", "genus"):
        p = diagram_sub.add_parser(inv)
        p.add_argument("file", help="path to a .pd file")
        _add_json_flag(p)

    tower = sub.add_parser("tower", help="classify a tower description file")
    tower_sub = tower.add_subparsers(dest="action", required=True)
    p = tower_sub.add_parser("report")
    p.add_argument("file", help="path to a tower JSON file")
    _add_json_flag(p)

    cat = sub.add_parser("catalog", help="built-in example towers")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    _add_json_flag(cat_sub.add_parser("list"))
    p = cat_sub.add_parser("report")
    p.add_argument("name", help="catalog name or mask:<bits>")
    _add_json_flag(p)
    return parser


def _emit(payload: dict, text: str, as_json: bool, out) -> None:
    if as_json:
        out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        out.write(text)


def _run_knot(args, out) -> int:
    from .knots import alexander_of_knot, genus_of_knot, parse_knot

    expr = parse_knot(args.expr)
    if args.invariant == "genus":
        g = genus_of_knot(expr)
        payload = {"expr": str(expr), "genus_lower": g.lower, "genus_upper": g.upper}
        _emit(payload, f"{g}\n", args.json, out)
    else:
        delta = alexander_of_knot(expr)
        _emit({"expr": str(expr), "alexander": str(delta)}, f"{delta}\n", args.json, out)
    return 0


def _run_diagram(args, out) -> int:
    from .diagrams import alexander_from_diagram, genus_bounds, parse_pd

    with open(args.file, "r", encoding="utf-8") as fh:
        d = parse_pd(fh.read())
    if args.invariant == "alexander":
        delta = alexander_from_diagram(d)
        _emit({"file": args.file, "alexander": str(delta)}, f"{delta}\n", args.json, out)
    else:
        lo, hi = genus_bounds(d)
        text = f"{lo}\n" if lo == hi else f"[{lo}, {hi}]\n"
        _emit({"file": args.file, "genus_lower": lo, "genus_upper": hi}, text, args.json, out)
    return 0


def _run_towers(args, out, err) -> int:
    """``tower report`` and ``catalog``, the subcommands that load towers."""
    from .towers import InvalidTowerError, load_tower

    try:
        if args.command == "tower":
            tower = load_tower(args.file)
        else:
            from .catalog import catalog, resolve

            if args.action == "list":
                names = sorted(catalog())
                if args.json:
                    _emit({"towers": names, "mask_family": "mask:<bits>"}, "", True, out)
                else:
                    out.write("\n".join(names) + "\n" + "mask:<bits>  (generated family)\n")
                return 0
            tower = resolve(args.name)
        from .reports import build_report, render_json, render_text

        doc = build_report(tower)
    except InvalidTowerError as exc:
        err.write(f"invalid tower:\n{exc}\n")
        return 2
    out.write(render_json(doc) if args.json else render_text(doc))
    return 0


def main(argv: list[str] | None = None, out=None, err=None) -> int:
    from .laurent import quoted  # the one rule by which a message shows a value it was given
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        message = str(exc)  # argparse echoes an argument whole, or what follows its "=" or its flag
        for echo in (part for token in argv for part in (token, token.partition("=")[2], token[2:])):
            if quoted(echo) != repr(echo):
                message = message.replace(repr(echo) if repr(echo) in message else echo, quoted(echo))
        err.write(f"usage error: {message}\n")
        return 1

    try:
        if args.command == "knot":
            return _run_knot(args, out)
        if args.command == "diagram":
            return _run_diagram(args, out)
        return _run_towers(args, out, err)
    except (OSError, ValueError) as exc:
        name = getattr(exc, "filename", None)  # an OSError's file name is input too
        err.write(f"error: {str(exc).replace(repr(name), quoted(name))}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
