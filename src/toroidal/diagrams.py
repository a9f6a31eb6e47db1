"""Planar knot diagrams: PD codes, the Alexander matrix, Seifert bounds.

This is the brute-force invariant engine used to cross-check the closed
formulas of :mod:`toroidal.knots`.

PD convention
-------------

A diagram with ``n`` crossings is written ``PD[X[a,b,c,d], ...]`` over edge
labels ``1..2n`` numbered consecutively along the oriented knot (label
``2n`` is followed by label ``1``).  Each crossing lists its four edges
counterclockwise starting from the incoming under-strand::

            c                 c = a + 1 (mod 2n): the under-strand
            ^                     enters at a and leaves at c.
        d --+--> b            b, d carry the over-strand; orientation is
            ^                     read off label succession: the over-
            a                     strand runs from x to x + 1 (mod 2n).

The crossing sign is ``+1`` when the over-strand runs ``d -> b`` and ``-1``
when it runs ``b -> d``.  Multi-component PD codes are rejected: every
object downstream is a knot.

Arcs and the Alexander matrix
-----------------------------

Edges merge into Wirtinger arcs (maximal over-strands); a diagram with
``n >= 1`` crossings has exactly ``n`` arcs, each ending at exactly two
under-crossing endpoints.  Each crossing contributes one matrix row over
Z[t, t^-1]: the over-arc receives ``1 - t``; the incoming/outgoing under
arcs receive ``t``/``-1`` at a positive crossing and ``-1``/``t`` at a
negative one.  Deleting one row and one column and taking the determinant
gives the Alexander polynomial.

The determinant is one integer computation (Kronecker substitution).  On
the unit circle every entry is at most its coefficient 1-norm in absolute
value, so Hadamard's inequality bounds the determinant there, and hence
each of its coefficients, by ``sqrt(prod_rows sum_entries |a_ij|_1^2)``,
which is below ``C = isqrt(...) + 1``.  The minor is evaluated at
``t = B = 2C + 1``, its integer determinant is taken by Bareiss's
fraction-free elimination (exact integer division, row swaps on a zero
pivot), and the polynomial is read back as the balanced base-``B`` digits
of that integer, each in ``[-C, C]``.  A code may have at most
:data:`MAX_CROSSINGS` crossings, which keeps the determinant to seconds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isqrt

from .laurent import ONE, ZERO, LaurentPoly, T

__all__ = [
    "MAX_CROSSINGS",
    "Crossing",
    "Diagram",
    "PDSyntaxError",
    "PDValidationError",
    "InternalInconsistencyError",
    "parse_pd",
    "alexander_from_diagram",
    "seifert_circle_count",
    "seifert_genus_upper",
    "genus_bounds",
    "alexander_matrix",
    "load_corpus_diagram",
    "corpus_names",
]


class PDSyntaxError(ValueError):
    """Malformed PD text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"PD syntax error at position {position}: {message}")
        self.position = position


class PDValidationError(ValueError):
    """Structurally valid PD text that does not describe a single knot."""


class InternalInconsistencyError(RuntimeError):
    """A provable invariant failed; indicates a bug, never bad input."""


@dataclass(frozen=True)
class Crossing:
    """Four edge labels counterclockwise from the incoming under-strand."""

    a: int
    b: int
    c: int
    d: int
    sign: int

    @property
    def over_in(self) -> int:
        return self.d if self.sign > 0 else self.b

    @property
    def over_out(self) -> int:
        return self.b if self.sign > 0 else self.d


@dataclass(frozen=True)
class Diagram:
    """A validated single-component diagram.

    ``edge_arc[e - 1]`` is the Wirtinger arc index of edge ``e``; there are
    exactly ``len(crossings)`` arcs for a nonempty diagram.
    """

    crossings: tuple[Crossing, ...]
    edge_arc: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.crossings)

    def writhe(self) -> int:
        return sum(c.sign for c in self.crossings)


# Most crossings parse_pd accepts.  The determinant of an n-crossing code
# makes about n^3/3 products of integers of up to about 1.3 n^2 bits.
MAX_CROSSINGS = 100

_X_RE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd(text: str) -> Diagram:
    """Parse and validate a ``PD[...]`` code.

    Raises :class:`PDSyntaxError` for grammar problems (with a position)
    and :class:`PDValidationError` for codes that are not single-component
    sequentially labeled knot diagrams or that have more than
    :data:`MAX_CROSSINGS` crossings.
    """
    stripped = text.strip()
    if not stripped.startswith("PD["):
        raise PDSyntaxError("expected 'PD['", 0)
    if not stripped.endswith("]"):
        raise PDSyntaxError("expected closing ']'", len(text))
    body = stripped[len("PD["):-1].strip()
    quads: list[tuple[int, int, int, int]] = []
    pos = 0
    while pos < len(body):
        if body[pos].isspace() or body[pos] == ",":
            pos += 1
            continue
        m = _X_RE.match(body, pos)
        if not m:
            raise PDSyntaxError(
                f"expected X[a,b,c,d], got {body[pos:pos + 12]!r}",
                text.index(body) + pos if body else pos,
            )
        quads.append(tuple(int(g) for g in m.groups()))  # type: ignore[arg-type]
        pos = m.end()
    if len(quads) > MAX_CROSSINGS:
        raise PDValidationError(
            f"PD code has {len(quads)} crossings; the limit is {MAX_CROSSINGS}"
        )
    return _build_diagram(quads)


def _build_diagram(quads: list[tuple[int, int, int, int]]) -> Diagram:
    n = len(quads)
    if n == 0:
        return Diagram((), ())
    labels = [lab for quad in quads for lab in quad]
    expected = set(range(1, 2 * n + 1))
    if set(labels) != expected:
        raise PDValidationError(
            f"edge labels must be exactly 1..{2 * n} for {n} crossings"
        )
    counts: dict[int, int] = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    bad = [lab for lab, k in counts.items() if k != 2]
    if bad:
        raise PDValidationError(f"edge labels {sorted(bad)} do not occur exactly twice")

    def succ(e: int) -> int:
        return e % (2 * n) + 1

    crossings: list[Crossing] = []
    for a, b, c, d in quads:
        if c != succ(a):
            raise PDValidationError(
                f"crossing X[{a},{b},{c},{d}]: under-strand must leave at {succ(a)}; "
                "labels are not consecutive along a single knot (links are rejected)"
            )
        if d == succ(b) and b == succ(d):
            # One-crossing kink (2n = 2): the sign cannot matter, but the
            # over-strand must enter on the edge that is not the under-in.
            sign = 1 if b == a else -1
        elif d == succ(b):
            sign = -1
        elif b == succ(d):
            sign = 1
        else:
            raise PDValidationError(
                f"crossing X[{a},{b},{c},{d}]: over-strand labels {b},{d} are not "
                "consecutive along a single knot (links are rejected)"
            )
        crossings.append(Crossing(a, b, c, d, sign))

    # Every edge must enter exactly one crossing, as under- or over-strand.
    under_in_list = [c.a for c in crossings]
    over_in_list = [c.over_in for c in crossings]
    if len(set(under_in_list)) != n or len(set(over_in_list)) != n:
        raise PDValidationError("an edge enters two crossings the same way")
    if set(under_in_list) | set(over_in_list) != expected:
        raise PDValidationError("incoming edges do not cover every edge exactly once")

    # Edges break into Wirtinger arcs at incoming under-strands.
    under_in = set(under_in_list)
    edge_arc = [0] * (2 * n)
    arc = 0
    # Start a fresh arc on the edge after some under-crossing endpoint.
    start = succ(next(iter(under_in)))
    e = start
    first = True
    while first or e != start:
        first = False
        edge_arc[e - 1] = arc
        if e in under_in:
            arc += 1
        e = succ(e)
    if arc != n:
        raise InternalInconsistencyError("arc count must equal crossing count")
    return Diagram(tuple(crossings), tuple(edge_arc))


def alexander_matrix(d: Diagram) -> list[list[LaurentPoly]]:
    """The n x n Wirtinger matrix over Z[t, t^-1] (rows: crossings, columns: arcs)."""
    n = d.n
    rows = [[ZERO for _ in range(n)] for _ in range(n)]
    for i, c in enumerate(d.crossings):
        over = d.edge_arc[c.over_in - 1]
        into = d.edge_arc[c.a - 1]
        out = d.edge_arc[c.c - 1]
        rows[i][over] = rows[i][over] + (ONE - T)
        if c.sign > 0:
            rows[i][into] = rows[i][into] + T
            rows[i][out] = rows[i][out] - ONE
        else:
            rows[i][into] = rows[i][into] - ONE
            rows[i][out] = rows[i][out] + T
    return rows


def _det_kronecker(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a nonempty square matrix over Z[t] (no negative
    exponents).

    Evaluates at ``t = B`` above twice the Hadamard bound, takes one integer
    Bareiss determinant and decodes it as balanced base-``B`` digits (see
    the module docstring).

    >>> print(_det_kronecker([[ONE - T, T], [-ONE, ONE - T]]))
    1 - t + t^2
    """
    square = 1
    for row in rows:
        square *= sum(sum(abs(c) for _, c in entry.terms) ** 2 for entry in row)
    bound = isqrt(square) + 1
    base = 2 * bound + 1
    m = [[sum(c * base**e for e, c in entry.terms) for entry in row] for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return ZERO
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pivot, top = m[k][k], m[k][k + 1:]
        for i in range(k + 1, n):
            row, lead = m[i], m[i][k]
            row[k + 1:] = [(pivot * x - lead * y) // prev for x, y in zip(row[k + 1:], top)]
        prev = pivot
    value = sign * m[-1][-1]
    coeffs: dict[int, int] = {}
    exp = 0
    while value:
        value, digit = divmod(value, base)
        if digit > bound:
            digit -= base
            value += 1
        coeffs[exp] = digit
        exp += 1
    return LaurentPoly(coeffs)


def alexander_from_diagram(
    d: Diagram, drop_row: int = -1, drop_col: int = -1
) -> LaurentPoly:
    """Alexander polynomial of the diagram, in canonical form.

    Any one row and column of the Wirtinger matrix may be deleted; the
    result is independent of the choice (exercised in the test suite).
    Diagrams with at most one crossing are unknots with polynomial 1.
    """
    if d.n <= 1:
        return ONE
    rows = alexander_matrix(d)
    drop_row %= d.n
    drop_col %= d.n
    minor = [
        [entry for j, entry in enumerate(row) if j != drop_col]
        for i, row in enumerate(rows)
        if i != drop_row
    ]
    return _det_kronecker(minor).canonical()


def seifert_circle_count(d: Diagram) -> int:
    """Number of circles produced by the oriented smoothing of every crossing."""
    if d.n == 0:
        return 1
    nxt: dict[int, int] = {}
    for c in d.crossings:
        nxt[c.a] = c.over_out
        nxt[c.over_in] = c.c
    seen: set[int] = set()
    circles = 0
    for e in nxt:
        if e in seen:
            continue
        circles += 1
        while e not in seen:
            seen.add(e)
            e = nxt[e]
    return circles


def seifert_genus_upper(d: Diagram) -> int:
    """Genus of the Seifert surface built from this diagram.

    An upper bound for the knot genus: ``(n - s + 1) / 2`` with ``s``
    Seifert circles.  Single-knot diagrams are always connected, which the
    parser guarantees.
    """
    if d.n == 0:
        return 0
    s = seifert_circle_count(d)
    if (d.n - s + 1) % 2:
        raise InternalInconsistencyError("Seifert surface genus must be an integer")
    return (d.n - s + 1) // 2


def genus_bounds(d: Diagram) -> tuple[int, int]:
    """``(lower, upper)`` for the knot genus.

    Lower bound: half the breadth of the Alexander polynomial, rounded up.
    Upper bound: the Seifert surface genus of this diagram.
    """
    delta = alexander_from_diagram(d)
    lower = 0 if delta.is_zero() else (delta.breadth() + 1) // 2
    upper = seifert_genus_upper(d)
    if lower > upper:
        raise InternalInconsistencyError(
            f"genus lower bound {lower} exceeds upper bound {upper}"
        )
    return lower, upper


def corpus_names() -> list[str]:
    """Names of the PD files shipped with the package."""
    from importlib import resources

    pkg = resources.files(__package__).joinpath("data")
    return sorted(p.name[:-3] for p in pkg.iterdir() if p.name.endswith(".pd"))


def load_corpus_diagram(name: str) -> Diagram:
    """Parse one of the shipped ``.pd`` files by name."""
    from importlib import resources

    path = resources.files(__package__).joinpath("data", f"{name}.pd")
    return parse_pd(path.read_text())
