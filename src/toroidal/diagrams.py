"""Planar knot diagrams: PD codes, the Wirtinger matrix, Seifert bounds.

This is the brute-force invariant engine used to cross-check the closed
formulas of :mod:`toroidal.knots`.

PD convention
-------------

A diagram with ``n`` crossings is written ``PD[X[a,b,c,d], ...]`` over edge
labels ``1..2n`` numbered consecutively along the oriented knot (label
``2n`` is followed by label ``1``).  Each crossing lists its four edges
counterclockwise starting from the incoming under-strand::

            c
            ^
        d --+--> b
            ^
            a

A code is accepted when four rules hold, with ``x + 1`` taken mod ``2n``:
(1) the under-strand enters at ``a`` and leaves at ``c = a + 1``;
(2) the over-strand runs from whichever of ``b``, ``d`` is ``x`` to ``x + 1``;
(3) the ``2n`` incoming edges, ``a`` and the over-strand's ``x`` at each
crossing, are exactly ``1..2n``;
(4) the code has ``n + 2`` faces, where a face is an orbit of the step "go
to the other end of this edge, then to the next slot counterclockwise".
Each strand leaves on the successor of the edge it enters, so under rules
1-3 the edges form the one cycle ``1 -> 2 -> ... -> 2n -> 1``: every label
occurs twice, and links are rejected.  The diagram's graph is then
connected, with ``n`` vertices and ``2n`` edges, so by Euler's formula its
counterclockwise orders embed in the plane exactly when rule 4 holds; codes
of virtual knots are rejected.  The sign of a crossing is ``+1`` when its
over-strand runs ``d -> b``, else ``-1``.

Arcs and the Alexander matrix
-----------------------------

Edges merge into Wirtinger arcs (maximal over-strands); a diagram with
``n >= 1`` crossings has exactly ``n`` arcs, each ending at exactly two
under-crossing endpoints.  Each crossing contributes one matrix row over
Z[t, t^-1]: the over-arc receives ``1 - t``; the incoming/outgoing under
arcs receive ``t``/``-1`` at a positive crossing and ``-1``/``t`` at a
negative one.  Deleting one row and one column and taking the determinant
gives the Alexander polynomial.

The determinant is one integer computation (Kronecker substitution).
Every entry of the minor is ``c0 + c1 t``, at most ``|c0| + |c1|`` on the
unit circle, and a row holds ``t``, ``-1`` and ``1 - t``: their squares sum
to at most 6 (2 when the over-arc is an under-arc).  So Hadamard's
inequality bounds the determinant on the circle, hence each coefficient,
by ``sqrt(6^(n - 1))``, below ``C = isqrt(6^(n - 1)) + 1``.  The minor is
built once as sparse integer rows at ``t = B = 2C + 1``, and its integer
determinant is taken by a sparse Bareiss elimination: rows are dicts, a
column index lists the rows nonzero in each column and a list counts them,
and each step pivots on the sparsest column (one ``min`` over the counts,
in C) and, in it, the sparsest row (Markowitz 1957).  The fraction-free
update of Bareiss (1968) divides exactly, and a row that a step leaves
alone is rescaled only when it is next used, so each step touches only
the rows that are nonzero in its pivot column.  The polynomial is read
back as the balanced base-``B`` digits of the determinant, each in
``[-C, C]``.

The polynomial is computed once per :class:`Diagram`, when
:func:`alexander_from_diagram` or :func:`genus_bounds` first asks for it.
A code may have at most :data:`MAX_CROSSINGS` crossings.  At that size the
closures of torus braids take at most about 45 ms (T(2,99) 2 ms, T(11,10)
33 ms, T(3,50) 42 ms; best of 25, Xeon, Python 3.11) and closures of random
positive braids up to about 0.2 s.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import isqrt

from .laurent import ONE, LaurentPoly, _WHITESPACE, _WS, kept_fact, quoted, value_type

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


class Crossing(value_type("Crossing", "a b c d sign")):
    """Four edge labels counterclockwise from the incoming under-strand, and
    the crossing's sign."""

    __slots__ = ()

    @property
    def over_in(self) -> int:
        return self.d if self.sign > 0 else self.b

    @property
    def over_out(self) -> int:
        return self.b if self.sign > 0 else self.d


class Diagram(value_type("Diagram", "crossings edge_arc")):
    """A validated single-component diagram: a tuple of :class:`Crossing`
    and a tuple of arc indices.  It keeps its polynomial when first read.

    ``edge_arc[e - 1]`` is the Wirtinger arc index of edge ``e``; there are
    exactly ``len(crossings)`` arcs for a nonempty diagram.
    """

    @property
    def n(self) -> int:
        return len(self.crossings)

    @kept_fact
    def _alexander(self) -> LaurentPoly:
        # Read by alexander_from_diagram and genus_bounds; lives with the diagram.
        return _alexander_minor(self, self.n - 1, self.n - 1) if self.n else ONE


# Most crossings parse_pd accepts.  The determinant works on integers of up
# to about 1.3 n^2 bits; if its rows fill in, it makes about n^3/3 products.
MAX_CROSSINGS = 100

# A label past 2 * MAX_CROSSINGS breaks rule 3, so a label of four digits is a syntax error.
_X = r"X\[" + ",".join([_WS + "*([0-9]{1,3})" + _WS + "*"] * 4) + r"\]"
_X_RE = re.compile(_X)
# The longest run of separators and crossings: it ends at the first bad token.
_PD_BODY = re.compile(rf"(?:[{_WHITESPACE},]+|{_X})*")


def parse_pd(text: str) -> Diagram:
    """Parse and validate a ``PD[...]`` code.

    Raises :class:`PDSyntaxError` for grammar problems (with a position)
    and :class:`PDValidationError` for codes that are not single-component
    sequentially labeled knot diagrams or that have more than
    :data:`MAX_CROSSINGS` crossings.
    """
    start = len(text) - len(text.lstrip(_WHITESPACE))  # where "PD[" must stand
    close = len(text.rstrip(_WHITESPACE)) - 1  # where "]" must stand
    if not text.startswith("PD[", start):
        raise PDSyntaxError("expected 'PD['", 0)
    if text[close] != "]":
        raise PDSyntaxError("expected closing ']'", len(text))
    pos = _PD_BODY.match(text, start + 3, close).end()
    if pos < close:
        rest = text[pos:close].rstrip(_WHITESPACE)
        raise PDSyntaxError(f"expected X[a,b,c,d], got {quoted(rest)}", pos)
    quads = [tuple(map(int, quad)) for quad in _X_RE.findall(text, start + 3, close)]
    if len(quads) > MAX_CROSSINGS:
        raise PDValidationError(
            f"PD code has {len(quads)} crossings; the limit is {MAX_CROSSINGS}"
        )
    return _build_diagram(quads)


def _build_diagram(quads: list[tuple[int, int, int, int]]) -> Diagram:
    n = len(quads)
    if n == 0:
        return Diagram((), ())

    def succ(e: int) -> int:
        return e % (2 * n) + 1

    crossings: list[Crossing] = []
    for a, b, c, d in quads:
        if c != succ(a):
            raise PDValidationError(
                f"crossing X[{','.join(map(quoted, (a, b, c, d)))}]: under-strand must leave at {succ(a)}; "
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
                f"crossing X[{','.join(map(quoted, (a, b, c, d)))}]: over-strand labels "
                f"{quoted(b)},{quoted(d)} are not consecutive along a single knot (links are rejected)"
            )
        crossings.append(Crossing(a, b, c, d, sign))

    # Rule 3 of the module docstring; rules 1 and 2 were checked above.
    ins = [c.a for c in crossings] + [c.over_in for c in crossings]
    if sorted(ins) != list(range(1, 2 * n + 1)):
        raise PDValidationError(
            f"incoming edges must be exactly 1..{2 * n} for {n} crossings: "
            "every edge enters one crossing"
        )
    # Rule 4: slot 4i + k is place k of crossing i; sorting by label puts the
    # two slots of each edge side by side.
    labels = [label for quad in quads for label in quad]
    ends = iter(sorted(range(4 * n), key=labels.__getitem__))
    step = [0] * (4 * n)  # to the edge's other end, then on to the next slot counterclockwise
    for s, t in zip(ends, ends):
        step[s], step[t] = t - t % 4 + (t + 1) % 4, s - s % 4 + (s + 1) % 4
    faces = _cycle_count(step)
    if faces != n + 2:
        raise PDValidationError(f"the code has {faces} faces, not n + 2 = {n + 2}: it is not planar")

    # Edges break into Wirtinger arcs at incoming under-strands.
    under_in = set(ins[:n])
    edge_arc = [0] * (2 * n)
    arc = 0
    # Start a fresh arc on the edge after some under-crossing endpoint.
    e = succ(next(iter(under_in)))
    for _ in range(2 * n):
        edge_arc[e - 1] = arc
        if e in under_in:
            arc += 1
        e = succ(e)
    if arc != n:
        raise InternalInconsistencyError("arc count must equal crossing count")
    return Diagram(tuple(crossings), tuple(edge_arc))


def _wirtinger_rows(d: Diagram) -> list[dict[int, tuple[int, int]]]:
    """The Wirtinger matrix as sparse rows (rows: crossings, columns: arcs).

    Row ``i`` maps each arc at crossing ``i`` to its entry ``c0 + c1 t``,
    stored as ``(c0, c1)``; every other entry is zero, and none is stored.
    """
    rows = []
    for c in d.crossings:
        into = d.edge_arc[c.a - 1]
        out = d.edge_arc[c.c - 1]
        if into == out:  # one arc, the one-crossing kink's: t - 1 + 1 - t = 0
            rows.append({})
            continue
        row = {into: (0, 1), out: (-1, 0)} if c.sign > 0 else {into: (-1, 0), out: (0, 1)}
        over = d.edge_arc[c.over_in - 1]
        c0, c1 = row.get(over, (0, 0))
        row[over] = (c0 + 1, c1 - 1)
        rows.append(row)
    return rows


def _bareiss(rows: list[dict[int, int]]) -> int:
    """Determinant of the square integer matrix whose row ``i`` maps columns
    ``0..n-1`` to its nonzero entries; ``rows`` is used up.

    Each step pivots on the column with the fewest nonzero rows and, in it,
    on the row with the fewest nonzero entries (Markowitz 1957).  Every
    other row with a nonzero entry ``a`` in the pivot column becomes
    ``(p * row - a * pivot_row) / d``, where ``p`` is the pivot and ``d`` the
    pivot of the step that last changed the row, or 1 (Bareiss 1968).  A
    row that a step leaves alone is not rescaled: a pivot row is first
    brought up to date as ``pivot_row * p' / d``, with ``p'`` the pivot of
    the step before.  Both divisions are exact.

    >>> _bareiss([{0: 2, 1: 1}, {0: 4, 1: 3}])
    2
    """
    n = len(rows)
    where: list[set[int]] = [set() for _ in range(n)]  # column -> rows nonzero in it
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    count = list(map(len, where))  # count[j] == len(where[j]), kept in step
    level = [0] * n  # the step each row's values belong to
    pivots = [1]  # pivots[s]: the pivot of step s - 1, the divisor of step s
    rows_left, cols_left = list(range(n)), list(range(n))
    flips = 0  # pivot positions summed; the determinant's sign is (-1)^flips
    for k in range(n):
        # cols_left is ascending, so min keeps the lowest of the sparsest columns.
        c = min(cols_left, key=count.__getitem__)
        column = where[c]
        if not column:
            return 0
        if count[c] == 1:
            (r,) = column
        else:
            r = min(column, key=lambda i: (len(rows[i]), i))
        # Expanding along the pivot's row and column, at positions i and j
        # among those left, multiplies the determinant by (-1)^(i + j).
        i, j = bisect_left(rows_left, r), bisect_left(cols_left, c)
        del rows_left[i], cols_left[j]
        flips += i + j
        top = rows[r]
        if level[r] != k:
            scale, divisor = pivots[k], pivots[level[r]]
            top = {j: v * scale // divisor for j, v in top.items()}
        p = top.pop(c)
        for j in top:
            where[j].discard(r)
            count[j] -= 1
        for i in column:
            if i == r:
                continue
            row = rows[i]
            lead = row.pop(c)
            divisor = pivots[level[i]]
            for j in top.keys() - row.keys():
                where[j].add(i)
                count[j] += 1
            new = {}
            for j in row.keys() | top.keys():
                v = (p * row.get(j, 0) - lead * top.get(j, 0)) // divisor
                if v:
                    new[j] = v
                else:
                    where[j].discard(i)
                    count[j] -= 1
            rows[i] = new
            level[i] = k + 1
        pivots.append(p)
    return -pivots[-1] if flips % 2 else pivots[-1]


def _balanced_digits(value: int, base: int) -> LaurentPoly:
    """The polynomial whose coefficient of ``t^e`` is digit ``e`` of ``value``
    in balanced base ``base`` (odd), each in ``[-(base // 2), base // 2]``.

    >>> print(_balanced_digits(1 - 7 + 7**2, 7))
    1 - t + t^2
    """
    bound = base // 2
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


def _alexander_minor(d: Diagram, drop_row: int, drop_col: int) -> LaurentPoly:
    """Canonical determinant of the Wirtinger matrix of a nonempty diagram
    less row ``drop_row`` and column ``drop_col``, evaluated at ``t = B``
    and decoded (see the module docstring)."""
    base = 2 * (isqrt(6 ** (d.n - 1)) + 1) + 1
    rows = _wirtinger_rows(d)
    del rows[drop_row]
    minor = [{j - (j > drop_col): c0 + c1 * base for j, (c0, c1) in row.items() if j != drop_col} for row in rows]
    return _balanced_digits(_bareiss(minor), base).canonical()


def alexander_from_diagram(d: Diagram) -> LaurentPoly:
    """Alexander polynomial of the diagram, in canonical form.

    The determinant of the Wirtinger matrix less its last row and column;
    any other row and column give the same result (exercised in the test
    suite).  It is computed once per :class:`Diagram`.
    """
    return d._alexander


def seifert_circle_count(d: Diagram) -> int:
    """Number of circles produced by the oriented smoothing of every crossing."""
    if d.n == 0:
        return 1
    step = [0] * (2 * d.n)  # edge e - 1 to the edge that follows it on its circle, less 1
    for c in d.crossings:
        step[c.a - 1] = c.over_out - 1
        step[c.over_in - 1] = c.c - 1
    return _cycle_count(step)


def _cycle_count(step: list[int]) -> int:
    """Number of cycles of the permutation ``i -> step[i]`` of ``0..len(step)-1``."""
    seen = [False] * len(step)
    cycles = 0
    for i in range(len(step)):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = step[i]
    return cycles


def seifert_genus_upper(d: Diagram) -> int:
    """Genus of the Seifert surface built from this diagram.

    An upper bound for the knot genus: ``(n - s + 1) / 2`` with ``s``
    Seifert circles.  Single-knot diagrams are always connected, which the
    parser guarantees.
    """
    s = seifert_circle_count(d)
    if (d.n - s + 1) % 2:
        raise InternalInconsistencyError("Seifert surface genus must be an integer")
    return (d.n - s + 1) // 2


def genus_bounds(d: Diagram) -> tuple[int, int]:
    """``(lower, upper)`` for the knot genus.

    Lower bound: half the breadth of the Alexander polynomial, rounded up.
    Upper bound: the Seifert surface genus of this diagram.
    """
    delta = d._alexander
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
