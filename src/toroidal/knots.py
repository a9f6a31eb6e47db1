"""Symbolic knot types with computable genus and Alexander polynomial.

The algebra covers the decidable fragment needed by the tower classifiers:
the unknot, torus knots ``T(p, q)``, finite connected sums, and table
entries carrying externally known invariants.  Equivalence is decided only
where it is decidable: torus knots by unordered parameter pairs, connected
sums by prime-summand multisets.

Text form (round-trippable, parsed by :func:`parse_knot`):

    expr := "unknot" | "torus(p,q)" | "sum(e1; e2; ...)" | "table(name)"

``sum(`` nests at most 100 levels deep.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .laurent import ONE, LaurentPoly, T, parse_poly

__all__ = [
    "KnotExpr",
    "Unknot",
    "Torus",
    "Sum",
    "Table",
    "UNKNOT",
    "KnotGenus",
    "InvariantUnavailable",
    "NotDecomposable",
    "normalize",
    "genus_of_knot",
    "alexander_of_knot",
    "prime_summands",
    "torus_knots_equivalent",
    "parse_knot",
    "TABLE_KNOTS",
]


class InvariantUnavailable(ValueError):
    """A requested invariant is not declared for a table knot."""


class NotDecomposable(ValueError):
    """A table knot without a prime flag cannot be split into summands."""


@dataclass(frozen=True)
class Unknot:
    def __str__(self) -> str:
        return "unknot"


@dataclass(frozen=True)
class Torus:
    """The torus knot T(p, q); parameters coprime and both >= 2."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p < 2 or self.q < 2:
            raise ValueError(f"torus knot parameters must be >= 2, got ({self.p}, {self.q})")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"torus knot parameters must be coprime, got ({self.p}, {self.q})")

    def __str__(self) -> str:
        return f"torus({self.p},{self.q})"


@dataclass(frozen=True)
class Sum:
    """Connected sum of the parts."""

    parts: tuple["KnotExpr", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("connected sum needs at least one part")

    def __str__(self) -> str:
        return "sum(" + "; ".join(str(p) for p in self.parts) + ")"


@dataclass(frozen=True)
class Table:
    """A knot injected with externally known invariants.

    ``genus`` and ``delta`` may be ``None`` when unknown; ``prime`` asserts
    primality and is taken on trust (it is not verified here).
    """

    name: str
    genus: int | None = None
    delta: LaurentPoly | None = None
    prime: bool = False

    def __str__(self) -> str:
        return f"table({self.name})"


KnotExpr = Unknot | Torus | Sum | Table

UNKNOT = Unknot()


@dataclass(frozen=True)
class KnotGenus:
    """Either an exact genus (``lower == upper``) or a bound pair.

    ``upper`` is ``None`` when no finite upper bound is known.
    """

    lower: int
    upper: int | None

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError("genus lower bound must be nonnegative")
        if self.upper is not None and self.upper < self.lower:
            raise ValueError("genus upper bound below lower bound")

    @classmethod
    def exact(cls, g: int) -> KnotGenus:
        return cls(g, g)

    @property
    def is_exact(self) -> bool:
        return self.upper == self.lower

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lower)
        hi = "unbounded" if self.upper is None else str(self.upper)
        return f"[{self.lower}, {hi}]"


def normalize(k: KnotExpr) -> KnotExpr:
    """Flatten sums, drop unknot summands, order torus parameters p <= q."""
    if isinstance(k, Unknot):
        return UNKNOT
    if isinstance(k, Torus):
        return k if k.p <= k.q else Torus(k.q, k.p)
    if isinstance(k, Table):
        return k
    parts: list[KnotExpr] = []
    for part in k.parts:
        n = normalize(part)
        if isinstance(n, Unknot):
            continue
        if isinstance(n, Sum):
            parts.extend(n.parts)
        else:
            parts.append(n)
    if not parts:
        return UNKNOT
    if len(parts) == 1:
        return parts[0]
    return Sum(tuple(parts))


def genus_of_knot(k: KnotExpr) -> KnotGenus:
    """Genus of a normalized knot expression.

    Exact for the unknot, torus knots, table entries with a declared genus,
    and sums of these; otherwise the best bounds.  Genus is additive over
    connected sums.
    """
    k = normalize(k)
    if isinstance(k, Unknot):
        return KnotGenus.exact(0)
    if isinstance(k, Torus):
        return KnotGenus.exact((k.p - 1) * (k.q - 1) // 2)
    if isinstance(k, Table):
        if k.genus is not None:
            return KnotGenus.exact(k.genus)
        # An undeclared table genus stays unknown; nothing certifies the
        # knot nontrivial, so even a positive lower bound would be unsound.
        return KnotGenus(0, None)
    lower = 0
    upper: int | None = 0
    for part in k.parts:
        g = genus_of_knot(part)
        lower += g.lower
        upper = None if (upper is None or g.upper is None) else upper + g.upper
    return KnotGenus(lower, upper)


def _torus_alexander(p: int, q: int) -> LaurentPoly:
    # (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), an exact division in Z[t].
    num = (LaurentPoly({p * q: 1}) - ONE) * (T - ONE)
    den = (LaurentPoly({p: 1}) - ONE) * (LaurentPoly({q: 1}) - ONE)
    return num.exact_div(den).canonical()


def alexander_of_knot(k: KnotExpr) -> LaurentPoly:
    """Alexander polynomial in canonical form.

    Multiplicative over connected sums (the satellite formula with winding
    one).  Raises :class:`InvariantUnavailable` for a table knot without a
    declared polynomial.
    """
    k = normalize(k)
    if isinstance(k, Unknot):
        return ONE
    if isinstance(k, Torus):
        return _torus_alexander(k.p, k.q)
    if isinstance(k, Table):
        if k.delta is None:
            raise InvariantUnavailable(
                f"table knot {k.name!r} has no declared Alexander polynomial"
            )
        return k.delta.canonical()
    delta = ONE
    for part in k.parts:
        delta = delta * alexander_of_knot(part)
    return delta.canonical()


def prime_summands(k: KnotExpr) -> Counter[KnotExpr]:
    """Multiset of nontrivial prime summands of a normalized expression.

    Torus knots are prime; table entries must carry ``prime=True`` to be
    accepted as summands.
    """
    k = normalize(k)
    if isinstance(k, Unknot):
        return Counter()
    if isinstance(k, Torus):
        return Counter([k])
    if isinstance(k, Table):
        if not k.prime:
            raise NotDecomposable(
                f"table knot {k.name!r} is not flagged prime and carries no decomposition"
            )
        return Counter([k])
    acc: Counter[KnotExpr] = Counter()
    for part in k.parts:
        acc.update(prime_summands(part))
    return acc


def torus_knots_equivalent(p: int, q: int, p2: int, q2: int) -> bool:
    """T(p,q) and T(p2,q2) are equivalent iff {p,q} = {p2,q2}."""
    Torus(p, q), Torus(p2, q2)  # validate parameters
    return {p, q} == {p2, q2}


# Built-in table knots available to the text grammar.  These invariants are
# cross-checked against the diagram corpus in the test suite.
TABLE_KNOTS: dict[str, Table] = {
    "figure_eight": Table("figure_eight", genus=1, delta=parse_poly("1 - 3*t + t^2"), prime=True),
    "5_2": Table("5_2", genus=1, delta=parse_poly("2 - 3*t + 2*t^2"), prime=True),
}

_TORUS_RE = re.compile(r"torus\(\s*(\d+)\s*,\s*(\d+)\s*\)")
_TABLE_RE = re.compile(r"table\(\s*([A-Za-z0-9_]+)\s*\)")
_SPACE = re.compile(r"\s*")

# Parsing and normalizing recurse once per ``sum(`` level; the cap keeps deep
# input a ValueError.  It costs nothing, since normalizing flattens sums.
_MAX_NESTING = 100


def parse_knot(text: str) -> KnotExpr:
    """Parse the knot-expression grammar; the result is normalized."""
    text = text.strip()
    expr, pos = _parse_expr(text, 0)
    if text[pos:].strip():
        raise ValueError(f"trailing input in knot expression: {text[pos:].strip()!r}")
    return normalize(expr)


def _parse_expr(text: str, pos: int, depth: int = 0) -> tuple[KnotExpr, int]:
    """The expression at ``text[pos:]`` and the index just past it; indexing
    rather than slicing keeps a long flat ``sum(`` linear."""
    pos = _SPACE.match(text, pos).end()
    if text.startswith("unknot", pos):
        return UNKNOT, pos + len("unknot")
    m = _TORUS_RE.match(text, pos)
    if m:
        return Torus(int(m.group(1)), int(m.group(2))), m.end()
    m = _TABLE_RE.match(text, pos)
    if m:
        name = m.group(1)
        if name not in TABLE_KNOTS:
            raise ValueError(f"unknown table knot {name!r}")
        return TABLE_KNOTS[name], m.end()
    if text.startswith("sum(", pos):
        if depth == _MAX_NESTING:
            raise ValueError(f"knot expression nests sum(...) deeper than {_MAX_NESTING} levels")
        pos += len("sum(")
        parts: list[KnotExpr] = []
        while True:
            part, pos = _parse_expr(text, pos, depth + 1)
            parts.append(part)
            pos = _SPACE.match(text, pos).end()
            if text.startswith(";", pos):
                pos += 1
                continue
            if text.startswith(")", pos):
                return Sum(tuple(parts)), pos + 1
            raise ValueError(f"expected ';' or ')' in sum(...), got {text[pos:pos + 10]!r}")
    raise ValueError(f"malformed knot expression near {text[pos:pos + 20]!r}")
