"""Symbolic knot types with computable genus and Alexander polynomial.

The algebra covers the decidable fragment needed by the tower classifiers:
the unknot, torus knots ``T(p, q)``, finite connected sums, and table
entries carrying externally known invariants.  Equivalence is decided only
where it is decidable: torus knots by unordered parameter pairs, connected
sums by prime-summand multisets.  The knot readers read one summand walk,
``_summands`` (sums flattened, unknots dropped, torus parameters ordered);
``normalize`` and ``genus_of_knot`` read a torus knot without it.

``T(p, q)`` has ``Delta = t^c + sum(t^s - t^(s+1) for s in <p, q>, s < c)``
with ``c = (p-1)(q-1)``: ``1 - t`` times the Poincare series of the semigroup
``<p, q>`` (Campillo, Delgado and Gusein-Zade, Duke Math. J. 117, 2003).
The cost is linear in the genus ``c/2``, which may be at most 10^5.

Text form (round-trippable, parsed by :func:`parse_knot`):

    expr := "unknot" | "torus(p,q)" | "sum(e1; e2; ...)" | "table(name)"

``sum(`` nests at most 100 levels deep, and a torus parameter has at most
1,000 digits.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable
from math import gcd

from .laurent import ONE, LaurentPoly, _WHITESPACE, _WS, _term_pairs, parse_poly, quoted, value_type

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
    "satellite_alexander",
    "MAX_GENUS",
    "prime_summands",
    "parse_knot",
    "TABLE_KNOTS",
]


class InvariantUnavailable(ValueError):
    """A requested invariant is not declared for a table knot."""


class NotDecomposable(ValueError):
    """A table knot without a prime flag cannot be split into summands."""


class Unknot(value_type("Unknot", "")):
    __slots__ = ()

    def __str__(self) -> str:
        return "unknot"


class Torus(value_type("Torus", "p q")):
    """The torus knot T(p, q); parameters coprime and both >= 2."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> Torus:
        if p < 2 or q < 2:
            raise ValueError(f"torus knot parameters must be >= 2, got ({quoted(p)}, {quoted(q)})")
        if gcd(p, q) != 1:
            raise ValueError(f"torus knot parameters must be coprime, got ({quoted(p)}, {quoted(q)})")
        return tuple.__new__(cls, (p, q))  # what the named tuple's __new__ does, one call fewer

    def __str__(self) -> str:
        return f"torus({self.p},{self.q})"


class Sum(value_type("Sum", "parts")):
    """Connected sum of the ``parts``, a nonempty iterable of knot expressions kept as a tuple."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[KnotExpr]) -> Sum:
        parts = tuple(parts)  # before the check: a generator is always truthy
        if not parts:
            raise ValueError("connected sum needs at least one part")
        return super().__new__(cls, parts)

    def __str__(self) -> str:
        return "sum(" + "; ".join(str(p) for p in self.parts) + ")"


class Table(value_type("Table", "name genus delta prime", (None, None, False))):
    """A knot injected with externally known invariants.

    ``genus`` (never negative) and ``delta`` (a :class:`LaurentPoly`) may be
    ``None`` when unknown; ``prime`` asserts primality on trust, unverified,
    and refuses genus 0.
    """

    __slots__ = ()

    def __new__(cls, name: str, genus: int | None = None, delta: LaurentPoly | None = None,
                prime: bool = False) -> Table:
        if genus is not None and genus < 0:
            raise ValueError(f"table knot {quoted(name)} declares negative genus {quoted(genus)}")
        if prime and genus == 0:
            raise ValueError(f"table knot {quoted(name)} is flagged prime but declares genus 0")
        return super().__new__(cls, name, genus, delta, prime)

    def __str__(self) -> str:
        return f"table({self.name})"


KnotExpr = Unknot | Torus | Sum | Table

UNKNOT = Unknot()


class KnotGenus(value_type("KnotGenus", "lower upper")):
    """Either an exact genus (``lower == upper``) or a bound pair.

    ``upper`` is ``None`` when no finite upper bound is known.

    >>> print(KnotGenus(2, 2), KnotGenus(1, None), KnotGenus(1, 3))
    2 [1, unbounded] [1, 3]
    """

    __slots__ = ()

    def __new__(cls, lower: int, upper: int | None) -> KnotGenus:
        if lower < 0:
            raise ValueError("genus lower bound must be nonnegative")
        if upper is not None and upper < lower:
            raise ValueError("genus upper bound below lower bound")
        return tuple.__new__(cls, (lower, upper))

    @property
    def is_exact(self) -> bool:
        return self.upper == self.lower

    def __str__(self) -> str:
        if self.is_exact:
            return str(self.lower)
        hi = "unbounded" if self.upper is None else str(self.upper)
        return f"[{self.lower}, {hi}]"


def _summands(k: KnotExpr) -> list[Torus | Table]:
    """The nontrivial summands of ``k`` in order: sums flattened, unknots
    dropped, torus parameters ordered p <= q.  The walk keeps an explicit
    stack, so a sum of any nesting depth is read without recursion."""
    out: list[Torus | Table] = []
    stack = [k]
    while stack:
        k = stack.pop()
        if isinstance(k, Torus):
            out.append(k if k.p <= k.q else Torus(k.q, k.p))
        elif isinstance(k, Table):
            out.append(k)
        elif not isinstance(k, Unknot):
            stack += reversed(k.parts)
    return out


def _summand_genus(s: Torus | Table) -> int | None:
    """The genus of a prime summand; ``None`` for an undeclared table genus."""
    if isinstance(s, Torus):
        return (s.p - 1) * (s.q - 1) // 2
    return s.genus


def normalize(k: KnotExpr) -> KnotExpr:
    """Flatten sums, drop unknot summands, order torus parameters p <= q."""
    if isinstance(k, Torus):  # an atom returns at once
        return k if k.p <= k.q else Torus(k.q, k.p)
    parts = _summands(k)
    return Sum(parts) if len(parts) > 1 else parts[0] if parts else UNKNOT


def genus_of_knot(k: KnotExpr) -> KnotGenus:
    """Genus of any knot expression, normalized or not.

    Exact for the unknot, torus knots, table entries with a declared genus,
    and sums of these; otherwise the best bounds.  Genus is additive over
    connected sums.
    """
    if isinstance(k, Torus):  # an atom: no summand walk
        g = _summand_genus(k)
        return KnotGenus(g, g)
    lower, known = 0, True
    for s in _summands(k):
        g = _summand_genus(s)
        # An undeclared table genus stays unknown; nothing certifies the
        # knot nontrivial, so even a positive lower bound would be unsound.
        known = known and g is not None
        lower += g or 0
    return KnotGenus(lower, lower if known else None)


# Largest genus whose polynomial alexander_of_knot builds, and largest genus
# of a stabilized tower polynomial.  Such a polynomial has breadth at most
# 2g, so at most 2g + 1 terms; T(2, 200001) (genus 10^5) takes about 0.13 s.
MAX_GENUS = 10**5


def _torus_alexander(p: int, q: int) -> LaurentPoly:
    # t^e has coefficient [e in S] - [e - 1 in S] for S = <p, q> and e <= c; b < p reaches all of S.
    c = (p - 1) * (q - 1)
    S = {s for b in range(p) for s in range(b * q, c + 1, p)}
    return LaurentPoly({e: 1 if e in S else -1 for e in range(c + 1) if (e in S) != (e - 1 in S)})


def alexander_of_knot(k: KnotExpr) -> LaurentPoly:
    """Alexander polynomial in canonical form.

    Multiplicative over connected sums (the satellite formula with winding
    one).  Raises :class:`InvariantUnavailable` for a table knot without a
    declared polynomial, and ``ValueError`` for a knot whose genus exceeds
    10^5 or a sum whose products together pass 10^7 term pairs.
    """
    return satellite_alexander([(k, 1)])


def satellite_alexander(steps: Iterable[tuple[KnotExpr | LaurentPoly, int]]) -> LaurentPoly:
    """Fold ``D'(t) = D_pattern(t) * D_core(t^w)`` from the unknot over the
    ``(pattern, w)`` steps, in canonical form.  A pattern is a polynomial or
    a knot, whose polynomial is its summands' product (the formula at winding
    one).  Winding zero restarts the fold from the pattern.  Raises as
    :func:`alexander_of_knot` does for each knot pattern, and ``ValueError``
    for a step past breadth 2 * 10^5 or products past 10^7 term pairs in all.
    """
    delta, pairs = ONE, 0
    for pattern, w in steps:
        factor = pattern
        if not isinstance(pattern, LaurentPoly):
            # The summands multiply first: a winding past their breadth spreads
            # D_core(t^w) into clusters, and each product would pay for each one.
            factors = _knot_factors(pattern)
            factor = factors[0]
            for summand in factors[1:]:
                pairs = _term_pairs(pairs, factor, summand)
                factor = factor * summand
        # Breadth adds under products and scales under t -> t^w.  Polynomials
        # of genus within the limit stay within twice it; a tower whose
        # pattern genus is left out need not, so each step is checked.
        breadth = factor.breadth() + w * delta.breadth()
        if breadth > 2 * MAX_GENUS:
            raise ValueError(
                f"the Alexander fold reaches breadth {breadth}, "
                f"which exceeds twice the genus limit {MAX_GENUS}"
            )
        if w == 0 or delta is ONE:
            delta = factor  # Seifert's formula: D_core(t^0) = D_core(1) = +-1, and D_unknot = 1
        else:
            core = delta.subst_power(w)
            pairs = _term_pairs(pairs, factor, core)
            delta = factor * core
    return delta.canonical()


def _knot_factors(k: KnotExpr) -> list[LaurentPoly]:
    """The polynomials of the prime summands of a knot within the genus limit."""
    parts = _summands(k)
    genus = sum(_summand_genus(s) or 0 for s in parts)
    if genus > MAX_GENUS:
        raise ValueError(f"knot genus {quoted(genus)} exceeds the limit {MAX_GENUS}")
    for part in parts:
        if isinstance(part, Table) and part.delta is None:
            raise InvariantUnavailable(f"table knot {quoted(part.name)} has no declared Alexander polynomial")
    return [s.delta if isinstance(s, Table) else _torus_alexander(s.p, s.q) for s in parts] or [ONE]


def prime_summands(k: KnotExpr) -> Counter[KnotExpr]:
    """Multiset of nontrivial prime summands of any knot expression.

    Torus knots are prime; table entries must carry ``prime=True`` to be
    accepted as summands.
    """
    parts = _summands(k)
    for part in parts:
        if isinstance(part, Table) and not part.prime:
            raise NotDecomposable(f"table knot {quoted(part.name)} is not flagged prime "
                                  "and carries no decomposition")
    return Counter(parts)


# Built-in table knots available to the text grammar.  These invariants are
# cross-checked against the diagram corpus in the test suite.
TABLE_KNOTS: dict[str, Table] = {
    "figure_eight": Table("figure_eight", genus=1, delta=parse_poly("1 - 3*t + t^2"), prime=True),
    "5_2": Table("5_2", genus=1, delta=parse_poly("2 - 3*t + 2*t^2"), prime=True),
}

_TORUS_RE = re.compile(rf"{_WS}*torus\({_WS}*([0-9]+){_WS}*,{_WS}*([0-9]+){_WS}*\)")
_TABLE_RE = re.compile(rf"table\({_WS}*([A-Za-z0-9_]+){_WS}*\)")
_SPACE = re.compile(f"{_WS}*")

# Parsing recurses once per ``sum(`` level; the cap keeps deep input a
# ValueError.  It costs nothing, since normalizing flattens sums.
_MAX_NESTING = 100
# Most digits of a torus parameter: a genus then has at most 2,000
# digits, so genera, sums and chain bounds stay printable (Python prints at
# most 4,300 digits).
_MAX_TORUS_DIGITS = 1000


def parse_knot(text: str) -> KnotExpr:
    """Parse the knot-expression grammar; the result is normalized."""
    text = text.strip(_WHITESPACE)
    expr, pos = _parse_expr(text, 0)
    if pos < len(text):  # the stripped text ends in no whitespace
        raise ValueError(f"trailing input in knot expression: {quoted(text[_SPACE.match(text, pos).end():])}")
    return normalize(expr)


def _parse_expr(text: str, pos: int, depth: int = 0) -> tuple[KnotExpr, int]:
    """The expression at ``text[pos:]`` and the index just past it; indexing
    rather than slicing keeps a long flat ``sum(`` linear."""
    m = _TORUS_RE.match(text, pos)  # the commonest atom, leading whitespace and all
    if m:
        p, q = m.groups()
        if len(p) > _MAX_TORUS_DIGITS or len(q) > _MAX_TORUS_DIGITS:
            raise ValueError(f"torus parameter of {max(len(p), len(q))} digits exceeds the limit of "
                             f"{_MAX_TORUS_DIGITS} digits")
        return Torus(int(p), int(q)), m.end()
    pos = _SPACE.match(text, pos).end()
    if text.startswith("unknot", pos):
        return UNKNOT, pos + len("unknot")
    m = _TABLE_RE.match(text, pos)
    if m:
        name = m.group(1)
        if name not in TABLE_KNOTS:
            raise ValueError(f"unknown table knot {quoted(name)}")
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
                return Sum(parts), pos + 1
            raise ValueError(f"expected ';' or ')' in sum(...), got {quoted(text[pos:])}")
    raise ValueError(f"malformed knot expression near {quoted(text[pos:])}")
