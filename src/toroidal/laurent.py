"""Exact arithmetic in the ring of integer Laurent polynomials Z[t, t^-1].

Polynomials are stored sparsely as sorted ``(exponent, coefficient)`` pairs
with no zero coefficients; the zero polynomial has no terms.  Coefficients
are plain Python integers, so the arithmetic is exact at any size.  Values
are immutable and hashable, and every operation returns a fresh object, so
they can be shared freely across threads.

Alexander polynomials are only defined up to multiplication by a unit
``±t^n``.  :meth:`LaurentPoly.canonical` fixes the representative whose
lowest exponent is zero and whose lowest coefficient is positive, which
turns unit-equality into structural equality.

The text form accepted by :func:`parse_poly` and produced by ``str()`` is

    poly  :=  "0"  |  [-] term ( (+|-) term )*
    term  :=  INT [ "*" tpow ]  |  tpow
    tpow  :=  "t" [ "^" SIGNED_INT ]

with terms printed in ascending exponent order, e.g. ``1 - t + t^2`` or
``t^-1 + t``.  Whitespace is ignored when parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = ["LaurentPoly", "ZERO", "ONE", "T", "parse_poly"]


@dataclass(frozen=True, init=False)
class LaurentPoly:
    """An element of Z[t, t^-1], built from a ``dict`` of exponent to
    coefficient; zero coefficients are dropped.  ``LaurentPoly()`` is zero.

    >>> print(LaurentPoly({2: 1, 0: 1, 1: 0}))
    1 + t^2
    """

    terms: tuple[tuple[int, int], ...]

    def __init__(self, coeffs: dict[int, int] | None = None):
        terms = sorted([(e, c) for e, c in coeffs.items() if c]) if coeffs else ()
        object.__setattr__(self, "terms", tuple(terms))

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, exp: int) -> int:
        for e, c in self.terms:
            if e == exp:
                return c
        return 0

    def breadth(self) -> int:
        """Degree span, ``max exponent - min exponent``.

        >>> parse_poly("1 - t + t^2").breadth()
        2
        >>> parse_poly("t^-1 + t").breadth()
        2
        """
        if not self.terms:
            raise ValueError("breadth of the zero polynomial is undefined")
        return self.terms[-1][0] - self.terms[0][0]

    def evaluate_at_one(self) -> int:
        """Sum of the coefficients."""
        return sum(c for _, c in self.terms)

    def is_unit(self) -> bool:
        """True for ``±t^n``."""
        return len(self.terms) == 1 and abs(self.terms[0][1]) == 1

    # -- ring operations -----------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return LaurentPoly(acc)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self.terms})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative powers are not defined in Z[t, t^-1]")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def subst_power(self, w: int) -> LaurentPoly:
        """Substitute ``t -> t^w`` for a positive integer ``w``.

        >>> print(parse_poly("1 - t + t^2").subst_power(2))
        1 - t^2 + t^4
        """
        if w < 1:
            raise ValueError("substitution power must be >= 1")
        if w == 1:
            return self
        return LaurentPoly({w * e: c for e, c in self.terms})

    def mirror(self) -> LaurentPoly:
        """Substitute ``t -> t^-1``."""
        return LaurentPoly({-e: c for e, c in self.terms})

    def exact_div(self, divisor: LaurentPoly) -> LaurentPoly:
        """Exact quotient ``self / divisor`` in Z[t, t^-1].

        Raises :class:`ValueError` when the division is not exact.  This is
        what fraction-free elimination needs: quotients that are known to
        exist are recovered without ever leaving the ring.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return ZERO
        # Shift both operands to honest polynomials (lowest exponent 0).
        slow, dlow = self.terms[0][0], divisor.terms[0][0]
        shift = slow - dlow
        num = {e - slow: c for e, c in self.terms}
        den = {e - dlow: c for e, c in divisor.terms}
        dd = max(den)
        dlead = den[dd]
        quot: dict[int, int] = {}
        while num:
            nd = max(num)
            if nd < dd:
                raise ValueError("polynomial division is not exact")
            q, r = divmod(num[nd], dlead)
            if r != 0:
                raise ValueError("polynomial division is not exact")
            quot[nd - dd] = q
            for e, c in den.items():
                k = e + nd - dd
                v = num.get(k, 0) - q * c
                if v:
                    num[k] = v
                else:
                    num.pop(k, None)
        return LaurentPoly({e + shift: c for e, c in quot.items()})

    # -- unit normalization ---------------------------------------------

    def canonical(self) -> LaurentPoly:
        """The representative ``±t^n * self`` with lowest exponent 0 and
        positive lowest coefficient.

        >>> print(parse_poly("-t + t^2 - t^3").canonical())
        1 - t + t^2
        """
        if not self.terms:
            return self
        low, lead = self.terms[0]
        sign = 1 if lead > 0 else -1
        return LaurentPoly({e - low: sign * c for e, c in self.terms})

    def equal_up_to_unit(self, other: LaurentPoly) -> bool:
        """True when ``self = ±t^n * other`` for some integer ``n``."""
        return self.canonical() == other.canonical()

    # -- text form -------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for i, (e, c) in enumerate(self.terms):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                tp = "t" if e == 1 else f"t^{e}"
                body = tp if mag == 1 else f"{mag}*{tp}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})
T = LaurentPoly({1: 1})

_TOKEN = re.compile(r"\d+|t(?:\^-?\d+)?|[+*-]")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the textual polynomial form documented in the module docstring.

    >>> parse_poly("1 - t + t^2") == LaurentPoly({0: 1, 1: -1, 2: 1})
    True
    >>> parse_poly("  -2*t^-3+7 ").coefficient(-3)
    -2
    """
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if not m:
            raise ValueError(f"polynomial syntax error at position {i}: {text[i:i+10]!r}")
        tokens.append((m.group(), i))
        i = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    terms: dict[int, int] = {0: 0}
    k = 0

    def fail(where: int, why: str) -> ValueError:
        return ValueError(f"polynomial syntax error at position {where}: {why}")

    def take_term(sign: int) -> None:
        nonlocal k
        if k >= len(tokens):
            raise fail(len(text), "expected a term")
        tok, where = tokens[k]
        if tok.isdigit():
            coeff = sign * int(tok)
            k += 1
            if k < len(tokens) and tokens[k][0] == "*":
                k += 1
                if k >= len(tokens) or not tokens[k][0].startswith("t"):
                    raise fail(tokens[k - 1][1], "expected a power of t after '*'")
                exp = _exp_of(tokens[k][0])
                k += 1
            else:
                exp = 0
        elif tok.startswith("t"):
            coeff = sign
            exp = _exp_of(tok)
            k += 1
        else:
            raise fail(where, f"unexpected {tok!r}")
        terms[exp] = terms.get(exp, 0) + coeff

    sign = 1
    if tokens[0][0] in "+-":
        sign = -1 if tokens[0][0] == "-" else 1
        k = 1
    take_term(sign)
    while k < len(tokens):
        tok, where = tokens[k]
        if tok not in "+-":
            raise fail(where, f"expected '+' or '-', got {tok!r}")
        k += 1
        take_term(-1 if tok == "-" else 1)
    return LaurentPoly(terms)


def _exp_of(tok: str) -> int:
    return 1 if tok == "t" else int(tok[2:])
