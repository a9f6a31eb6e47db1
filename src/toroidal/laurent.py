"""Exact arithmetic in the ring of integer Laurent polynomials Z[t, t^-1].

Polynomials are stored sparsely as sorted ``(exponent, coefficient)`` pairs
with no zero coefficients; the zero polynomial has no terms.  Coefficients
are plain Python integers, so the arithmetic is exact at any size.  Values
are immutable and hashable, so they can be shared freely across threads;
``canonical()`` and ``subst_power(1)`` may return the value itself.

Alexander polynomials are only defined up to multiplication by a unit
``±t^n``.  :meth:`LaurentPoly.canonical` fixes the representative whose
lowest exponent is zero and whose lowest coefficient is positive, which
turns unit-equality into structural equality.

The text form accepted by :func:`parse_poly` and produced by ``str()`` is

    poly  :=  "0"  |  [-] term ( (+|-) term )*
    term  :=  INT [ "*" tpow ]  |  tpow
    tpow  :=  "t" [ "^" SIGNED_INT ]

with terms printed in ascending exponent order, e.g. ``1 - t + t^2`` or
``t^-1 + t``.  ``INT`` is a run of ASCII digits ``0-9``; ASCII whitespace
(space, tab, CR, LF), and no other, is ignored when parsing.  Every
message of the package shows a value it was given, unknown command-line
words and file paths included, through :func:`quoted`: one rule, which
escapes control characters and cuts.
"""

from __future__ import annotations

import re
from collections import namedtuple

__all__ = ["LaurentPoly", "ZERO", "ONE", "T", "parse_poly", "value_type", "kept_fact", "quoted"]


def _frozen(self, name: str, *value) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {quoted(name)}")


def value_type(name: str, fields: str, defaults: tuple = ()) -> type:
    """A named-tuple base for an immutable value type: equal only to a value
    of the same type with equal fields, always true, closed to assignment.
    ``_replace`` builds its edited copy through the subclass's constructor.
    A subclass sets ``__slots__ = ()`` unless it keeps derived facts in
    :class:`kept_fact`s, which write its ``__dict__`` directly.

    The hash runs in Python so that hashing a deeply nested value raises
    ``RecursionError`` rather than overflowing the C stack.
    """

    class Value(namedtuple(name, fields, defaults=defaults)):
        __slots__ = ()
        __setattr__ = __delattr__ = _frozen
        _make = classmethod(lambda cls, fields: cls(*fields))

        def __eq__(self, other: object) -> bool:
            return type(other) is type(self) and tuple.__eq__(self, other)

        def __ne__(self, other: object) -> bool:
            return not self == other

        def __hash__(self) -> int:
            return tuple.__hash__(self)

        def __bool__(self) -> bool:
            return True

    return Value


class kept_fact:
    """A derived fact of an immutable value, computed on first read and kept
    in the instance's ``__dict__``, which later reads find before this
    descriptor.  A fact that raises keeps nothing, so the next read raises
    again.  No lock is taken: a fact is pure, so two threads that race on a
    first read compute the same value and one of them keeps it.
    """

    def __init__(self, fact):
        self.fact = fact
        self.__doc__ = fact.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner: type | None = None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.fact(instance)
        return value


_MAX_QUOTED = 60


def quoted(value) -> str:
    """``repr(value)``, cut and marked when longer than ``_MAX_QUOTED`` so that a
    message stays one short line; an integer too long to print gives its bit length.

    A cut keeps both ends, half of ``_MAX_QUOTED`` each, so a long path still
    names its file:

    >>> print(quoted("/" + "d/" * 40 + "bad.json"))
    '/d/d/d/d/d/d/d/d/d/d/d/d/d/d/.../d/d/d/d/d/d/d/d/d/d/bad.json' (91 characters)
    """
    try:
        text = repr(value)
    except ValueError:
        return f"an integer of {value.bit_length()} bits"
    if len(text) <= _MAX_QUOTED:
        return text
    return text[:_MAX_QUOTED // 2] + "..." + text[-(_MAX_QUOTED // 2):] + f" ({len(text)} characters)"


# Most pairs of terms one computation multiplies: one product, or all the
# products of a fold (a sum's summands; a tower's prefix and the sums its
# stages swallow) together.  Products are term by term, at about 0.2 us per
# pair of small coefficients (Xeon, Python 3.11): 1.2-2.1 s at the limit for
# one product.  A fold's coefficients grow, and big-integer pairs cost more:
# 10^4 swallowed trefoils reach the limit at 2,887-bit coefficients after 5-6 s.
_MAX_TERM_PAIRS = 10**7


def _term_pairs(spent: int, a: LaurentPoly, b: LaurentPoly) -> int:
    """``spent`` plus the term pairs of ``a * b``; ``ValueError`` past the limit."""
    total = spent + len(a.terms) * len(b.terms)
    if total > _MAX_TERM_PAIRS:
        raise ValueError(
            f"a product of {len(a.terms)} by {len(b.terms)} terms exceeds the limit of "
            f"{_MAX_TERM_PAIRS} term pairs per computation ({total} in all)"
        )
    return total


class LaurentPoly:
    """An element of Z[t, t^-1], built from a ``dict`` of exponent to
    coefficient; zero coefficients are dropped.  ``LaurentPoly()`` is zero.
    ``terms`` holds the sorted ``(exponent, coefficient)`` pairs.

    >>> print(LaurentPoly({2: 1, 0: 1, 1: 0}))
    1 + t^2
    """

    __slots__ = ("terms",)
    __setattr__ = __delattr__ = _frozen

    def __init__(self, coeffs: dict[int, int] | None = None):
        terms = sorted([(e, c) for e, c in coeffs.items() if c]) if coeffs else ()
        object.__setattr__(self, "terms", tuple(terms))

    def __eq__(self, other: object) -> bool:
        return type(other) is LaurentPoly and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __reduce__(self):
        return LaurentPoly, (dict(self.terms),)

    # -- basic queries -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

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
        """Term-by-term product; ``ValueError`` past 10^7 pairs of terms."""
        _term_pairs(0, self, other)
        acc: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = acc.get(e, 0) + c1 * c2
        return LaurentPoly(acc)

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

    # -- unit normalization ---------------------------------------------

    def canonical(self) -> LaurentPoly:
        """The representative ``±t^n * self`` with lowest exponent 0 and
        positive lowest coefficient.

        >>> print(parse_poly("-t + t^2 - t^3").canonical())
        1 - t + t^2
        """
        if not self.terms or (self.terms[0][0] == 0 and self.terms[0][1] > 0):
            return self
        low, lead = self.terms[0]
        sign = 1 if lead > 0 else -1
        return LaurentPoly({e - low: sign * c for e, c in self.terms})

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

# One token each: INT, a power of t, or an operator.  _LEXED spans the
# longest run of tokens and whitespace, so it ends at the first bad character.
# _TERM takes one optional term and the whitespace around it.  _WHITESPACE
# is what every grammar of the package skips, as characters to strip and as
# the regex class _WS.
_WHITESPACE = " \t\r\n"
_WS = f"[{_WHITESPACE}]"
_TPOW = r"t(?:\^-?[0-9]+)?"
_TOKEN = re.compile(rf"[0-9]+|{_TPOW}|[+*-]")
_LEXED = re.compile(rf"(?:{_WS}+|{_TOKEN.pattern})*")
_TERM = re.compile(rf"{_WS}*(?:([0-9]+)(?:{_WS}*(\*){_WS}*({_TPOW})?)?|({_TPOW}))?{_WS}*")


def parse_poly(text: str) -> LaurentPoly:
    """Parse the textual polynomial form documented in the module docstring.

    >>> parse_poly("1 - t + t^2") == LaurentPoly({0: 1, 1: -1, 2: 1})
    True
    >>> parse_poly("  -2*t^-3+7 ") == LaurentPoly({-3: -2, 0: 7})
    True
    """
    pos = _LEXED.match(text).end()
    if pos < len(text):
        raise ValueError(f"polynomial syntax error at position {pos}: {quoted(text[pos:])}")
    if not text.strip(_WHITESPACE):
        raise ValueError("empty polynomial text")
    terms: dict[int, int] = {0: 0}
    pos = len(text) - len(text.lstrip(_WHITESPACE))
    while True:
        # The first term's sign is optional; every later one has its sign.
        sign = -1 if text[pos] == "-" else 1
        if text[pos] in "+-":
            pos += 1
        m = _TERM.match(text, pos)
        digits, tpow = m[1], m[3] or m[4]
        if digits is None and tpow is None:
            pos = m.end()
            why = "expected a term" if pos == len(text) else f"unexpected {quoted(text[pos])}"
            break
        coeff = sign * int(digits) if digits else sign
        if m[2] and not m[3]:
            pos, why = m.start(2), "expected a power of t after '*'"
            break
        exp = 0 if tpow is None else 1 if tpow == "t" else int(tpow[2:])
        terms[exp] = terms.get(exp, 0) + coeff
        pos = m.end()
        if pos == len(text):
            return LaurentPoly(terms)
        if text[pos] not in "+-":
            why = f"expected '+' or '-', got {quoted(_TOKEN.match(text, pos)[0])}"
            break
    raise ValueError(f"polynomial syntax error at position {pos}: {why}")
