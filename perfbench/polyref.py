"""Reference integer-polynomial arithmetic for checking benchmark outputs.

Expected Alexander polynomials are computed here, independently of
``toroidal.laurent``.  A polynomial is a list of integer coefficients,
index = exponent, in canonical form: lowest exponent 0, positive lowest
coefficient, no trailing zeros.  The unknot is ``[1]``.
"""

from __future__ import annotations

import re

ONE = [1]


def canonical(coeffs: list[int]) -> list[int]:
    lo = 0
    while lo < len(coeffs) and coeffs[lo] == 0:
        lo += 1
    hi = len(coeffs)
    while hi > lo and coeffs[hi - 1] == 0:
        hi -= 1
    out = coeffs[lo:hi]
    if out and out[0] < 0:
        out = [-c for c in out]
    return out


def mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def subst_power(a: list[int], w: int) -> list[int]:
    """``a(t^w)`` for ``w >= 1``."""
    out = [0] * ((len(a) - 1) * w + 1)
    for i, c in enumerate(a):
        out[i * w] = c
    return out


def torus(p: int, q: int) -> list[int]:
    """Alexander polynomial of T(p, q): (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1))."""
    # (t^pq - 1) / (t^p - 1) = sum_{i<q} t^(i p), then times (t - 1).
    geo = [0] * (p * (q - 1) + 1)
    for i in range(q):
        geo[i * p] = 1
    num = [0] * (len(geo) + 1)
    for k, c in enumerate(geo):
        num[k + 1] += c
        num[k] -= c
    # Divide by t^q - 1 from the bottom: num[k] = quot[k - q] - quot[k].
    deg = len(num) - 1 - q
    quot = [0] * (deg + 1)
    for k in range(deg + 1):
        quot[k] = (quot[k - q] if k >= q else 0) - num[k]
    for k in range(deg + 1, len(num)):
        if num[k] != (quot[k - q] if 0 <= k - q <= deg else 0):
            raise ArithmeticError(f"T({p},{q}): division by t^{q} - 1 is not exact")
    return canonical(quot)


def product(polys: list[list[int]]) -> list[int]:
    out = ONE
    for p in polys:
        out = mul(out, p)
    return canonical(out)


def breadth(a: list[int]) -> int:
    return len(a) - 1


_TERM = re.compile(r"([+-]?)\s*(?:(\d+)\*?)?(t(?:\^(-?\d+))?)?")


def parse(text: str) -> list[int]:
    """Parse the ``1 - 3*t + t^2`` text form into canonical coefficients."""
    text = text.strip()
    if text == "0":
        return []
    terms: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        if text[pos] == " ":
            pos += 1
            continue
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"cannot read polynomial text at {text[pos:pos + 12]!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = int(m.group(2)) if m.group(2) else 1
        exp = 0 if not m.group(3) else (int(m.group(4)) if m.group(4) else 1)
        terms[exp] = terms.get(exp, 0) + sign * coeff
        pos = m.end()
    low = min(terms)
    out = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        out[e - low] += c
    return canonical(out)
