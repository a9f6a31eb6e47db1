import doctest
import time

import pytest
from hypothesis import given, strategies as st

import toroidal.laurent
from toroidal.laurent import LaurentPoly, ONE, T, ZERO, parse_poly

polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
).map(LaurentPoly)

nonzero_polys = polys.filter(lambda p: not p.is_zero())


def test_docstring_examples():
    failures, _ = doctest.testmod(toroidal.laurent)
    assert failures == 0


# -- worked examples -------------------------------------------------------


def test_add_cancellation():
    assert parse_poly("1 + t") + parse_poly("1 - t") == LaurentPoly({0: 2})


def test_add_identity():
    p = parse_poly("t^-1 + 3*t^2")
    assert p + ZERO == p


def test_add_keeps_negative_exponents():
    assert parse_poly("t^-1") + T == parse_poly("t^-1 + t")


def test_mul_difference_of_squares():
    assert parse_poly("1 + t") * parse_poly("1 - t") == parse_poly("1 - t^2")


def test_mul_quartic():
    got = parse_poly("t^2 - t + 1") * parse_poly("t^2 - 3*t + 1")
    assert got == parse_poly("t^4 - 4*t^3 + 5*t^2 - 4*t + 1")


def test_mul_identity():
    p = parse_poly("-2 + 7*t^3")
    assert p * ONE == p


def test_subst_power_examples():
    assert parse_poly("t^2 - t + 1").subst_power(2) == parse_poly("t^4 - t^2 + 1")
    p = parse_poly("5 - t^-2")
    assert p.subst_power(1) == p
    assert parse_poly("1 - t").subst_power(3) == parse_poly("1 - t^3")


def test_subst_power_rejects_zero():
    with pytest.raises(ValueError):
        ONE.subst_power(0)


def test_canonical_examples():
    assert parse_poly("-t^3 + t^2 - t").canonical() == parse_poly("1 - t + t^2")
    assert parse_poly("t^-1 - 1 + t").canonical() == parse_poly("1 - t + t^2")
    assert ZERO.canonical() == ZERO
    assert parse_poly("t^2 - t + 1").canonical() == parse_poly("-t^3 + t^2 - t").canonical()
    assert ONE.canonical() == parse_poly("t^5").canonical()
    assert parse_poly("t - 1").canonical() != parse_poly("t + 1").canonical()


def test_breadth_examples():
    assert parse_poly("t^2 - t + 1").breadth() == 2
    assert parse_poly("7").breadth() == 0
    assert parse_poly("t^-1 + t").breadth() == 2
    with pytest.raises(ValueError):
        ZERO.breadth()


def test_evaluate_at_one():
    assert parse_poly("t^2 - t + 1").evaluate_at_one() == 1
    assert parse_poly("t^2 - 3*t + 1").evaluate_at_one() == -1
    assert ZERO.evaluate_at_one() == 0


# -- printing and parsing --------------------------------------------------


def test_printing():
    assert str(ZERO) == "0"
    assert str(parse_poly("1 - t + t^2")) == "1 - t + t^2"
    assert str(LaurentPoly({-1: 1, 1: 1})) == "t^-1 + t"
    assert str(LaurentPoly({0: -2, 3: 4})) == "-2 + 4*t^3"
    assert str(LaurentPoly({-3: -1})) == "-t^-3"


# One row per raise site of parse_poly: the text and its exact message.
POLY_SYNTAX_ERRORS = [
    ("1 + @", "polynomial syntax error at position 4: '@'"),
    ("1 + t^x", "polynomial syntax error at position 5: '^x'"),
    ("", "empty polynomial text"),
    (" \t ", "empty polynomial text"),
    ("1 - t + ", "polynomial syntax error at position 8: expected a term"),
    ("-", "polynomial syntax error at position 1: expected a term"),
    ("3*4", "polynomial syntax error at position 1: expected a power of t after '*'"),
    ("2 *", "polynomial syntax error at position 2: expected a power of t after '*'"),
    ("1 + * t", "polynomial syntax error at position 4: unexpected '*'"),
    ("--t", "polynomial syntax error at position 1: unexpected '-'"),
    ("t t", "polynomial syntax error at position 2: expected '+' or '-', got 't'"),
    ("2 35", "polynomial syntax error at position 2: expected '+' or '-', got '35'"),
    ("t*t", "polynomial syntax error at position 1: expected '+' or '-', got '*'"),
    # Whitespace is ASCII: space, tab, CR and LF.
    ("1\x1c- t", "polynomial syntax error at position 1: '\\x1c- t'"),
    ("\x0c", "polynomial syntax error at position 0: '\\x0c'"),
    # A message quotes at most 60 characters of what it could not read.
    ("1 + " + "@" * 100, f"polynomial syntax error at position 4: '{'@' * 29}...{'@' * 29}' (102 characters)"),
    ("2 " + "3" * 100, f"polynomial syntax error at position 2: expected '+' or '-', got '{'3' * 29}...{'3' * 29}' (102 characters)"),
]


def test_parse_errors_report_position():
    for text, message in POLY_SYNTAX_ERRORS:
        with pytest.raises(ValueError) as exc:
            parse_poly(text)
        assert str(exc.value) == message, text


# 10^6 characters each: lexed to the end, or walked term by term.  A
# backtracking regex or a copy of the rest of the text per term would take
# far longer than the bound.
@pytest.mark.parametrize(
    "text",
    [" " * (10**6 - 1) + "@", "+" * 300_000 + " " * 700_000, "t+" * 100_000 + " " * 800_000],
    ids=["spaces", "operators", "terms"],
)
def test_parse_refuses_long_input_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="position"):
        parse_poly(text)
    assert time.perf_counter() - start < 1.0


@given(polys)
def test_parse_print_round_trip(p):
    assert parse_poly(str(p)) == p


# -- ring axioms and operation laws ---------------------------------------


@given(polys, polys)
def test_add_commutative(p, q):
    assert p + q == q + p


@given(polys, polys)
def test_mul_commutative(p, q):
    assert p * q == q * p


@given(polys, polys, polys)
def test_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@given(polys, polys, polys)
def test_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(polys, polys, polys)
def test_distributive(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(polys)
def test_canonical_idempotent(p):
    assert p.canonical().canonical() == p.canonical()


@given(polys, st.integers(min_value=-4, max_value=4), st.booleans())
def test_canonical_constant_on_unit_orbit(p, n, negate):
    unit = LaurentPoly({n: -1 if negate else 1})
    assert (p * unit).canonical() == p.canonical()


@given(polys, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_subst_power_composes(p, a, b):
    assert p.subst_power(a).subst_power(b) == p.subst_power(a * b)


@given(nonzero_polys, nonzero_polys)
def test_breadth_additive_under_mul(p, q):
    assert (p * q).breadth() == p.breadth() + q.breadth()


@given(polys, polys)
def test_evaluate_at_one_is_ring_hom(p, q):
    assert (p + q).evaluate_at_one() == p.evaluate_at_one() + q.evaluate_at_one()
    assert (p * q).evaluate_at_one() == p.evaluate_at_one() * q.evaluate_at_one()


@given(polys, polys)
def test_sub_inverts_add(p, q):
    assert (p - q) + q == p
    assert p - p == ZERO
    assert -(-p) == p
