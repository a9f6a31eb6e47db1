import math

import pytest
from hypothesis import example, given, strategies as st

from conftest import mirror
from toroidal.knots import (
    TABLE_KNOTS,
    InvariantUnavailable,
    KnotGenus,
    NotDecomposable,
    Sum,
    Table,
    Torus,
    UNKNOT,
    alexander_of_knot,
    genus_of_knot,
    normalize,
    parse_knot,
    prime_summands,
    satellite_alexander,
)
from toroidal.laurent import ONE, LaurentPoly, parse_poly

TREFOIL = Torus(2, 3)
CINQUEFOIL = Torus(2, 5)

# Every knot the symbolic layer can fully evaluate; property tests run over
# this list.
CATALOG = [
    UNKNOT,
    TREFOIL,
    CINQUEFOIL,
    Torus(2, 7),
    Torus(3, 4),
    Torus(3, 5),
    TABLE_KNOTS["figure_eight"],
    TABLE_KNOTS["5_2"],
    Sum((TREFOIL, CINQUEFOIL)),
    Sum((TREFOIL, TREFOIL, TABLE_KNOTS["figure_eight"])),
]


def test_normalize_flattens_and_drops_unknots():
    assert normalize(Sum((Sum((Torus(3, 2),)), UNKNOT))) == Torus(2, 3)
    assert normalize(UNKNOT) == UNKNOT
    s = Sum((TREFOIL, CINQUEFOIL))
    assert normalize(s) == s
    assert normalize(Sum((UNKNOT, UNKNOT))) == UNKNOT


def test_torus_parameter_validation():
    with pytest.raises(ValueError):
        Torus(2, 4)
    with pytest.raises(ValueError):
        Torus(1, 3)


def test_genus_examples():
    assert genus_of_knot(UNKNOT) == KnotGenus(0, 0)
    assert genus_of_knot(TREFOIL) == KnotGenus(1, 1)
    assert genus_of_knot(Sum((TREFOIL, CINQUEFOIL))) == KnotGenus(3, 3)
    assert genus_of_knot(Table("mystery")).upper is None


def test_a_genus_pair_checks_its_bounds():
    for lower, upper, message in [
        (-1, None, "genus lower bound must be nonnegative"),
        (3, 2, "genus upper bound below lower bound"),
    ]:
        with pytest.raises(ValueError) as exc:
            KnotGenus(lower, upper)
        assert str(exc.value) == message


def test_alexander_examples():
    assert alexander_of_knot(UNKNOT) == parse_poly("1")
    assert alexander_of_knot(TREFOIL) == parse_poly("1 - t + t^2")
    assert alexander_of_knot(Sum((TREFOIL, TREFOIL))) == parse_poly(
        "1 - 2*t + 3*t^2 - 2*t^3 + t^4"
    )


def test_alexander_unavailable_for_bare_table():
    with pytest.raises(InvariantUnavailable):
        alexander_of_knot(Table("mystery"))


def test_prime_summands():
    assert prime_summands(TREFOIL) == {TREFOIL: 1}
    assert prime_summands(Sum((TREFOIL, UNKNOT, Torus(3, 4)))) == {
        TREFOIL: 1,
        Torus(3, 4): 1,
    }
    assert prime_summands(UNKNOT) == {}
    assert prime_summands(Sum((TREFOIL, TREFOIL))) == {TREFOIL: 2}
    with pytest.raises(NotDecomposable):
        prime_summands(Table("composite", prime=False))


def test_expression_round_trip():
    for text in ["unknot", "torus(2,3)", "sum(torus(2,3); torus(2,5))", "table(figure_eight)"]:
        assert str(parse_knot(text)) == text
    assert parse_knot("sum(sum(torus(3,2)); unknot)") == Torus(2, 3)
    with pytest.raises(ValueError):
        parse_knot("torus(2,4)")
    with pytest.raises(ValueError):
        parse_knot("table(nonexistent)")
    with pytest.raises(ValueError):
        parse_knot("sum()")


# One row per raise site of parse_knot and the constructors it calls: the
# text and its exact message.
KNOT_SYNTAX_ERRORS = [
    ("sum(unknot unknot)", "expected ';' or ')' in sum(...), got 'unknot)'"),
    ("torus(2,3) x", "trailing input in knot expression: 'x'"),
    # Whitespace is ASCII: space, tab, CR and LF.
    ("torus(2,\u3000 3)", "malformed knot expression near 'torus(2,\\u3000 3)'"),
    ("torus(2,3) \x0c", "trailing input in knot expression: '\\x0c'"),
    ("knot", "malformed knot expression near 'knot'"),
    ("", "malformed knot expression near ''"),
    ("sum()", "malformed knot expression near ')'"),
    ("sum(unknot;", "malformed knot expression near ''"),
    ("table(nope)", "unknown table knot 'nope'"),
    ("torus(2,4)", "torus knot parameters must be coprime, got (2, 4)"),
    ("torus(1,3)", "torus knot parameters must be >= 2, got (1, 3)"),
    ("sum(" * 101, "knot expression nests sum(...) deeper than 100 levels"),
    # Parameters are refused by their length, before they are converted.
    ("torus(2," + "1" * 1001 + ")", "torus parameter of 1001 digits exceeds the limit of 1000 digits"),
    ("sum(unknot; torus(" + "9" * 5001 + ",2))",
     "torus parameter of 5001 digits exceeds the limit of 1000 digits"),
    # A message quotes at most 60 characters of what it could not read.
    ("sum(unknot " + "x" * 100 + ")", f"expected ';' or ')' in sum(...), got '{'x' * 29}...{'x' * 28})' (103 characters)"),
    ("sum(unknot; " + "x" * 100, f"malformed knot expression near '{'x' * 29}...{'x' * 29}' (102 characters)"),
]


def test_knot_parse_errors_are_exact():
    for text, message in KNOT_SYNTAX_ERRORS:
        with pytest.raises(ValueError) as exc:
            parse_knot(text)
        assert str(exc.value) == message, text


def test_a_torus_parameter_of_the_longest_length_is_read():
    q = 10**1000 - 1  # 1,000 digits
    k = parse_knot(f"torus(2,{q})")
    assert k == Torus(2, q) and genus_of_knot(k) == KnotGenus(q // 2, q // 2)
    # The largest genus the grammar reads has 2,000 digits, so it prints.
    assert len(str(genus_of_knot(parse_knot(f"torus({q - 1},{q})")))) == 2000


_SPACES = st.sampled_from(["", " ", "  ", "\t", " \n"])


@st.composite
def _knot_texts(draw, depth=0):
    """A random knot expression's text, with random whitespace, and the
    expression itself, or ``None`` where some torus parameters are invalid."""
    def ws() -> str:
        return draw(_SPACES)

    roll = draw(st.integers(0, 3 if depth < 2 else 2))
    if roll == 0:
        return f"{ws()}unknot{ws()}", UNKNOT
    if roll == 1:
        p, q = draw(st.integers(0, 12)), draw(st.integers(0, 12))
        try:
            k = Torus(p, q)
        except ValueError:
            k = None
        return f"{ws()}torus({ws()}{p}{ws()},{ws()}{q}{ws()}){ws()}", k
    if roll == 2:
        name = draw(st.sampled_from(sorted(TABLE_KNOTS)))
        return f"{ws()}table({ws()}{name}{ws()}){ws()}", TABLE_KNOTS[name]
    parts = [draw(_knot_texts(depth + 1)) for _ in range(draw(st.integers(1, 3)))]
    knots = tuple(k for _, k in parts)
    text = f"{ws()}sum({';'.join(t for t, _ in parts)}){ws()}"
    return text, None if any(k is None for k in knots) else Sum(knots)


def _read(text: str):
    try:
        return parse_knot(text)
    except ValueError as exc:
        return str(exc)


@given(_knot_texts())
@example((" torus( 5 , 2 ) ", Torus(5, 2)))
@example(("torus(2,4)", None))
@example(("torus(1,3)", None))
def test_knot_atoms_read_as_their_summand_walk(case):
    # An atom returns at once from the parser and the knot readers; read as
    # the summand of a sum, it goes through the summand walk.  Both agree,
    # and a bad atom raises the same message either way.
    text, k = case
    parsed = _read(text)
    assert parsed == _read(f"sum({text}; unknot)")
    if k is not None:
        walked = Sum((k, UNKNOT))
        assert normalize(k) == normalize(walked) == parsed
        assert genus_of_knot(k) == genus_of_knot(walked)
    else:
        assert parsed.startswith("torus knot parameters must be ")


def test_long_flat_sum_parses_in_linear_time():
    # 200,000 summands, 2.4 MB: a parser that copies the rest of the input
    # at every token needs about 20 s here.
    import time

    text = "sum(" + "; ".join(["torus(2,3)"] * 200_000) + ")"
    start = time.perf_counter()
    k = parse_knot(text)
    assert time.perf_counter() - start < 5
    assert k == Sum((Torus(2, 3),) * 200_000)


def test_alexander_genus_limit():
    # T(2, 200001) has genus 10^5, the largest allowed.
    assert len(alexander_of_knot(Torus(2, 200001)).terms) == 200_001
    for knot, genus in [
        (Torus(2, 200003), 100_001),
        (Torus(100001, 100003), 5_000_100_000),
        (Sum((Torus(2, 100001), Torus(2, 100003))), 100_001),
    ]:
        with pytest.raises(ValueError, match=f"knot genus {genus} exceeds the limit 100000"):
            alexander_of_knot(knot)


# Nested, unnormalized expressions: unknots, tori in either parameter order
# (one past the genus limit), the grammar's tables and custom tables with or
# without a genus and a polynomial, flagged prime or not.
_CUSTOM_TABLES = st.tuples(
    st.sampled_from(["a", "b"]),
    st.none() | st.integers(0, 3),
    st.none() | st.sampled_from([ONE, parse_poly("1 - t + t^2"), parse_poly("2 - 3*t")]),
    st.booleans(),
).filter(lambda a: not (a[3] and a[1] == 0)).map(lambda a: Table(*a))
_LEAVES = st.one_of(
    st.just(UNKNOT),
    st.sampled_from([Torus(3, 2), Torus(2, 5), Torus(5, 3), Torus(4, 3), Torus(200003, 2)]),
    st.sampled_from(list(TABLE_KNOTS.values())),
    _CUSTOM_TABLES,
)


def _nested(depth):
    if depth == 0:
        return _LEAVES
    return _LEAVES | st.lists(_nested(depth - 1), min_size=1, max_size=4).map(lambda ps: Sum(tuple(ps)))


def _outcome(reader, k):
    try:
        return ("value", reader(k))
    except ValueError as e:
        return (type(e), str(e))


@given(_nested(4))
def test_readers_agree_with_the_normal_form(k):
    n = normalize(k)
    assert normalize(n) == n
    for reader in (genus_of_knot, prime_summands, alexander_of_knot):
        assert _outcome(reader, k) == _outcome(reader, n)
    parts = n.parts if isinstance(n, Sum) else (n,)
    if all(not isinstance(part, Table) or TABLE_KNOTS.get(part.name) is part for part in parts):
        assert parse_knot(str(n)) == n


def test_readers_walk_a_deep_sum_like_its_flat_form():
    # 5,000 levels, five times the recursion limit: each level wraps the sum
    # so far between an unknot and, every 1,000 levels, a torus knot.
    deep, flat = Torus(3, 2), [Torus(3, 2)]
    for level in range(5_000):
        if level % 1_000:
            deep = Sum((deep,))
        else:
            torus = Torus(2 * (level // 1_000) + 5, 2)
            deep = Sum((UNKNOT, deep, torus))
            flat.append(torus)
    flat = Sum(tuple(flat))
    assert normalize(deep) == normalize(flat) == Sum(tuple(Torus(2, q) for q in range(3, 15, 2)))
    for reader in (genus_of_knot, alexander_of_knot, prime_summands):
        assert reader(deep) == reader(flat)
    assert genus_of_knot(deep) == KnotGenus(21, 21)  # 1 + 2 + ... + 6


_PRIMES = st.sampled_from([TREFOIL, CINQUEFOIL, Torus(3, 4), Torus(3, 5), *TABLE_KNOTS.values()])
_PATTERNS = st.one_of(
    st.just(UNKNOT),
    _PRIMES,
    st.lists(_PRIMES, min_size=2, max_size=3).map(lambda parts: Sum(tuple(parts))),
    st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), min_size=1, max_size=4)
    .map(LaurentPoly)
    .filter(bool),
)


def _satellite_reference(steps):
    # D'(t) = D_pattern(t) * D_core(t^w), one step at a time; winding zero
    # leaves the pattern alone, and a sum's polynomial is its summands' product.
    delta = ONE
    for pattern, w in steps:
        if not isinstance(pattern, LaurentPoly):
            parts = pattern.parts if isinstance(pattern, Sum) else (pattern,)
            pattern = ONE
            for part in parts:
                pattern = pattern * alexander_of_knot(part)
        delta = pattern if w == 0 else pattern * delta.subst_power(w)
    return delta.canonical()


@given(st.lists(st.tuples(_PATTERNS, st.integers(0, 3)), max_size=4))
@example([])
@example([(TREFOIL, 1), (CINQUEFOIL, 2)])
@example([(TREFOIL, 1), (TABLE_KNOTS["figure_eight"], 0), (parse_poly("2 - 3*t"), 3)])
@example([(Torus(3, 4), 1), (Sum((TREFOIL, TABLE_KNOTS["5_2"])), 2)])
def test_satellite_fold_matches_the_formula(steps):
    assert satellite_alexander(steps) == _satellite_reference(steps)


def test_satellite_fold_examples():
    assert satellite_alexander([]) == ONE
    # A trefoil pattern of winding 2 around a trefoil core.
    assert satellite_alexander([(TREFOIL, 1), (TREFOIL, 2)]) == parse_poly(
        "1 - t + t^3 - t^5 + t^6"
    )
    assert satellite_alexander([(TREFOIL, 1), (CINQUEFOIL, 0)]) == alexander_of_knot(CINQUEFOIL)


def test_torus_alexander_times_its_denominator():
    # (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)), checked by multiplying back.
    def binomial(n):
        return LaurentPoly({n: 1, 0: -1})

    pairs = [(p, q) for p in range(2, 40) for q in range(p + 1, 60) if math.gcd(p, q) == 1]
    assert len(pairs) == 902
    for p, q in pairs:
        delta = alexander_of_knot(Torus(p, q))
        assert delta * binomial(p) * binomial(q) == binomial(p * q) * binomial(1), (p, q)


@pytest.mark.parametrize("knot", CATALOG, ids=str)
def test_alexander_at_one_is_unit(knot):
    assert abs(alexander_of_knot(knot).evaluate_at_one()) == 1


@pytest.mark.parametrize("knot", CATALOG, ids=str)
def test_alexander_symmetric(knot):
    delta = alexander_of_knot(knot)
    assert delta.canonical() == mirror(delta).canonical()


@pytest.mark.parametrize("knot", CATALOG, ids=str)
def test_breadth_bounded_by_twice_genus(knot):
    g = genus_of_knot(knot)
    delta = alexander_of_knot(knot)
    assert g.is_exact
    if not delta.is_zero():
        assert delta.breadth() <= 2 * g.lower


@pytest.mark.parametrize("a", CATALOG[:6], ids=str)
@pytest.mark.parametrize("b", CATALOG[:6], ids=str)
def test_genus_additive_and_alexander_multiplicative(a, b):
    s = Sum((a, b))
    ga, gb, gs = genus_of_knot(a), genus_of_knot(b), genus_of_knot(s)
    total = ga.lower + gb.lower
    assert gs == KnotGenus(total, total)
    assert alexander_of_knot(s).canonical() == (
        alexander_of_knot(a) * alexander_of_knot(b)
    ).canonical()
