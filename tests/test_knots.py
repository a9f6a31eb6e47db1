import pytest

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
    torus_knots_equivalent,
)
from toroidal.laurent import parse_poly

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
    assert genus_of_knot(UNKNOT) == KnotGenus.exact(0)
    assert genus_of_knot(TREFOIL) == KnotGenus.exact(1)
    assert genus_of_knot(Sum((TREFOIL, CINQUEFOIL))) == KnotGenus.exact(3)
    assert genus_of_knot(Table("mystery")).upper is None


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


def test_torus_knots_equivalent():
    assert torus_knots_equivalent(2, 3, 3, 2)
    assert not torus_knots_equivalent(2, 3, 2, 5)
    assert torus_knots_equivalent(2, 3, 2, 3)


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


def test_long_flat_sum_parses_in_linear_time():
    # 200,000 summands, 2.4 MB: a parser that copies the rest of the input
    # at every token needs about 20 s here.
    import time

    text = "sum(" + "; ".join(["torus(2,3)"] * 200_000) + ")"
    start = time.perf_counter()
    k = parse_knot(text)
    assert time.perf_counter() - start < 5
    assert k == Sum((Torus(2, 3),) * 200_000)


@pytest.mark.parametrize("knot", CATALOG, ids=str)
def test_alexander_at_one_is_unit(knot):
    assert abs(alexander_of_knot(knot).evaluate_at_one()) == 1


@pytest.mark.parametrize("knot", CATALOG, ids=str)
def test_alexander_symmetric(knot):
    delta = alexander_of_knot(knot)
    assert delta.equal_up_to_unit(delta.mirror())


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
    assert gs == KnotGenus.exact(ga.lower + gb.lower)
    assert alexander_of_knot(s).equal_up_to_unit(
        alexander_of_knot(a) * alexander_of_knot(b)
    )
