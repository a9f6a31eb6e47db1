import itertools

import pytest
from hypothesis import given, strategies as st

from conftest import mirror, torus_2_pd
from toroidal.diagrams import (
    MAX_CROSSINGS,
    InternalInconsistencyError,
    PDSyntaxError,
    PDValidationError,
    alexander_from_diagram,
    alexander_matrix,
    corpus_names,
    genus_bounds,
    load_corpus_diagram,
    parse_pd,
    seifert_circle_count,
    seifert_genus_upper,
    _det_kronecker,
)
from toroidal.knots import Sum, TABLE_KNOTS, Torus, alexander_of_knot, genus_of_knot
from toroidal.laurent import ONE, ZERO, LaurentPoly, T, parse_poly

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
FIGURE_EIGHT_PD = "PD[X[4,2,5,1],X[8,6,1,5],X[6,3,7,4],X[2,7,3,8]]"

# What each corpus file must evaluate to, per the closed-form layer.
CORPUS_EXPECTED = {
    "trefoil": Torus(2, 3),
    "figure_eight": TABLE_KNOTS["figure_eight"],
    "torus_2_5": Torus(2, 5),
    "torus_2_7": Torus(2, 7),
    "torus_3_4": Torus(3, 4),
    "granny": Sum((Torus(2, 3), Torus(2, 3))),
}


def cofactor_det(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Plain cofactor expansion; the independent cross-check for Bareiss."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    total = ZERO
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


# -- parsing ----------------------------------------------------------------


def test_parse_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert d.n == 3
    assert all(c.sign == -1 for c in d.crossings)


def test_parse_empty_is_unknot():
    d = parse_pd("PD[]")
    assert d.n == 0
    assert alexander_from_diagram(d) == ONE
    assert genus_bounds(d) == (0, 0)


def test_parse_is_whitespace_insensitive():
    spaced = "  PD[ X[1,4,2,5] ,\n X[3,6,4,1],X[5,2,6,3] ]  "
    assert parse_pd(spaced) == parse_pd(TREFOIL_PD)


def test_syntax_errors_carry_positions():
    with pytest.raises(PDSyntaxError, match="position"):
        parse_pd("PD[X[1,2,3]]")
    with pytest.raises(PDSyntaxError):
        parse_pd("QD[X[1,2,3,4]]")
    with pytest.raises(PDSyntaxError):
        parse_pd("PD[X[1,2,3,4]")


def test_validation_errors():
    # labels not 1..2n
    with pytest.raises(PDValidationError):
        parse_pd("PD[X[1,4,2,9],X[3,6,4,1],X[5,2,6,3]]")
    # a label occurring twice in one slot role
    with pytest.raises(PDValidationError):
        parse_pd("PD[X[1,3,2,4],X[1,4,2,3]]")


def test_crossing_cap():
    assert MAX_CROSSINGS == 100
    assert parse_pd(torus_2_pd(99)).n == 99
    with pytest.raises(PDValidationError, match="101 crossings; the limit is 100"):
        parse_pd(torus_2_pd(101))


def test_two_component_link_rejected():
    # The Hopf link: labels are consecutive within each component only.
    with pytest.raises(PDValidationError, match="links are rejected"):
        parse_pd("PD[X[4,1,3,2],X[2,3,1,4]]")


def test_one_crossing_kink():
    d = parse_pd("PD[X[1,2,2,1]]")
    assert alexander_from_diagram(d) == ONE
    assert seifert_genus_upper(d) == 0
    assert genus_bounds(d) == (0, 0)


# -- the trefoil matrix, checked by hand ------------------------------------


def test_trefoil_matrix_entries():
    """The three Wirtinger rows of the standard trefoil code.

    Arcs: A = edges {2,3}, B = {4,5}, C = {6,1}.  All crossings negative,
    so each row reads: over 1-t, incoming under -1, outgoing under t.
    """
    d = parse_pd(TREFOIL_PD)
    rows = alexander_matrix(d)
    arc_of = {e + 1: a for e, a in enumerate(d.edge_arc)}
    A, B, C = arc_of[2], arc_of[4], arc_of[6]
    assert arc_of[3] == A and arc_of[5] == B and arc_of[1] == C
    one_minus_t = ONE - T
    assert rows[0][C] == -ONE and rows[0][A] == T and rows[0][B] == one_minus_t
    assert rows[1][A] == -ONE and rows[1][B] == T and rows[1][C] == one_minus_t
    assert rows[2][B] == -ONE and rows[2][C] == T and rows[2][A] == one_minus_t


def test_trefoil_alexander_against_cofactor_minor():
    d = parse_pd(TREFOIL_PD)
    rows = alexander_matrix(d)
    minor = [row[:-1] for row in rows[:-1]]
    by_cofactor = cofactor_det(minor).canonical()
    assert by_cofactor == parse_poly("1 - t + t^2")
    assert alexander_from_diagram(d) == by_cofactor


def test_figure_eight_alexander_against_cofactor_minor():
    d = parse_pd(FIGURE_EIGHT_PD)
    rows = alexander_matrix(d)
    minor = [row[:-1] for row in rows[:-1]]
    assert cofactor_det(minor).canonical() == parse_poly("1 - 3*t + t^2")
    assert alexander_from_diagram(d) == parse_poly("1 - 3*t + t^2")


# -- the integer determinant against cofactor expansion ---------------------

_POLY = st.dictionaries(st.integers(0, 2), st.integers(-50, 50), max_size=3).map(LaurentPoly)


@st.composite
def _matrices(draw):
    """Square matrices over Z[t] of size 1..5; some singular, some with a
    zero leading column entry that forces a row swap."""
    n = draw(st.integers(1, 5))
    rows = [[draw(_POLY) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        # One row a multiple of another: the determinant is zero.
        i, j = draw(st.permutations(range(n)))[:2]
        factor = draw(_POLY)
        rows[i] = [factor * b for b in rows[j]]
    if draw(st.booleans()):
        rows[0][0] = ZERO
    return rows


@given(_matrices())
def test_det_kronecker_matches_cofactor_expansion(rows):
    assert _det_kronecker(rows) == cofactor_det(rows)


# -- closed forms at larger sizes -------------------------------------------


def test_torus_2_n_diagrams_match_the_closed_forms():
    for n in range(3, 62, 2):
        d = parse_pd(torus_2_pd(n))
        assert alexander_from_diagram(d) == alexander_of_knot(Torus(2, n))
        g = (n - 1) // 2
        assert genus_bounds(d) == (g, g)


# -- Seifert circles ---------------------------------------------------------


def test_seifert_counts():
    assert seifert_circle_count(parse_pd(TREFOIL_PD)) == 2
    assert seifert_genus_upper(parse_pd(TREFOIL_PD)) == 1
    assert seifert_circle_count(parse_pd(FIGURE_EIGHT_PD)) == 3
    assert seifert_genus_upper(parse_pd(FIGURE_EIGHT_PD)) == 1


def test_genus_bounds_examples():
    assert genus_bounds(parse_pd(TREFOIL_PD)) == (1, 1)
    assert genus_bounds(parse_pd(FIGURE_EIGHT_PD)) == (1, 1)


# -- the shipped corpus ------------------------------------------------------


def test_corpus_is_complete():
    assert corpus_names() == sorted(CORPUS_EXPECTED)


@pytest.mark.parametrize("name", sorted(CORPUS_EXPECTED))
def test_corpus_oracle_agreement(name):
    d = load_corpus_diagram(name)
    expected = CORPUS_EXPECTED[name]
    assert alexander_from_diagram(d).canonical() == alexander_of_knot(expected).canonical()
    lo, hi = genus_bounds(d)
    g = genus_of_knot(expected)
    assert (lo, hi) == (g.lower, g.lower)


@pytest.mark.parametrize("name", sorted(CORPUS_EXPECTED))
def test_corpus_polynomial_properties(name):
    delta = alexander_from_diagram(load_corpus_diagram(name))
    assert abs(delta.evaluate_at_one()) == 1
    assert delta.canonical() == mirror(delta).canonical()


@pytest.mark.parametrize("name", sorted(CORPUS_EXPECTED))
def test_minor_independence(name):
    d = load_corpus_diagram(name)
    reference = alexander_from_diagram(d)
    for i, j in itertools.product(range(d.n), repeat=2):
        assert alexander_from_diagram(d, drop_row=i, drop_col=j) == reference


def test_granny_is_a_square_of_the_trefoil_polynomial():
    delta = alexander_from_diagram(load_corpus_diagram("granny"))
    trefoil = parse_poly("1 - t + t^2")
    assert delta.canonical() == (trefoil * trefoil).canonical()
