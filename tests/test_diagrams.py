import itertools
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    braid_closure_quads,
    braid_quads,
    cable_braid,
    cable_braid_quads,
    connected_sum_quads,
    mirror,
    mirror_quads,
    pd_text,
    torus_2_pd,
    torus_braid,
    writhe,
)
from toroidal import diagrams
from toroidal.diagrams import (
    MAX_CROSSINGS,
    Diagram,
    PDSyntaxError,
    PDValidationError,
    alexander_from_diagram,
    corpus_names,
    genus_bounds,
    load_corpus_diagram,
    parse_pd,
    seifert_circle_count,
    seifert_genus_upper,
    _alexander_minor,
    _balanced_digits,
    _bareiss,
    _wirtinger_rows,
)
from toroidal.knots import Sum, TABLE_KNOTS, Torus, alexander_of_knot, genus_of_knot
from toroidal.laurent import ONE, T, ZERO, LaurentPoly, parse_poly
from toroidal.towers import (
    Tower,
    core_parallel,
    generic,
    genus_of_tower,
    tower_alexander,
    validate_tower,
    wind,
)

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
        if rows[0][j].is_zero():
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def dense(rows: list[dict[int, tuple[int, ...]]], n: int) -> list[list[LaurentPoly]]:
    """Sparse rows of coefficient tuples as an n-column matrix over Z[t]."""
    return [[LaurentPoly(dict(enumerate(row.get(j, ())))) for j in range(n)] for row in rows]


# -- parsing ----------------------------------------------------------------


def test_parse_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert d.n == 3
    assert all(c.sign == -1 for c in d.crossings)


def test_parse_empty_is_unknot():
    d = parse_pd("PD[]")
    assert d.n == 0
    assert alexander_from_diagram(d) == ONE
    assert seifert_circle_count(d) == 1
    assert seifert_genus_upper(d) == 0
    assert genus_bounds(d) == (0, 0)


def test_parse_is_whitespace_insensitive():
    spaced = "  PD[ X[1,4,2,5] ,\n X[3,6,4,1],X[5,2,6,3] ]  "
    assert parse_pd(spaced) == parse_pd(TREFOIL_PD)


# One row per raise site of the PD grammar: the text, the position and the
# message after it.
PD_SYNTAX_ERRORS = [
    ("QD[X[1,2,3,4]]", 0, "expected 'PD['"),
    ("", 0, "expected 'PD['"),
    ("PD[X[1,2,3,4", 12, "expected closing ']'"),
    ("PD[X[1,4,2,5], \n", 16, "expected closing ']'"),
    ("PD[X[1,2,3]]", 3, "expected X[a,b,c,d], got 'X[1,2,3]'"),
    ("PD[X[1,2,3,4]", 3, "expected X[a,b,c,d], got 'X[1,2,3,4'"),
    (" PD[ X[1,4,2,5]; X[3,6,4,1]]", 15, "expected X[a,b,c,d], got '; X[3,6,4,1]'"),
    # A label of four digits breaks rule 3 whatever it is, so it is read as no crossing.
    ("PD[X[1,2,3,1000]]", 3, "expected X[a,b,c,d], got 'X[1,2,3,1000]'"),
    # Whitespace is ASCII: space, tab, CR and LF.
    ("PD[X[1,4,2,5],\x0cX[3,6,4,1],X[5,2,6,3]]", 14, "expected X[a,b,c,d], got '\\x0cX[3,6,4,1],X[5,2,6,3]'"),
    ("\x0cPD[]", 0, "expected 'PD['"),
    ("PD[]\x0c", 5, "expected closing ']'"),
    # A message quotes at most 60 characters of what it could not read.
    ("PD[" + "Y" * 100 + "]", 3, f"expected X[a,b,c,d], got '{'Y' * 29}...{'Y' * 29}' (102 characters)"),
]


def test_syntax_errors_carry_positions():
    for text, position, message in PD_SYNTAX_ERRORS:
        with pytest.raises(PDSyntaxError) as exc:
            parse_pd(text)
        assert exc.value.position == position, text
        assert str(exc.value) == f"PD syntax error at position {position}: {message}"


@pytest.mark.parametrize(
    "text",
    [" " * (10**6 - 1) + "@", "PD[" + ", " * 499_998 + "@]"],
    ids=["spaces", "separators"],
)
def test_parse_refuses_long_input_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(PDSyntaxError):
        parse_pd(text)
    assert time.perf_counter() - start < 1.0


def test_validation_errors():
    # labels not 1..2n
    with pytest.raises(PDValidationError):
        parse_pd("PD[X[1,4,2,9],X[3,6,4,1],X[5,2,6,3]]")
    # a label occurring twice in one slot role
    with pytest.raises(PDValidationError):
        parse_pd("PD[X[1,3,2,4],X[1,4,2,3]]")


_LABELS = "incoming edges must be exactly 1..{} for {} crossings: every edge enters one crossing"
_FACES = "the code has {} faces, not n + 2 = {}: it is not planar"
# A mutated braid closure whose crossings' orders do not embed in the plane:
# read as a diagram, its polynomial is not symmetric and its genus bounds fail
# an internal check.
_VIRTUAL_10 = ("PD[X[1,8,2,9],X[2,15,3,16],X[9,16,10,17],X[10,3,11,4],X[17,4,18,5],"
               "X[18,11,19,12],X[5,12,6,13],X[6,19,7,20],X[20,13,1,14],X[14,7,15,8]]")

# One row per raise site of the PD rules in the module docstring: the text
# and the exact message.
PD_VALIDATION_ERRORS = [
    # Rule 1: the Hopf link's labels are consecutive within each component only.
    ("PD[X[4,1,3,2],X[2,3,1,4]]", "crossing X[4,1,3,2]: under-strand must leave at 1; "
     "labels are not consecutive along a single knot (links are rejected)"),
    # Rule 2: every label is in range, but 4 and 6 are not consecutive.
    ("PD[X[1,4,2,6],X[3,6,4,1],X[5,2,6,3]]", "crossing X[1,4,2,6]: over-strand labels 4,6 are not "
     "consecutive along a single knot (links are rejected)"),
    # Rule 3: edges 1 and 3 each enter twice, as under- and as over-strand.
    ("PD[X[1,2,2,1],X[3,4,4,3]]", _LABELS.format(4, 2)),
    # Rule 3: a label out of range; rules 1 and 2 hold mod 6.
    ("PD[X[1,4,2,9],X[3,6,4,1],X[5,2,6,3]]", _LABELS.format(6, 3)),
    # Rule 3: a crossing duplicated in place of another.
    ("PD[X[1,4,2,5],X[1,4,2,5],X[5,2,6,3]]", _LABELS.format(6, 3)),
    # Rule 4: codes of virtual knots meet rules 1-3 but have too few faces.
    ("PD[X[1,3,2,4],X[2,1,3,4]]", _FACES.format(2, 4)),
    (_VIRTUAL_10, _FACES.format(10, 12)),
    (torus_2_pd(MAX_CROSSINGS + 1), "PD code has 101 crossings; the limit is 100"),
]


def test_validation_errors_name_the_rule():
    for text, message in PD_VALIDATION_ERRORS:
        with pytest.raises(PDValidationError) as exc:
            parse_pd(text)
        assert str(exc.value) == message, text


_MUTATIONS = ["edit", "swap", "rotate", "drop", "duplicate"]


@st.composite
def _mutated_codes(draw):
    """Codes of small braid closures with one to three mutations: a label
    set to any value from 0 to 2n + 1, two slots of a crossing swapped, a
    crossing's slots rotated, a crossing dropped or one duplicated."""
    p, q = draw(st.sampled_from([(2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]))
    quads = [list(quad) for quad in braid_closure_quads(p, q)]
    for mutation in draw(st.lists(st.sampled_from(_MUTATIONS), min_size=1, max_size=3)):
        if not quads:
            break
        i = draw(st.integers(0, len(quads) - 1))
        quad = quads[i]
        if mutation == "edit":
            quad[draw(st.integers(0, 3))] = draw(st.integers(0, 2 * len(quads) + 1))
        elif mutation == "swap":
            j, k = draw(st.permutations(range(4)))[:2]
            quad[j], quad[k] = quad[k], quad[j]
        elif mutation == "rotate":
            shift = draw(st.integers(1, 3))
            quads[i] = quad[shift:] + quad[:shift]
        elif mutation == "drop":
            del quads[i]
        else:
            quads.insert(draw(st.integers(0, len(quads))), list(quad))
    return pd_text(quads)


@settings(deadline=None)
@given(_mutated_codes())
@example(_VIRTUAL_10)
def test_a_mutated_code_is_a_diagram_or_a_validation_error(text):
    try:
        d = parse_pd(text)
    except PDValidationError:
        return
    assert isinstance(d, Diagram) and len(d.edge_arc) == 2 * d.n
    assert sorted(label for c in d.crossings for label in c[:4]) == sorted(2 * list(range(1, 2 * d.n + 1)))
    genus_bounds(d)  # an accepted code meets every internal check
    delta = alexander_from_diagram(d)
    assert mirror(delta).canonical() == delta  # a knot's polynomial is symmetric


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
    # Its one arc is over, incoming and outgoing: t - 1 + 1 - t = 0, either sign.
    for code in ("PD[X[1,2,2,1]]", "PD[X[2,1,1,2]]"):
        assert _wirtinger_rows(parse_pd(code)) == [{}]


# -- the trefoil matrix, checked by hand ------------------------------------


def test_trefoil_matrix_entries():
    """The three Wirtinger rows of the standard trefoil code.

    Arcs: A = edges {2,3}, B = {4,5}, C = {6,1}.  All crossings negative,
    so each row reads: over 1-t, incoming under -1, outgoing under t.
    """
    d = parse_pd(TREFOIL_PD)
    rows = _wirtinger_rows(d)
    arc_of = {e + 1: a for e, a in enumerate(d.edge_arc)}
    A, B, C = arc_of[2], arc_of[4], arc_of[6]
    assert arc_of[3] == A and arc_of[5] == B and arc_of[1] == C
    minus_one, t, one_minus_t = (-1, 0), (0, 1), (1, -1)
    assert rows[0] == {C: minus_one, A: t, B: one_minus_t}
    assert rows[1] == {A: minus_one, B: t, C: one_minus_t}
    assert rows[2] == {B: minus_one, C: t, A: one_minus_t}


def test_trefoil_alexander_against_cofactor_minor():
    d = parse_pd(TREFOIL_PD)
    rows = dense(_wirtinger_rows(d), d.n)
    minor = [row[:-1] for row in rows[:-1]]
    by_cofactor = cofactor_det(minor).canonical()
    assert by_cofactor == parse_poly("1 - t + t^2")
    assert alexander_from_diagram(d) == by_cofactor


def test_figure_eight_alexander_against_cofactor_minor():
    d = parse_pd(FIGURE_EIGHT_PD)
    rows = dense(_wirtinger_rows(d), d.n)
    minor = [row[:-1] for row in rows[:-1]]
    assert cofactor_det(minor).canonical() == parse_poly("1 - 3*t + t^2")
    assert alexander_from_diagram(d) == parse_poly("1 - 3*t + t^2")


# -- the integer determinant against cofactor expansion ---------------------

_POLY = st.dictionaries(st.integers(0, 2), st.integers(-50, 50), max_size=3).map(LaurentPoly)


@st.composite
def _matrices(draw):
    """Square matrices over Z[t] of size 1..5; some singular, some with a
    zero top-left entry."""
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


def det_at_base(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """The determinant of a matrix over Z[t] the way the library takes one:
    at ``t = B`` above twice its Hadamard bound on the unit circle, by
    ``_bareiss``, then decoded as balanced base-``B`` digits."""
    square = 1
    for row in rows:
        square *= sum(sum(abs(c) for _, c in entry.terms) ** 2 for entry in row)
    base = 2 * (math.isqrt(square) + 1) + 1
    at_base = [{j: sum(c * base**e for e, c in entry.terms) for j, entry in enumerate(row)} for row in rows]
    return _balanced_digits(_bareiss([{j: v for j, v in row.items() if v} for row in at_base]), base)


@given(_matrices())
def test_determinant_at_a_base_matches_cofactor_expansion(rows):
    assert det_at_base(rows) == cofactor_det(rows)


@pytest.mark.parametrize("bound", [1, 2, 3, 10**20])
def test_balanced_digits_reach_the_bound(bound):
    # B = 2C + 1 decodes every coefficient in [-C, C], the ends included.
    base = 2 * bound + 1
    for coeffs in [(bound,), (-bound,), (bound, -bound), (-bound, bound, 0, -bound), (0, bound, bound)]:
        value = sum(c * base**e for e, c in enumerate(coeffs))
        assert _balanced_digits(value, base) == LaurentPoly(dict(enumerate(coeffs)))


@st.composite
def _diagram_quads(draw):
    """Connected sums of one to three summands, each a one-crossing kink or
    the braid closure of a torus knot of up to 12 crossings, some mirrored."""
    torus = st.sampled_from([(p, q) for p in range(2, 5) for q in range(2, 13 // (p - 1)) if math.gcd(p, q) == 1])
    quads = []
    for _ in range(draw(st.integers(1, 3))):
        summand = [(1, 2, 2, 1)] if draw(st.booleans()) else braid_closure_quads(*draw(torus))
        summand = mirror_quads(summand) if draw(st.booleans()) else summand
        quads = connected_sum_quads(quads, summand) if quads else summand
    return quads


@settings(deadline=None)
@given(_diagram_quads())
def test_alexander_minor_meets_its_bound_and_matches_cofactor_expansion(quads):
    d = parse_pd(pd_text(quads))
    rows = _wirtinger_rows(d)
    # The premise of the closed-form bound 6^((n - 1) / 2): every row's
    # entries t, -1 and 1 - t, or fewer when arcs coincide.
    assert all(sum((abs(c0) + abs(c1)) ** 2 for c0, c1 in row.values()) <= 6 for row in rows)
    # Each row of a Wirtinger matrix sums to zero at every t, and holds no zero entry.
    for row in rows:
        assert sum(c0 for c0, _ in row.values()) == 0 and sum(c1 for _, c1 in row.values()) == 0
        assert (0, 0) not in row.values()
    if d.n <= 8:
        minor = [row[:-1] for row in dense(rows, d.n)[:-1]]
        assert _alexander_minor(d, d.n - 1, d.n - 1) == cofactor_det(minor).canonical()


# -- the sparse integer elimination against cofactor expansion --------------

_ENTRY = st.integers(-30, 30).filter(bool)


def check_bareiss(rows: list[dict[int, int]]) -> None:
    expected = cofactor_det(dense([{j: (v,) for j, v in row.items()} for row in rows], len(rows)))
    assert LaurentPoly({0: _bareiss([dict(row) for row in rows])}) == expected


@st.composite
def _sparse_integer_matrices(draw, sizes=st.integers(1, 8), per_row=st.integers(1, 3)):
    """Square integer matrices as sparse rows with few nonzeros per row.

    Most entries below each pivot are zero, and most pivot rows sat out
    earlier steps, so they are rescaled first.  Some matrices are made
    singular by replacing a row with a combination of two others, which may
    cancel entries, and some have an empty column."""
    n = draw(sizes)
    diagonal = draw(st.permutations(range(n)))  # keeps most of them nonsingular
    rows = []
    for i in range(n):
        others = [j for j in range(n) if j != diagonal[i]]
        k = min(draw(per_row), n) - 1
        extra = draw(st.lists(st.sampled_from(others), min_size=k, max_size=k, unique=True)) if k else []
        rows.append({j: draw(_ENTRY) for j in [diagonal[i], *extra]})
    if n > 2 and draw(st.booleans()):
        i, a, b = draw(st.permutations(range(n)))[:3]
        x, y = draw(_ENTRY), draw(_ENTRY)
        combined = {j: x * rows[a].get(j, 0) + y * rows[b].get(j, 0) for j in rows[a].keys() | rows[b].keys()}
        rows[i] = {j: v for j, v in combined.items() if v}
    return rows


@settings(deadline=None)
@given(_sparse_integer_matrices())
def test_bareiss_matches_cofactor_expansion(rows):
    check_bareiss(rows)


@settings(max_examples=25, deadline=None)
@given(_sparse_integer_matrices(sizes=st.integers(6, 8), per_row=st.just(3)))
def test_bareiss_on_three_nonzeros_per_row(rows):
    check_bareiss(rows)


def test_bareiss_examples():
    # Row 5 changes at step 0, sits out steps 1 to 3 and is divided by the
    # pivot of step 0 (-2) at step 4.
    check_bareiss([{2: 3, 4: -2, 5: 5}, {1: -2}, {0: -3, 2: 2, 3: 7},
                   {0: 5, 3: 2, 4: 7}, {0: 3, 2: -3}, {0: 2, 1: -2, 5: 7}])
    # Row 0 changes at step 1, sits out steps 2 and 3 and is rescaled to
    # step 4, where it is the pivot row.
    check_bareiss([{0: 5, 1: -3, 5: 5}, {2: -2, 4: -2, 5: 2}, {1: 7, 2: 7, 4: 3},
                   {3: 2, 4: 5, 5: 7}, {0: -2}, {1: 2, 2: 5}])
    assert _bareiss([{0: 2, 1: 4}, {0: 3, 1: 6}]) == 0  # singular
    assert _bareiss([{0: 1, 1: 2}, {0: 3, 1: 4}, {0: 5, 1: 6}]) == 0  # column 2 is empty
    assert det_at_base([[ONE + T, ZERO], [T, ZERO]]) == ZERO  # column 1 is empty
    assert _bareiss([]) == 1


def test_bareiss_signs_every_permutation_matrix():
    signed = 0
    for n in range(1, 6):
        for perm in itertools.permutations(range(n)):
            sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
            assert _bareiss([{j: 1} for j in perm]) == sign, perm
            # Times the lower triangle of ones: the same determinant, but
            # column j now has n - j nonzeros, so each step pivots on the
            # last column left rather than the first.
            assert _bareiss([dict.fromkeys(range(j + 1), 1) for j in perm]) == sign, perm
            signed += 1
    assert signed == 153


# -- one determinant per diagram --------------------------------------------


def test_one_determinant_per_diagram(monkeypatch):
    calls = []
    bareiss = diagrams._bareiss
    monkeypatch.setattr(diagrams, "_bareiss", lambda rows: calls.append(len(rows)) or bareiss(rows))
    d = parse_pd(FIGURE_EIGHT_PD)
    assert alexander_from_diagram(d) == parse_poly("1 - 3*t + t^2")
    assert genus_bounds(d) == (1, 1)
    assert calls == [3]
    again = parse_pd(FIGURE_EIGHT_PD)
    assert again == d and again is not d
    assert genus_bounds(again) == (1, 1)
    assert calls == [3, 3]  # no cache outside the diagram


# -- closed forms over generated diagrams -----------------------------------


def test_torus_2_n_diagrams_match_the_closed_forms():
    for n in range(3, 100, 2):
        d = parse_pd(torus_2_pd(n))
        assert alexander_from_diagram(d) == alexander_of_knot(Torus(2, n))
        g = (n - 1) // 2
        assert genus_bounds(d) == (g, g)


# Every braid closure T(p, q) with (p - 1) q <= MAX_CROSSINGS crossings:
# 218 diagrams, all of them, since together they take under 2 s.
TORUS_PAIRS = [
    (p, q)
    for p in range(2, MAX_CROSSINGS + 1)
    for q in range(2, MAX_CROSSINGS // (p - 1) + 1)
    if math.gcd(p, q) == 1
]


@pytest.mark.parametrize("p", sorted({p for p, _ in TORUS_PAIRS}))
def test_braid_closures_match_the_closed_forms(p):
    for q in (q for pp, q in TORUS_PAIRS if pp == p):
        d = parse_pd(pd_text(braid_closure_quads(p, q)))
        assert d.n == (p - 1) * q
        assert alexander_from_diagram(d) == alexander_of_knot(Torus(p, q))
        g = (p - 1) * (q - 1) // 2
        assert genus_bounds(d) == (g, g)


def _cables() -> list[tuple[int, int, int, int]]:
    """(p, q, m, k): a cable C(m, k + m (p - 1) q) of every T(p, q), p < q,
    for m = 2 and 3 within the crossing cap.  The twists k run through the
    values up to 7 prime to m in turn, one cable per knot and m; all of
    them for every knot cost about 2.5 s."""
    out = []
    for m in (2, 3):
        ks = [k for k in range(1, 8) if math.gcd(m, k) == 1]
        knots = [
            (p, q)
            for p in range(2, MAX_CROSSINGS)
            for q in range(p + 1, MAX_CROSSINGS)
            if math.gcd(p, q) == 1 and m * m * (p - 1) * q + m - 1 <= MAX_CROSSINGS
        ]
        for i, (p, q) in enumerate(knots):
            fits = [k for k in ks if m * m * (p - 1) * q + k * (m - 1) <= MAX_CROSSINGS]
            out.append((p, q, m, fits[i % len(fits)]))
    return out


@pytest.mark.parametrize("p, q, m, k", _cables())
def test_cable_towers_match_their_diagrams(p, q, m, k):
    # The tower T(p, q), then the cable pattern T(m, n) wound m times, then
    # a tame tail.  Satellite theory gives the cable's polynomial
    # D_T(m,n)(t) * D_T(p,q)(t^m) and its genus m g(T(p,q)) + g(T(m,n));
    # Seifert's algorithm is minimal on the positive braid closure.
    pattern = Torus(m, k + m * (p - 1) * q)
    g_pattern = genus_of_knot(pattern).lower
    g = m * genus_of_knot(Torus(p, q)).lower + g_pattern
    stage = generic(m, g_pattern, alexander_of_knot(pattern), declared_genus=g)
    t = Tower("cable", Torus(p, q), (stage,), (core_parallel(),))
    assert validate_tower(t).ok
    assert str(genus_of_tower(t)) == f"exact:{g}"
    d = parse_pd(pd_text(cable_braid_quads(p, q, m, k)))
    assert d.n == m * m * (p - 1) * q + k * (m - 1) <= MAX_CROSSINGS
    assert tower_alexander(t) == alexander_from_diagram(d)
    assert genus_bounds(d) == (g, g)


# Finite truncations of knotted_dyadic_solenoid: T(p, q) and then n
# wind(2) stages.  A wind(2) stage over K is the cable C(2, 1)(K), whose
# braid twists the first bundle 1 - 2 writhe times.  The chain knows only the
# bound 2^n g, since the stages declare no genus; the diagram's polynomial
# is D_T(p,q)(t^(2^n)), and half its breadth is that bound.
TRUNCATIONS = [(2, q, 1) for q in range(3, 16, 2)] + [(3, 4, 1), (3, 5, 1), (4, 5, 1), (2, 3, 2)]


@pytest.mark.parametrize("p, q, n", TRUNCATIONS)
def test_solenoid_truncations_match_their_diagrams(p, q, n):
    g = 2**n * genus_of_knot(Torus(p, q)).lower
    t = Tower("truncation", Torus(p, q), (wind(2),) * n, (core_parallel(),))
    assert str(genus_of_tower(t)) == f"lower_bound:{g}"
    word, strands = torus_braid(p, q), p
    for _ in range(n):
        word, strands = cable_braid(strands, word, 2, 1 - 2 * writhe(word)), 2 * strands
    d = parse_pd(pd_text(braid_quads(strands, word)))
    assert d.n <= MAX_CROSSINGS
    assert alexander_from_diagram(d) == alexander_of_knot(Torus(p, q)).subst_power(2**n)
    assert genus_bounds(d)[0] == g


# Iterated cables C(2, n2)(C(2, n1)(T(p, q))), 53 and 85 crossings: two
# generic stages, each with its cable pattern T(2, n) and the Schubert
# genus 2 g + g(T(2, n)) declared.  Both braids are positive.
@pytest.mark.parametrize("p, q, n1, n2", [(2, 3, 7, 27), (2, 5, 11, 43)])
def test_iterated_cable_towers_match_their_diagrams(p, q, n1, n2):
    g = genus_of_knot(Torus(p, q)).lower
    word, strands, stages = torus_braid(p, q), p, []
    for n in (n1, n2):
        g_pattern = genus_of_knot(Torus(2, n)).lower
        g = 2 * g + g_pattern
        stages.append(generic(2, g_pattern, alexander_of_knot(Torus(2, n)), declared_genus=g))
        word, strands = cable_braid(strands, word, 2, n - 2 * writhe(word)), 2 * strands
    t = Tower("iterated cable", Torus(p, q), tuple(stages), (core_parallel(),))
    assert validate_tower(t).ok
    assert str(genus_of_tower(t)) == f"exact:{g}"
    d = parse_pd(pd_text(braid_quads(strands, word)))
    assert d.n <= MAX_CROSSINGS
    assert tower_alexander(t) == alexander_from_diagram(d)
    assert genus_bounds(d) == (g, g)


# Summands as (p, q, mirrored); every sum has at most 100 crossings.
SUMS = [
    [(2, 3, False), (2, 3, False)],
    [(2, 3, False), (2, 3, True)],
    [(3, 4, True), (2, 5, False), (2, 3, False)],
    [(5, 6, False), (3, 7, False), (2, 11, True), (2, 9, False)],
    [(4, 13, False), (3, 29, True)],
    [(11, 9, True), (2, 5, False)],
    [(7, 15, True)],
    [(2, 49, False), (2, 51, True)],
]


@pytest.mark.parametrize("parts", SUMS, ids=str)
def test_sums_and_mirrors_match_the_closed_forms(parts):
    quads = []
    for p, q, mirrored in parts:
        summand = braid_closure_quads(p, q)
        summand = mirror_quads(summand) if mirrored else summand
        quads = connected_sum_quads(quads, summand) if quads else summand
    d = parse_pd(pd_text(quads))
    assert d.n == sum((p - 1) * q for p, q, _ in parts) <= MAX_CROSSINGS
    knot = Sum(tuple(Torus(p, q) for p, q, _ in parts))
    assert alexander_from_diagram(d) == alexander_of_knot(knot)
    g = genus_of_knot(knot).lower
    assert genus_bounds(d) == (g, g)
    assert genus_bounds(parse_pd(pd_text(mirror_quads(quads)))) == (g, g)


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
        assert _alexander_minor(d, i, j) == reference


def test_granny_is_a_square_of_the_trefoil_polynomial():
    delta = alexander_from_diagram(load_corpus_diagram("granny"))
    trefoil = parse_poly("1 - t + t^2")
    assert delta.canonical() == (trefoil * trefoil).canonical()
