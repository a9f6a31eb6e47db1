"""Acceptance criteria, one test per criterion.

Each test prints one ``ACCEPTANCE <n> PASS`` line (visible with ``-s`` or
in captured output) and enforces its wall-clock budget.  Criterion 10 (the
whole suite under 60 seconds) is reported by the session hook in
``conftest.py``.
"""

import itertools
import time
from contextlib import contextmanager

from conftest import mirror, random_valid_towers
from toroidal.catalog import built_in_towers, mask_tower
from toroidal.diagrams import (
    alexander_from_diagram,
    genus_bounds,
    load_corpus_diagram,
)
from toroidal.knots import (
    TABLE_KNOTS,
    Sum,
    Torus,
    UNKNOT,
    alexander_of_knot,
    genus_of_knot,
)
from toroidal.laurent import parse_poly
from toroidal.towers import (
    GenusKind,
    GenusRule,
    H1Class,
    Tower,
    ViolationKind,
    cech_h1,
    classify_by_r,
    core_parallel,
    distinguish_connected_sums,
    flow_attractor_verdict,
    genus_of_tower,
    homeo_attractor_verdict,
    is_unknotted_tower,
    r_of_toroidal,
    swallow,
    tower_alexander,
    validate_tower,
    wind,
    _unrolled,
)

CAT = built_in_towers()


@contextmanager
def budget(n: int, seconds: float, description: str):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"criterion {n} exceeded its {seconds}s budget ({elapsed:.2f}s)"
    print(f"\nACCEPTANCE {n} PASS ({elapsed:.2f}s): {description}")


def test_criterion_1_cohomology_trichotomy():
    with budget(1, 1.0, "cohomology trichotomy on the catalog"):
        assert cech_h1(CAT["whitehead"]).h1 is H1Class.TRIVIAL
        assert cech_h1(CAT["tame_trefoil"]).h1 is H1Class.Z
        dyadic = cech_h1(CAT["dyadic_solenoid"])
        assert dyadic.h1 is H1Class.NOT_FINITELY_GENERATED
        assert str(dyadic.steinitz) == "2^inf"


def test_criterion_2_oracle_agreement():
    with budget(2, 5.0, "diagram oracle matches closed forms for four torus knots"):
        expected = {
            "trefoil": (Torus(2, 3), 1),
            "torus_2_5": (Torus(2, 5), 2),
            "torus_2_7": (Torus(2, 7), 3),
            "torus_3_4": (Torus(3, 4), 3),
        }
        for name, (knot, genus) in expected.items():
            d = load_corpus_diagram(name)
            assert alexander_from_diagram(d).canonical() == alexander_of_knot(knot).canonical()
            assert genus_bounds(d) == (genus, genus)
            assert genus_of_knot(knot).lower == (knot.p - 1) * (knot.q - 1) // 2 == genus


def test_criterion_3_knot_polynomial_properties():
    with budget(3, 5.0, "unit value at 1, symmetry, and the granny product"):
        corpus = ["trefoil", "figure_eight", "torus_2_5", "torus_2_7", "torus_3_4", "granny"]
        for name in corpus:
            delta = alexander_from_diagram(load_corpus_diagram(name))
            assert abs(delta.evaluate_at_one()) == 1
            assert delta.canonical() == mirror(delta).canonical()
        catalog_knots = [
            UNKNOT,
            Torus(2, 3),
            Torus(2, 5),
            Torus(2, 7),
            Torus(3, 4),
            TABLE_KNOTS["figure_eight"],
            TABLE_KNOTS["5_2"],
            Sum((Torus(2, 3), Torus(2, 5))),
        ]
        for knot in catalog_knots:
            delta = alexander_of_knot(knot)
            assert abs(delta.evaluate_at_one()) == 1
            assert delta.canonical() == mirror(delta).canonical()
        granny = alexander_from_diagram(load_corpus_diagram("granny"))
        trefoil = parse_poly("1 - t + t^2")
        assert granny.canonical() == (trefoil * trefoil).canonical()


def test_criterion_4_schubert_validator():
    with budget(4, 1.0, "the knotted-solenoid contradiction and its verdicts"):
        declared = Tower(
            "declared", Torus(2, 3), cycle=(wind(2, declared_genus=0),)
        )
        report = validate_tower(declared)
        assert not report.ok
        assert report.violations[0].kind is ViolationKind.SCHUBERT_VIOLATION

        undeclared = Tower("undeclared", Torus(2, 3), cycle=(wind(2),))
        g = genus_of_tower(undeclared)
        assert g.kind is GenusKind.INFINITE and g.rule is GenusRule.WINDING_BLOWUP
        assert homeo_attractor_verdict(undeclared).tag == "obstructed:infinite_genus"


def test_criterion_5_infinite_connected_sum():
    with budget(5, 1.0, "infinite trefoil sum and its truncation"):
        infinite = CAT["infinite_trefoil_sum"]
        g = genus_of_tower(infinite)
        assert g.kind is GenusKind.INFINITE and g.rule is GenusRule.STRONGLY_KNOTTED
        assert homeo_attractor_verdict(infinite).obstructed

        truncated = Tower(
            "truncated",
            UNKNOT,
            prefix=(swallow(Torus(2, 3)), swallow(Torus(2, 5))),
            cycle=(core_parallel(),),
        )
        g = genus_of_tower(truncated)
        assert g.kind is GenusKind.EXACT and g.value == 3
        expected = parse_poly("1 - t + t^2") * alexander_of_knot(Torus(2, 5))
        assert tower_alexander(truncated).canonical() == expected.canonical()


def test_criterion_6_flow_verdicts():
    with budget(6, 1.0, "flow rule tags across the catalog"):
        assert flow_attractor_verdict(CAT["dyadic_solenoid"]).tag == "not_realizable:h1_not_z"
        assert flow_attractor_verdict(CAT["whitehead"]).tag == "not_realizable:h1_not_z"
        assert (
            flow_attractor_verdict(CAT["modified_whitehead"]).tag
            == "not_realizable:persistently_non_concentric"
        )
        assert (
            flow_attractor_verdict(CAT["tame_trefoil"]).tag
            == "realizable:eventually_concentric"
        )


def test_criterion_7_mask_family_inequivalence():
    with budget(7, 5.0, "ten binary masks give pairwise inequivalent sums"):
        masks = ["1", "10", "100", "1000", "01", "001", "110", "101", "1110", "1101"]
        towers = [mask_tower(m, prefix_len=8) for m in masks]
        for a, b in itertools.combinations(towers, 2):
            assert distinguish_connected_sums(a, b).inequivalent, (a.name, b.name)


def test_criterion_8_consistency_property_suite():
    with budget(8, 30.0, "1000 random validated towers satisfy the classifier consistency laws"):
        towers = random_valid_towers(seed=20260809, count=1000)
        for t in towers:
            states = t._states
            for stage, (before, _), (after, _) in zip(_unrolled(t), states, states[1:]):
                if stage.winding >= 1:
                    assert after >= before, t

            coh = cech_h1(t)
            g = genus_of_tower(t)
            if coh.h1 is H1Class.NOT_FINITELY_GENERATED and g.kind is GenusKind.EXACT:
                assert g.value == 0, t
            if g.kind is GenusKind.INFINITE:
                assert homeo_attractor_verdict(t).obstructed, t
            if flow_attractor_verdict(t).realizable:
                assert not homeo_attractor_verdict(t).obstructed, t
                assert coh.h1 is H1Class.Z, t


def test_criterion_9_r_invariant():
    with budget(9, 1.0, "r = 1 on the catalog plus the recognition table"):
        for t in CAT.values():
            assert r_of_toroidal(t).value == 1
        table = [
            ((1, "other", True, True), "toroidal"),
            ((1, "other", True, False), "toroidal_component_plus_cellular"),
            ((1, "z", True, True), "inconclusive"),
            ((1, "zero", True, True), "inconclusive"),
            ((0, "other", True, True), "inconclusive"),
            ((1, "other", False, True), "inconclusive"),
        ]
        for args, expected in table:
            assert classify_by_r(*args).classification.value == expected, args
        assert is_unknotted_tower(CAT["dyadic_solenoid"])
