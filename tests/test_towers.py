import json

import pytest

from conftest import random_valid_towers
from toroidal.catalog import built_in_towers, mask_tower
from toroidal.knots import Torus, UNKNOT, alexander_of_knot
from toroidal.laurent import ONE, parse_poly
from toroidal.towers import (
    GenusKind,
    GenusRule,
    H1Class,
    InvalidTowerError,
    PreconditionError,
    Stage,
    StageKind,
    Tower,
    ViolationKind,
    cech_h1,
    classify_by_r,
    core_parallel,
    distinguish_connected_sums,
    flow_attractor_verdict,
    generic,
    genus_of_tower,
    h1_input_of,
    homeo_attractor_verdict,
    is_unknotted_tower,
    r_of_toroidal,
    reembed_unknotted,
    swallow,
    tower_alexander,
    tower_from_dict,
    tower_to_dict,
    validate_tower,
    wind,
    _analyze,
    _unrolled,
)

TREFOIL = Torus(2, 3)
CINQUEFOIL = Torus(2, 5)

CAT = built_in_towers()


def tower(initial, prefix=(), cycle=(core_parallel(),), name="t", initial_genus=None):
    return Tower(name, initial, tuple(prefix), tuple(cycle), initial_genus)


# -- validation --------------------------------------------------------------


def test_schubert_violation_knotted_core_declared_unknotted():
    t = tower(TREFOIL, cycle=[wind(2, declared_genus=0)])
    report = validate_tower(t)
    assert not report.ok
    assert report.violations[0].kind is ViolationKind.SCHUBERT_VIOLATION
    assert "cycle[0] (periodic)" in report.violations[0].where


def test_standard_solenoid_declaration_is_fine():
    t = tower(UNKNOT, cycle=[wind(2, declared_genus=0)])
    assert validate_tower(t).ok


def test_concentricity_contract():
    t = tower(UNKNOT, cycle=[generic(2, pattern_genus=0, concentric=True)])
    report = validate_tower(t)
    assert any(v.kind is ViolationKind.CONCENTRICITY_CONTRACT for v in report.violations)


def test_malformed_stage_checks():
    bad_poly = tower(UNKNOT, cycle=[generic(1, pattern_genus=0, pattern_delta=parse_poly("1 + t"))])
    assert any(
        v.kind is ViolationKind.MALFORMED_STAGE for v in validate_tower(bad_poly).violations
    )
    wide = tower(UNKNOT, cycle=[generic(1, pattern_genus=1, pattern_delta=parse_poly("1 - t + t^2 - 2*t^3 + t^4 - t^5 + t^6"))])
    assert any(
        "breadth" in v.message for v in validate_tower(wide).violations
    )
    empty_cycle = Tower("x", UNKNOT, (), ())
    assert not validate_tower(empty_cycle).ok


def test_declared_contradicting_exact_value():
    t = tower(TREFOIL, cycle=[Stage(StageKind.CORE_PARALLEL, 1, 0, ONE, 5, True)])
    report = validate_tower(t)
    assert any("contradicts" in v.message for v in report.violations)


def test_classifiers_refuse_invalid_towers():
    t = tower(TREFOIL, cycle=[wind(2, declared_genus=0)])
    with pytest.raises(InvalidTowerError):
        genus_of_tower(t)


# -- cohomology ---------------------------------------------------------------


def test_cech_whitehead_trivial():
    profile = cech_h1(CAT["whitehead"])
    assert profile.h1 is H1Class.TRIVIAL
    assert profile.steinitz is None


def test_cech_tame_trefoil_is_z():
    assert cech_h1(CAT["tame_trefoil"]).h1 is H1Class.Z


def test_cech_dyadic_solenoid():
    profile = cech_h1(CAT["dyadic_solenoid"])
    assert profile.h1 is H1Class.NOT_FINITELY_GENERATED
    assert str(profile.steinitz) == "2^inf"
    assert profile.steinitz.has_infinite_exponent


def test_cech_prefix_contributes_finitely():
    t = tower(UNKNOT, prefix=[wind(6)], cycle=[wind(2)])
    assert str(cech_h1(t).steinitz) == "2^inf * 3"
    # windings before a zero stage never reach the limit
    t2 = tower(UNKNOT, prefix=[wind(5), generic(0, pattern_genus=0), wind(6)], cycle=[wind(2)])
    assert str(cech_h1(t2).steinitz) == "2^inf * 3"


# -- genus --------------------------------------------------------------------


def test_genus_knotted_dyadic_solenoid_blows_up():
    g = genus_of_tower(tower(TREFOIL, cycle=[wind(2)]))
    assert g.kind is GenusKind.INFINITE and g.rule is GenusRule.WINDING_BLOWUP


def test_genus_infinite_trefoil_sum_strongly_knotted():
    g = genus_of_tower(tower(TREFOIL, cycle=[swallow(TREFOIL)]))
    assert g.kind is GenusKind.INFINITE and g.rule is GenusRule.STRONGLY_KNOTTED


def test_genus_truncated_sum_exact():
    t = tower(UNKNOT, prefix=[swallow(TREFOIL), swallow(CINQUEFOIL)])
    g = genus_of_tower(t)
    assert g.kind is GenusKind.EXACT and g.value == 3


def test_positive_declaration_inside_winding_cycle_is_contradictory():
    # Periodicity forces d >= 2*d for a declared genus d past a winding-2
    # stage, so only d = 0 can be consistent; the validator sees this on
    # the second unrolled pass.
    t = tower(UNKNOT, cycle=[generic(1, declared_genus=1), wind(2)])
    report = validate_tower(t)
    assert any(v.kind is ViolationKind.SCHUBERT_VIOLATION for v in report.violations)
    ok = tower(UNKNOT, cycle=[generic(1, declared_genus=0), wind(2)])
    assert validate_tower(ok).ok
    g = genus_of_tower(ok)
    assert g.kind is GenusKind.EXACT and g.value == 0


def test_genus_generic_w1_gives_lower_bound():
    g = genus_of_tower(tower(TREFOIL, cycle=[generic(1, pattern_genus=0)]))
    assert g.kind is GenusKind.LOWER_BOUND and g.value == 1


def test_genus_trivial_tower_with_knotted_tail_stays_lower_bound_zero():
    t = tower(UNKNOT, cycle=[generic(0, pattern_genus=1, pattern_delta=parse_poly("1 - t + t^2"))])
    g = genus_of_tower(t)
    assert g.kind is GenusKind.LOWER_BOUND and g.value == 0


def test_unknottedness():
    assert is_unknotted_tower(CAT["dyadic_solenoid"])
    assert is_unknotted_tower(CAT["whitehead"])
    assert not is_unknotted_tower(CAT["tame_trefoil"])
    assert is_unknotted_tower(tower(UNKNOT))


def test_unknotted_solenoid_without_declaration():
    assert is_unknotted_tower(tower(UNKNOT, cycle=[wind(2)]))


# -- stabilized Alexander polynomial ------------------------------------------


def test_tower_alexander_tame_trefoil():
    assert tower_alexander(CAT["tame_trefoil"]) == parse_poly("1 - t + t^2")


def test_tower_alexander_swallow_prefix():
    t = tower(UNKNOT, prefix=[swallow(TREFOIL)])
    assert tower_alexander(t) == parse_poly("1 - t + t^2")


def test_tower_alexander_unknot_tower():
    assert tower_alexander(tower(UNKNOT)) == ONE


def test_tower_alexander_folds_windings_in_prefix():
    t = tower(TREFOIL, prefix=[Stage(StageKind.GENERIC, 2, 0, ONE, 2, False)])
    got = tower_alexander(t)
    assert got == alexander_of_knot(TREFOIL).subst_power(2).canonical()


def test_tower_alexander_preconditions():
    with pytest.raises(PreconditionError) as exc:
        tower_alexander(CAT["dyadic_solenoid"])
    assert exc.value.reason == "H1NotZ"
    with pytest.raises(PreconditionError) as exc:
        tower_alexander(CAT["infinite_trefoil_sum"])
    assert exc.value.reason == "InfiniteGenus"
    with pytest.raises(PreconditionError) as exc:
        tower_alexander(tower(TREFOIL, cycle=[generic(1, pattern_genus=0)]))
    assert exc.value.reason == "GenusNotExact"


def test_tower_alexander_stable_under_prefix_refinement():
    base = tower(UNKNOT, prefix=[swallow(TREFOIL)])
    reference = tower_alexander(base)
    for extra in range(1, 4):
        refined = tower(
            UNKNOT, prefix=[swallow(TREFOIL)] + [core_parallel()] * extra
        )
        assert tower_alexander(refined) == reference


# -- re-embedding -------------------------------------------------------------


def test_reembed_tame_trefoil():
    out = reembed_unknotted(CAT["tame_trefoil"])
    assert out.initial == UNKNOT
    assert all(s.kind is StageKind.CORE_PARALLEL for s in out.cycle)
    assert is_unknotted_tower(out)


def test_reembed_unknotted_tower_is_identity():
    t = CAT["dyadic_solenoid"]
    assert reembed_unknotted(t) is t


def test_reembed_refuses_infinite_genus():
    with pytest.raises(PreconditionError) as exc:
        reembed_unknotted(CAT["infinite_trefoil_sum"])
    assert exc.value.reason == "InfiniteGenus"


def test_reembed_mid_prefix_stabilization():
    t = tower(UNKNOT, prefix=[swallow(TREFOIL), core_parallel()], cycle=[core_parallel()])
    out = reembed_unknotted(t)
    assert out.initial == UNKNOT
    assert len(out.prefix) == 1
    assert is_unknotted_tower(out)


# -- attractor verdicts --------------------------------------------------------


def test_homeo_verdicts():
    assert str(homeo_attractor_verdict(CAT["knotted_dyadic_solenoid"])) == "obstructed:infinite_genus"
    assert str(homeo_attractor_verdict(CAT["infinite_trefoil_sum"])) == "obstructed:infinite_genus"
    assert str(homeo_attractor_verdict(CAT["dyadic_solenoid"])) == "no_obstruction_found"
    assert str(homeo_attractor_verdict(CAT["whitehead"])) == "no_obstruction_found"


def test_homeo_knotted_with_h1_not_z_fallback():
    # A nontrivial initial knot whose genus the chain cannot see (a table
    # knot without a declared genus): the cohomology obstruction for
    # knotted sets still applies.
    from toroidal.knots import Table

    unknown = Table("mystery_prime", genus=None, delta=None, prime=True)
    t = tower(unknown, cycle=[wind(2)])
    verdict = homeo_attractor_verdict(t)
    assert verdict.tag == "obstructed:knotted_with_h1_not_z"


def test_homeo_uncertified_table_core_is_not_knotted():
    # Nothing certifies these cores knotted: a table knot of declared genus
    # zero (the report calls the set unknotted), and one with no genus and
    # no prime flag.
    from toroidal.knots import Table
    from toroidal.reports import build_report

    for core in (Table("y", genus=0), Table("x")):
        report = build_report(tower(core, cycle=[wind(2)]))
        assert report["homeo_verdict"] == "no_obstruction_found"
    assert build_report(tower(Table("y", genus=0), cycle=[wind(2)]))["unknotted"] is True


def test_flow_verdicts():
    assert str(flow_attractor_verdict(CAT["dyadic_solenoid"])) == "not_realizable:h1_not_z"
    assert str(flow_attractor_verdict(CAT["whitehead"])) == "not_realizable:h1_not_z"
    assert (
        str(flow_attractor_verdict(CAT["modified_whitehead"]))
        == "not_realizable:persistently_non_concentric"
    )
    assert str(flow_attractor_verdict(CAT["tame_trefoil"])) == "realizable:eventually_concentric"


def test_flow_mixed_cycle_is_flagged():
    t = tower(UNKNOT, cycle=[core_parallel(), generic(1, pattern_genus=0, concentric=False)])
    verdict = flow_attractor_verdict(t)
    assert verdict.tag == "not_realizable:persistently_non_concentric"
    assert verdict.note is not None and "mixed" in verdict.note


# -- connected-sum inequivalence ------------------------------------------------


def test_distinguish_trefoils_vs_alternating():
    a = tower(TREFOIL, cycle=[swallow(TREFOIL)])
    b = tower(TREFOIL, cycle=[swallow(TREFOIL), swallow(CINQUEFOIL)])
    result = distinguish_connected_sums(a, b)
    assert result.inequivalent
    assert "torus(2,5)" in result.witness


def test_distinguish_identical_is_inconclusive():
    a = tower(TREFOIL, cycle=[swallow(TREFOIL)])
    assert distinguish_connected_sums(a, a).verdict == "inconclusive"


def test_distinguish_absorbs_prefix_copies_into_omega():
    a = tower(UNKNOT, prefix=[swallow(TREFOIL)], cycle=[swallow(TREFOIL)])
    b = tower(UNKNOT, prefix=[], cycle=[swallow(TREFOIL)])
    assert distinguish_connected_sums(a, b).verdict == "inconclusive"


def test_distinguish_multiplicities_matter():
    a = tower(UNKNOT, prefix=[swallow(TREFOIL)], cycle=[swallow(CINQUEFOIL)])
    b = tower(UNKNOT, prefix=[swallow(TREFOIL), swallow(TREFOIL)], cycle=[swallow(CINQUEFOIL)])
    assert distinguish_connected_sums(a, b).inequivalent


def test_distinguish_masks_truncated_to_six():
    a, b = mask_tower("10", prefix_len=6), mask_tower("110", prefix_len=6)
    assert distinguish_connected_sums(a, b).inequivalent


def test_distinguish_requires_connected_sum_shape():
    with pytest.raises(PreconditionError):
        distinguish_connected_sums(CAT["tame_trefoil"], CAT["infinite_trefoil_sum"])


# -- r invariant ----------------------------------------------------------------


def test_r_is_one_on_catalog():
    for t in CAT.values():
        assert r_of_toroidal(t).value == 1


def test_classify_by_r_truth_table():
    cases = [
        ((1, "other", True, True), "toroidal", None),
        ((1, "other", True, False), "toroidal_component_plus_cellular", None),
        ((1, "z", True, True), "inconclusive", None),
        ((1, "zero", True, True), "inconclusive", None),
        ((0, "other", True, True), "inconclusive", "cellular"),
        ((1, "other", False, True), "inconclusive", None),
    ]
    for args, expected, note_word in cases:
        verdict = classify_by_r(*args)
        assert verdict.classification.value == expected, args
        if note_word:
            assert note_word in (verdict.note or "")


def test_h1_input_of_profiles():
    assert h1_input_of(cech_h1(CAT["whitehead"])).value == "zero"
    assert h1_input_of(cech_h1(CAT["tame_trefoil"])).value == "z"
    assert h1_input_of(cech_h1(CAT["dyadic_solenoid"])).value == "other"


# -- JSON schema -----------------------------------------------------------------


def test_tower_json_round_trip():
    for t in CAT.values():
        again = tower_from_dict(tower_to_dict(t))
        assert tower_to_dict(again) == tower_to_dict(t)


def test_tower_json_errors():
    with pytest.raises(ValueError):
        tower_from_dict({"cycle": []})  # no initial
    with pytest.raises(ValueError):
        tower_from_dict({"initial": "unknot", "cycle": [{"kind": "nope"}]})
    with pytest.raises(ValueError):
        tower_from_dict({"initial": "unknot", "cycle": [{"kind": "wind"}]})
    with pytest.raises(ValueError):
        tower_from_dict({"initial": "unknot", "bogus": 1, "cycle": []})
    # A swallow stage's pattern is its knot: pattern fields are refused,
    # whether they contradict the knot or agree with it.
    for fields in [
        {"pattern_genus": 0},
        {"pattern_delta": "1 - 3*t + t^2"},
        {"pattern_delta": "1 - t + t^2"},
    ]:
        stage = {"kind": "swallow", "knot": "torus(2,3)", **fields}
        with pytest.raises(ValueError, match=r"cycle\[0\]"):
            tower_from_dict({"initial": "unknot", "cycle": [stage]})
    # JSON types are strict: no bool(str), int(float) or int(bool) coercion.
    for field, stage in [
        ("concentric", {"kind": "generic", "w": 1, "pattern_genus": 0, "concentric": "false"}),
        ("w", {"kind": "wind", "w": 2.9}),
        ("w", {"kind": "wind", "w": True}),
        ("declared_genus", {"kind": "wind", "w": 2, "declared_genus": 0.0}),
        ("pattern_genus", {"kind": "generic", "w": 1, "pattern_genus": True}),
    ]:
        with pytest.raises(ValueError, match=rf"cycle\[0\]: '{field}' must be"):
            tower_from_dict({"initial": "unknot", "cycle": [stage]})
    with pytest.raises(ValueError, match="'initial_genus' must be"):
        tower_from_dict({"initial": "unknot", "initial_genus": True, "cycle": [{"kind": "core_parallel"}]})
    # The kind contracts are the validator's, applied at load.
    with pytest.raises(InvalidTowerError) as exc:
        tower_from_dict({"initial": "unknot", "cycle": [{"kind": "wind", "w": 1, "concentric": True}]})
    assert [v.kind for v in exc.value.report.violations] == [ViolationKind.CONCENTRICITY_CONTRACT]
    # Only a swallow stage takes a knot; on any other kind it is refused,
    # not dropped.
    for stage in [
        {"kind": "wind", "w": 2, "knot": "torus(2,3)"},
        {"kind": "core_parallel", "knot": "torus(2,3)"},
    ]:
        with pytest.raises(InvalidTowerError, match=r"cycle\[0\].*MalformedStage.*knot"):
            tower_from_dict({"initial": "unknot", "cycle": [stage]})


def test_generic_stage_with_knot_is_malformed():
    t = tower_from_dict({"initial": "unknot", "cycle": [{"kind": "generic", "w": 1, "knot": "torus(2,3)"}]})
    (violation,) = validate_tower(t).violations
    assert violation.kind is ViolationKind.MALFORMED_STAGE and "knot" in violation.message
    assert t.cycle == (Stage(StageKind.GENERIC, 1, knot=TREFOIL),)


def test_tower_json_defaults_by_kind(tmp_path):
    doc = {
        "name": "from-file",
        "initial": "torus(2,3)",
        "prefix": [{"kind": "swallow", "knot": "torus(2,5)"}],
        "cycle": [{"kind": "core_parallel"}],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    from toroidal.towers import load_tower

    t = load_tower(path)
    assert t.prefix[0].winding == 1 and not t.prefix[0].concentric
    assert t.cycle[0].concentric
    g = genus_of_tower(t)
    assert g.kind is GenusKind.EXACT and g.value == 3


# -- one analysis per report --------------------------------------------------


def test_report_checks_each_stage_and_walks_the_chain_once(monkeypatch):
    import toroidal.towers as towers
    from toroidal.reports import build_report

    t = mask_tower("1", 64)
    calls = {"_stage_contract_violations": 0, "_stage_transfer": 0}
    for name in calls:
        original = getattr(towers, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(towers, name, counted)
    build_report(t)
    assert calls == {
        "_stage_contract_violations": len(t.prefix) + len(t.cycle),
        "_stage_transfer": len(t.prefix) + 2 * len(t.cycle),
    }
    assert calls["_stage_contract_violations"] == 65


def test_swallow_polynomials_are_computed_only_by_the_fold(monkeypatch):
    import toroidal.towers as towers
    from toroidal.reports import build_report

    calls = []

    def counted(k):
        calls.append(k)
        return alexander_of_knot(k)

    monkeypatch.setattr(towers, "alexander_of_knot", counted)
    doc = {
        "initial": "unknot",
        "prefix": [{"kind": "swallow", "knot": f"torus(2,{2 * i + 3})"} for i in range(63)],
        "cycle": [{"kind": "swallow", "knot": "torus(3,4)"}],
    }
    tower_from_dict(doc)
    assert calls == []
    build_report(mask_tower("1", 64))  # infinite genus: no fold
    assert calls == []
    build_report(tower(UNKNOT, prefix=[swallow(TREFOIL), swallow(CINQUEFOIL)]))
    assert calls == [UNKNOT, TREFOIL, CINQUEFOIL]


# -- randomized consistency suite ----------------------------------------


def _assert_classifiers_consistent(t: Tower) -> None:
    states = _analyze(t).states
    stages = list(_unrolled(t, passes=2))
    for (stage, _w), before, after in zip(stages, states, states[1:]):
        if stage.winding >= 1:
            assert after.bound >= before.bound, (t, stage)

    coh = cech_h1(t)
    g = genus_of_tower(t)
    if coh.h1 is H1Class.NOT_FINITELY_GENERATED and g.kind is GenusKind.EXACT:
        assert g.value == 0, t

    homeo = homeo_attractor_verdict(t)
    if g.kind is GenusKind.INFINITE:
        assert homeo.obstructed, t

    flow = flow_attractor_verdict(t)
    if flow.realizable:
        assert not homeo.obstructed and coh.h1 is H1Class.Z, t

    assert is_unknotted_tower(t) == (g.kind is GenusKind.EXACT and g.value == 0)

    if g.kind is GenusKind.EXACT:
        assert is_unknotted_tower(reembed_unknotted(t)), t


def test_random_towers_are_internally_consistent():
    for t in random_valid_towers(seed=1105, count=300):
        _assert_classifiers_consistent(t)
