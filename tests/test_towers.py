import io
import json
import re
import time
from collections import Counter
from math import isqrt

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from conftest import double_cycle, drop_outer_stage, random_valid_towers, swap_prefix_swallows
from toroidal.catalog import built_in_towers, mask_tower
from toroidal.knots import TABLE_KNOTS, Sum, Table, Torus, UNKNOT, alexander_of_knot
from toroidal.laurent import ONE, ZERO, parse_poly
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
    _prime_factors,
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


TREFOIL_DELTA = parse_poly("1 - t + t^2")


@pytest.mark.parametrize(
    "stage, message",
    [
        (generic(1, pattern_genus=-1), "negative pattern genus -1"),
        (wind(2, declared_genus=-1), "negative declared genus -1"),
        (
            Stage(StageKind.CORE_PARALLEL, 2, 0, ONE, None, True),
            "core-parallel stage must have w=1 and a trivial pattern",
        ),
        (
            Stage(StageKind.CORE_PARALLEL, 1, 1, TREFOIL_DELTA, None, True),
            "core-parallel stage must have w=1 and a trivial pattern",
        ),
        (Stage(StageKind.CORE_PARALLEL, 1, 0, ONE, None, False), "core-parallel stage must be concentric"),
        (Stage(StageKind.SWALLOW, 2, knot=TREFOIL), "swallow stage must have w=1"),
        (Stage(StageKind.SWALLOW, 1), "swallow stage carries no knot"),
        (Stage(StageKind.WIND, 2, 1, TREFOIL_DELTA), "wind stage must have a trivial pattern"),
        (generic(1, pattern_genus=0, pattern_delta=ZERO), "pattern polynomial cannot be zero"),
    ],
    ids=lambda x: x if isinstance(x, str) else None,
)
def test_stage_contract_messages(stage, message):
    first = validate_tower(tower(UNKNOT, cycle=[stage])).violations[0]
    assert (first.kind, first.where, first.message) == (
        ViolationKind.MALFORMED_STAGE, "cycle[0] (periodic)", message
    )


def test_violation_locations():
    # The walk names a stage only when it records a violation there: a
    # contract fault in the prefix and one in the cycle, each reported for
    # the first pass only, and a chain violation that first appears on the
    # second cycle pass, once the swallowed trefoil has knotted the core.
    t = tower(
        UNKNOT,
        prefix=[core_parallel(), wind(1), core_parallel(), Stage(StageKind.CORE_PARALLEL, 1, 0, ONE)],
        cycle=[core_parallel(), wind(1, declared_genus=0), Stage(StageKind.SWALLOW, 1, 0, knot=TREFOIL)],
    )
    assert [str(v) for v in validate_tower(t).violations] == [
        "prefix[3]: MalformedStage: core-parallel stage must be concentric",
        "cycle[2] (periodic): MalformedStage: "
        "swallow stage takes its pattern from its knot, not from pattern fields",
        "cycle[1] (periodic): SchubertViolation: declared genus 0 violates g' >= w*g + g(T,T') = 1*1 + 0 = 1",
    ]


def test_swallow_stage_without_a_knot_is_refused_before_its_summands_are_read():
    t = tower(UNKNOT, cycle=[Stage(StageKind.SWALLOW, 1)])
    with pytest.raises(InvalidTowerError, match="swallow stage carries no knot"):
        distinguish_connected_sums(t, t)


def test_declared_initial_genus():
    # A declaration must agree with an exactly computed genus.
    assert str(genus_of_tower(tower(TREFOIL, initial_genus=1))) == "exact:1"
    for d in (0, 2):
        (violation,) = validate_tower(tower(TREFOIL, initial_genus=d)).violations
        assert str(violation) == (
            f"initial: MalformedStage: declared initial genus {d} contradicts the computed genus 1"
        )
    # Over an undeclared table knot it may pin the genus, but not below the bound.
    mystery = Table("x")
    (violation,) = validate_tower(tower(mystery, initial_genus=-1)).violations
    assert str(violation) == (
        "initial: MalformedStage: declared initial genus -1 is below the provable lower bound 0"
    )
    assert str(genus_of_tower(tower(mystery, initial_genus=2))) == "exact:2"
    t = tower(TREFOIL, initial_genus=1)
    doc = tower_to_dict(t)
    assert doc["initial_genus"] == 1 and tower_from_dict(doc) == t


def test_declared_contradicting_exact_value():
    t = tower(TREFOIL, cycle=[Stage(StageKind.CORE_PARALLEL, 1, 0, ONE, 5, True)])
    report = validate_tower(t)
    assert any("contradicts" in v.message for v in report.violations)


@pytest.mark.parametrize(
    "initial, stage, message",
    [
        # A winding over a knotted core: the satellite inequality.
        (TREFOIL, wind(2, declared_genus=1), "declared genus 1 violates g' >= w*g + g(T,T') = 2*1 + 0 = 2"),
        # A winding over an exactly unknotted core resets to the pattern,
        # and so does winding 0 over any core.
        (UNKNOT, generic(1, pattern_genus=2, declared_genus=1), "declared genus 1 is below the pattern genus 2"),
        (TREFOIL, generic(0, pattern_genus=2, declared_genus=1), "declared genus 1 is below the pattern genus 2"),
        (TREFOIL, Stage(StageKind.CORE_PARALLEL, 1, 0, ONE, 5, True),
         "declared genus 5 contradicts the exactly determined genus 1"),
    ],
    ids=["schubert", "unknotted-core", "winding-0", "contradicts"],
)
def test_declared_genus_messages(initial, stage, message):
    (violation,) = validate_tower(tower(initial, cycle=[stage])).violations
    assert str(violation) == f"cycle[0] (periodic): SchubertViolation: {message}"


def test_classifiers_refuse_invalid_towers():
    from toroidal.reports import build_report

    t = tower(TREFOIL, cycle=[wind(2, declared_genus=0)])
    ok = tower(UNKNOT)
    readers = [
        cech_h1,
        genus_of_tower,
        is_unknotted_tower,
        tower_alexander,
        reembed_unknotted,
        homeo_attractor_verdict,
        flow_attractor_verdict,
        r_of_toroidal,
        lambda x: distinguish_connected_sums(x, ok),
        lambda x: distinguish_connected_sums(ok, x),
        build_report,
    ]
    # The refusal is not kept as a fact: a second call refuses again.
    for _ in range(2):
        for read in readers:
            with pytest.raises(InvalidTowerError, match="SchubertViolation"):
                read(t)


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
    assert profile.steinitz.infinite == (2,)


def test_each_distinct_winding_is_factored_once(monkeypatch):
    import toroidal.towers as towers

    calls = {"_prime_factors": 0}
    _count_calls(monkeypatch, towers, calls)
    assert str(cech_h1(tower(UNKNOT, prefix=[wind(6)] * 10, cycle=[wind(6)])).steinitz) == "2^inf * 3^inf"
    assert calls["_prime_factors"] == 1
    # Prefix exponents count each stage.
    assert str(cech_h1(tower(UNKNOT, prefix=[wind(6)] * 10, cycle=[wind(5)])).steinitz) == "2^10 * 3^10 * 5^inf"
    assert calls["_prime_factors"] == 3


def test_cech_prefix_contributes_finitely():
    t = tower(UNKNOT, prefix=[wind(6)], cycle=[wind(2)])
    assert str(cech_h1(t).steinitz) == "2^inf * 3"
    # windings before a zero stage never reach the limit
    t2 = tower(UNKNOT, prefix=[wind(5), generic(0, pattern_genus=0), wind(6)], cycle=[wind(2)])
    assert str(cech_h1(t2).steinitz) == "2^inf * 3"


def _sieve(lo: int, hi: int) -> list[int]:
    """The primes in ``[lo, hi)``, with ``lo >= 2``: the window is sieved by
    the primes up to the square root of ``hi``, themselves sieved recursively."""
    flags = bytearray([1]) * (hi - lo)
    root = isqrt(hi - 1) + 1
    for p in _sieve(2, root) if root > 2 else ():
        start = max(p * p, -(-lo // p) * p)
        flags[start - lo :: p] = bytes(len(range(start, hi, p)))
    return [lo + i for i, flag in enumerate(flags) if flag]


_PRIMES_BELOW_2_20 = _sieve(2, 2**20)


def _trial_division(n: int) -> dict[int, int]:
    out, p = Counter(), 2
    while p * p <= n:
        while n % p == 0:
            out[p] += 1
            n //= p
        p += 1
    if n > 1:
        out[n] += 1
    return dict(out)


def test_prime_factors_agree_with_trial_division():
    for n in range(1, 10**4 + 1):
        assert _prime_factors(n) == _trial_division(n), n


@given(st.lists(st.sampled_from(_PRIMES_BELOW_2_20), min_size=1, max_size=12))
@example([1031, 1031, 1031])
@example([_PRIMES_BELOW_2_20[-1]] * 2)
@example([_PRIMES_BELOW_2_20[-1], _PRIMES_BELOW_2_20[-2]])
@example([2, 3, 5, 1021, 1031, 65537])
def test_prime_factors_recover_a_product_of_sieved_primes(primes):
    n, factors = 1, Counter()
    for p in primes:
        if n * p <= 2**40:
            n *= p
            factors[p] += 1
    assert _prime_factors(n) == dict(factors)


def test_a_thousand_large_prime_windings_exit_in_bounded_time(tmp_path):
    from toroidal.cli import main

    primes = _sieve(2**40 - 40_000, 2**40 + 1)[-1000:]
    doc = {
        "initial": "unknot",
        "prefix": [{"kind": "wind", "w": p} for p in primes[1:]],
        "cycle": [{"kind": "wind", "w": primes[0]}],
    }
    path = tmp_path / "large_windings.json"
    path.write_text(json.dumps(doc))
    out = io.StringIO()
    start = time.perf_counter()
    assert main(["--json", "tower", "report", str(path)], out, io.StringIO()) == 0
    assert time.perf_counter() - start < 5
    assert len(primes) == 1000 and primes[-1] < 2**40
    assert json.loads(out.getvalue())["steinitz"] == " * ".join([f"{primes[0]}^inf", *map(str, primes[1:])])


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


def test_concentric_generic_stage_keeps_the_chain_exact():
    # A concentric stage has winding one and a trivial pattern, so, like a
    # core-parallel stage, it preserves the core knot type.
    from toroidal.reports import build_report

    t = tower(TREFOIL, cycle=[generic(1, 0, ONE, concentric=True)], name="tame_trefoil")
    assert build_report(t) == build_report(CAT["tame_trefoil"])
    # So a declaration above the core's genus contradicts it.
    pinned = tower(TREFOIL, cycle=[generic(1, 0, ONE, declared_genus=2, concentric=True)])
    assert [v.kind for v in validate_tower(pinned).violations] == [ViolationKind.SCHUBERT_VIOLATION]
    # A stage that breaks the concentricity contract only bounds the genus.
    bad = tower(TREFOIL, prefix=[generic(2, 0, ONE, concentric=True), generic(1, 0, ONE, declared_genus=1)])
    assert [v.kind for v in validate_tower(bad).violations] == [
        ViolationKind.CONCENTRICITY_CONTRACT,
        ViolationKind.SCHUBERT_VIOLATION,
    ]


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


def test_reembed_refuses_a_genus_that_is_not_exact():
    with pytest.raises(PreconditionError) as exc:
        reembed_unknotted(tower(TREFOIL, cycle=[generic(1, pattern_genus=0)]))
    assert exc.value.reason == "GenusNotExact"


def test_reembed_drops_a_core_parallel_declared_genus():
    # The declaration pins the genus of the knotted tower; the re-embedded
    # tower is unknotted, where the same declaration would contradict it.
    t = tower_from_dict({"initial": "torus(2,3)", "cycle": [{"kind": "core_parallel", "declared_genus": 1}]})
    assert str(genus_of_tower(t)) == "exact:1"
    out = reembed_unknotted(t)
    assert validate_tower(out).ok
    assert out.cycle == (core_parallel(),)
    assert is_unknotted_tower(out)


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


def test_table_refuses_a_prime_flag_with_genus_zero_and_a_negative_genus():
    # A prime knot is nontrivial, so a prime table of genus 0 would make a
    # report call its set both unknotted and knotted_with_h1_not_z.
    from toroidal.reports import build_report

    with pytest.raises(ValueError, match="table knot 'y' is flagged prime but declares genus 0"):
        Table("y", genus=0, prime=True)
    with pytest.raises(ValueError, match="table knot 'z' declares negative genus -1"):
        Table("z", genus=-1)
    assert Table("y", genus=0).genus == 0
    assert Table("x", prime=True).prime
    with pytest.raises(ValueError, match="flagged prime"):
        build_report(Tower("t", Table("y", genus=0, prime=True), (), (wind(2),)))


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


def test_mask_errors_quote_by_the_one_rule():
    for mask, message in [
        ("0000", "mask must select at least one knot"),
        ("", "mask must be a nonempty string of 0s and 1s, got ''"),
        ("0" * 10**5 + "2", f"mask must be a nonempty string of 0s and 1s, got '{'0' * 29}...{'0' * 28}2' (100003 characters)"),
    ]:
        with pytest.raises(ValueError) as exc:
            mask_tower(mask)
        assert str(exc.value) == message


def test_distinguish_prime_table_summands():
    fig8, k52 = TABLE_KNOTS["figure_eight"], TABLE_KNOTS["5_2"]
    a = tower(fig8, cycle=[swallow(k52)])
    b = tower(k52, cycle=[swallow(fig8)])
    result = distinguish_connected_sums(a, b)
    assert result.verdict == "inequivalent" and result.witness == "table(5_2)"


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


# -- JSON schema -----------------------------------------------------------------


# Stages that carry a pattern polynomial, which the random towers do not.
_DELTA_STAGES = (
    generic(1, 1, parse_poly("1 - t + t^2")),
    generic(2, None, parse_poly("1 - 3*t + t^2"), declared_genus=4),
    generic(0, 0, ONE),
    generic(1, 0, ONE, concentric=True),
)


def test_tower_json_round_trip():
    delta_tower = Tower("delta", TREFOIL, _DELTA_STAGES, (core_parallel(), wind(3)))
    towers = [*CAT.values(), delta_tower, *random_valid_towers(5, 200)]
    for t in towers:
        doc = tower_to_dict(t)
        again = tower_from_dict(json.loads(json.dumps(doc)))
        assert again == t and tower_to_dict(again) == doc
    assert [s["pattern_delta"] for s in tower_to_dict(delta_tower)["prefix"]] == [
        "1 - t + t^2", "1 - 3*t + t^2", "1", "1"
    ]


def test_a_stage_reads_only_the_fields_it_is_given(monkeypatch):
    import toroidal.towers as towers

    calls = []
    read = towers._field
    monkeypatch.setattr(towers, "_field", lambda obj, key, *rest: calls.append(key) or read(obj, key, *rest))
    stage = towers._stage_from_dict({"kind": "swallow", "knot": "torus(2,3)"}, "cycle[0]")
    assert stage == swallow(TREFOIL) and calls == ["knot"]
    # A required field that is missing is read too, to name it.
    calls.clear()
    with pytest.raises(ValueError, match=r"^cycle\[0\]: missing field 'w'$"):
        towers._stage_from_dict({"kind": "wind", "declared_genus": 0}, "cycle[0]")
    assert calls == ["w"]


def test_null_passes_exactly_where_the_kind_default_is_null():
    def stage(**fields):
        return tower_from_dict({"initial": "unknot", "cycle": [fields]}).cycle[0]

    # Where the kind's default is null, null means that default.
    assert stage(kind="generic", w=1, pattern_delta=None) == stage(kind="generic", w=1) == generic(1)
    assert stage(kind="swallow", knot="torus(2,3)", pattern_delta=None) == swallow(TREFOIL)
    assert stage(kind="swallow", knot="torus(2,3)", pattern_genus=None) == swallow(TREFOIL)
    assert stage(kind="wind", w=2, knot=None, declared_genus=None) == wind(2)
    # Where it is not, null is refused as the wrong type.
    for fields, key, kind in [
        ({"kind": "core_parallel", "pattern_delta": None}, "pattern_delta", "a string"),
        ({"kind": "wind", "w": 2, "pattern_delta": None}, "pattern_delta", "a string"),
        ({"kind": "core_parallel", "pattern_genus": None}, "pattern_genus", "an integer"),
        ({"kind": "wind", "w": None}, "w", "an integer"),
        ({"kind": "swallow", "knot": None}, "knot", "a string"),
        ({"kind": "generic", "w": 1, "concentric": None}, "concentric", "true or false"),
    ]:
        message = f"cycle[0]: '{key}' must be {kind}, got None"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stage(**fields)


def test_tower_keeps_its_initial_knot_in_normal_form():
    cycle = (core_parallel(),)
    assert Tower("t", Torus(3, 2), cycle=cycle) == Tower("t", Torus(2, 3), cycle=cycle)
    # A deep Python-API sum is flattened on construction, so the tower
    # prints and round-trips like its flat form.
    deep = Torus(2, 3)
    for _ in range(3000):
        deep = Sum((UNKNOT, deep))
    t = Tower("t", deep, cycle=cycle)
    assert t.initial == Torus(2, 3)
    assert tower_from_dict(tower_to_dict(t)) == t


def test_tower_json_errors():
    with pytest.raises(ValueError):
        tower_from_dict({"cycle": []})  # no initial
    with pytest.raises(ValueError):
        tower_from_dict({"initial": "unknot", "cycle": [{"kind": "nope"}]})
    with pytest.raises(ValueError):
        tower_from_dict({"initial": "unknot", "cycle": [{"kind": "wind"}]})
    with pytest.raises(ValueError):
        tower_from_dict({"initial": "unknot", "bogus": 1, "cycle": []})
    with pytest.raises(ValueError, match=r"^cycle\[0\]: stage must be an object$"):
        tower_from_dict({"initial": "unknot", "cycle": [5]})
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
    # The kind contracts are the validator's, applied at load; a concentric
    # wind or swallow stage breaks its kind's contract once.
    for stage in [
        {"kind": "wind", "w": 1, "concentric": True},
        {"kind": "wind", "w": 2, "concentric": True},
        {"kind": "swallow", "knot": "torus(2,3)", "concentric": True},
    ]:
        with pytest.raises(InvalidTowerError) as exc:
            tower_from_dict({"initial": "unknot", "cycle": [stage]})
        assert [v.kind for v in exc.value.report.violations] == [ViolationKind.CONCENTRICITY_CONTRACT]
    # Only a swallow stage takes a knot; on any other kind it is refused,
    # not dropped.
    for stage in [
        {"kind": "wind", "w": 2, "knot": "torus(2,3)"},
        {"kind": "core_parallel", "knot": "torus(2,3)"},
    ]:
        with pytest.raises(InvalidTowerError, match=r"cycle\[0\].*MalformedStage.*knot"):
            tower_from_dict({"initial": "unknot", "cycle": [stage]})


@pytest.mark.parametrize("kind", [None, 5, True, ["a"], {"x": 1}, "SWALLOW", " swallow"], ids=repr)
def test_unknown_stage_kind_is_refused(kind):
    # The loader looks a kind up by its JSON name; an unhashable kind is
    # refused like any other, not let out as a TypeError.
    message = f"cycle[0]: unknown stage kind {kind!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tower_from_dict({"initial": "unknot", "cycle": [{"kind": kind}]})


def test_a_bad_value_is_quoted_in_full_only_when_short():
    def message(value):
        with pytest.raises(ValueError) as exc:
            tower_from_dict({"initial": "unknot", "initial_genus": value, "cycle": [{"kind": "core_parallel"}]})
        return str(exc.value)

    # A repr of up to 60 characters is quoted whole; a longer one is cut and
    # says how long it was.
    for value in [[1, 2], 2.5, "x" * 58]:
        assert message(value) == f"tower: 'initial_genus' must be an integer, got {value!r}"
    assert message("x" * 59) == (
        f"tower: 'initial_genus' must be an integer, got '{'x' * 29}...{'x' * 29}' (61 characters)"
    )
    long = message(list(range(200_000)))
    assert long.endswith(" got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9,...99996, 199997, 199998, 199999] (1488890 characters)")


def test_an_integer_too_long_to_print_is_quoted_by_its_bit_length():
    # Torus parameters of 2,201 digits give a genus of about 4,400 digits,
    # past Python's 4,300-digit limit for printing an integer.
    p = 10**2200
    t = tower(UNKNOT, prefix=[swallow(Torus(p + 1, p + 2), declared_genus=5)])
    assert str(validate_tower(t)) == (
        "prefix[0]: SchubertViolation: declared genus 5 is below the pattern genus an integer of 14616 bits"
    )
    doc = {"initial": "unknot", "cycle": [{"kind": "wind", "w": 2, **{f"f{i}": 0 for i in range(10**4)}}]}
    with pytest.raises(ValueError, match=r"^cycle\[0\]: unknown stage fields \['f0', 'f1', .*characters\)$"):
        tower_from_dict(doc)


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
    # The loader and the constructors build each kind over the same defaults.
    loaded = tower_from_dict({
        "initial": "unknot",
        "prefix": [
            {"kind": "swallow", "knot": "sum(torus(3,2); unknot)"},
            {"kind": "core_parallel"},
            {"kind": "wind", "w": 3},
        ],
        "cycle": [{"kind": "generic", "w": 2}],
    })
    assert loaded.prefix == (swallow(TREFOIL), core_parallel(), wind(3))
    assert loaded.cycle == (generic(2),)


# -- one analysis per report --------------------------------------------------


def _count_calls(monkeypatch, module, calls: dict) -> None:
    for name in calls:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)


def test_report_checks_each_stage_and_walks_the_chain_once(monkeypatch):
    import toroidal.towers as towers
    from toroidal.reports import build_report

    t = mask_tower("1", 64)
    calls = {"_walk": 0, "_stage_transfer": 0}
    _count_calls(monkeypatch, towers, calls)
    checked = []  # each stage whose contract faults are computed, in order
    faults = towers.Stage._faults.fact

    def counted_faults(stage):
        checked.append(stage)
        return faults(stage)

    monkeypatch.setattr(towers.Stage._faults, "fact", counted_faults)
    # The validator and the report share the tower's one walk.
    assert validate_tower(t).ok
    build_report(t)
    assert calls == {"_walk": 1, "_stage_transfer": len(t.prefix) + 2 * len(t.cycle)}
    assert len(checked) == 65 and all(a is b for a, b in zip(checked, t.prefix + t.cycle))
    # Reading the tower again walks nothing.
    validate_tower(t)
    assert build_report(t) == build_report(mask_tower("1", 64))
    assert calls["_walk"] == 2


def test_each_knot_genus_is_computed_once(monkeypatch):
    import toroidal.towers as towers
    from toroidal.reports import build_report

    calls = {"genus_of_knot": 0}
    _count_calls(monkeypatch, towers, calls)
    doc = tower_to_dict(mask_tower("1", 64))
    t = tower_from_dict(doc)
    # The loader checks each stage contract, which reads the pattern.
    assert calls["genus_of_knot"] == len(t.prefix) + len(t.cycle) == 65
    assert validate_tower(t).ok
    report = build_report(t)
    assert report["genus"] == "infinite"
    # One more for the initial knot; the walk reads the kept bounds, and the
    # cycle stage, walked twice and read by the genus rule, is not recomputed.
    assert calls["genus_of_knot"] == 66


def test_walk_is_kept_per_value(monkeypatch):
    import toroidal.towers as towers
    from toroidal.reports import build_report

    walked = mask_tower("1", 8)
    assert validate_tower(walked).ok and build_report(walked)["genus"] == "infinite"
    fresh = mask_tower("1", 8)
    # The kept walk is no field: equality, hash and the JSON form ignore it.
    assert walked == fresh and hash(walked) == hash(fresh)
    assert tower_to_dict(walked) == tower_to_dict(fresh)
    assert repr(walked) == repr(fresh)

    calls = {"_walk": 0, "_cohomology": 0, "_genus": 0}
    _count_calls(monkeypatch, towers, calls)
    # A replaced tower is a new value with a walk of its own.
    tame = walked._replace(cycle=(core_parallel(),))
    report = build_report(tame)
    assert calls == {"_walk": 1, "_cohomology": 1, "_genus": 1}
    assert report["genus"] == "exact:120" and report["h1"] == "z"
    # Every classifier reads the facts the tower keeps.
    assert cech_h1(tame).h1 is H1Class.Z and str(genus_of_tower(tame)) == "exact:120"
    assert not is_unknotted_tower(tame)
    reembedded = reembed_unknotted(tame)
    assert str(tower_alexander(tame)) == report["alexander"]
    assert homeo_attractor_verdict(tame).tag == report["homeo_verdict"]
    assert flow_attractor_verdict(tame).tag == report["flow_verdict"]
    assert r_of_toroidal(tame).value == 1 and validate_tower(tame).ok
    with pytest.raises(PreconditionError, match="NotConnectedSumShape"):
        distinguish_connected_sums(tame, tame)
    assert build_report(tame) == report
    assert calls == {"_walk": 1, "_cohomology": 1, "_genus": 1}
    # A copy is a new value: it derives each fact once more.
    assert build_report(tame._replace()) == report
    assert calls == {"_walk": 2, "_cohomology": 2, "_genus": 2}
    assert is_unknotted_tower(reembedded)
    assert report == build_report(Tower(walked.name, UNKNOT, walked.prefix, (core_parallel(),)))
    bad = walked._replace(cycle=(wind(2, declared_genus=0),))
    assert not validate_tower(bad).ok
    assert validate_tower(walked).ok


def test_swallow_polynomials_are_computed_only_by_the_fold(monkeypatch):
    import toroidal.knots as knots
    from toroidal.reports import build_report

    calls = []
    factors = knots._knot_factors

    def counted(k):
        calls.append(k)
        return factors(k)

    monkeypatch.setattr(knots, "_knot_factors", counted)
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


def test_second_cycle_pass_ends_where_the_first_did():
    # The genus reads the chain after the walk's second cycle pass as its
    # fixed point; past the infinite-genus rules, a third pass would add nothing.
    checked = 0
    for t in random_valid_towers(seed=9, count=2000):
        if genus_of_tower(t).is_infinite:
            continue
        n, c = len(t.prefix), len(t.cycle)
        assert t._states[n + c] == t._states[n + 2 * c], t
        checked += 1
    assert checked > 900


def _assert_classifiers_consistent(t: Tower) -> None:
    states = t._states
    for stage, (before, _), (after, _) in zip(_unrolled(t), states, states[1:]):
        if stage.winding >= 1:
            assert after >= before, (t, stage)

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


def test_chain_stays_at_zero_where_h1_is_not_finitely_generated():
    # With every winding at least one the chain never falls, so where it
    # ends at bound 0 (finite genus) every state has bound 0: the
    # homeomorphism verdict need not read the chain.
    checked = 0
    for seed in (3, 1105):
        for t in random_valid_towers(seed=seed, count=300):
            if (
                cech_h1(t).h1 is H1Class.NOT_FINITELY_GENERATED
                and all(s.winding >= 1 for s in t.prefix + t.cycle)
                and not genus_of_tower(t).is_infinite
            ):
                assert all(bound == 0 for bound, _exact in t._states), t
                checked += 1
    assert checked > 20


def test_random_towers_are_internally_consistent():
    for t in random_valid_towers(seed=1105, count=300):
        _assert_classifiers_consistent(t)


def _report_but_name(t: Tower) -> dict:
    from toroidal.reports import build_report

    report = build_report(t)
    del report["name"]
    return report


# A seed has no simpler form, so a failing one is reported as drawn, unshrunk.
@settings(max_examples=10, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_a_move_that_keeps_the_set_keeps_the_report(seed):
    # Each move presents the same toroidal set, and every report field but
    # the name is a property of the set.  The moves that do not hold yet
    # (rotating or unrolling the cycle, dropping an outer wind stage, a
    # swallowed unknot for a core-parallel stage) join as the rules behind
    # them are mended.
    for t in random_valid_towers(seed, 300):
        expected = _report_but_name(t)
        for move in (double_cycle, swap_prefix_swallows, drop_outer_stage):
            for moved in move(t):
                assert validate_tower(moved).ok, (move.__name__, t)
                assert _report_but_name(moved) == expected, (move.__name__, t)
