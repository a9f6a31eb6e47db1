"""Value semantics of the library's public value types: equal exactly when the
type and the fields agree, always true, closed to assignment, and printed as
``Type(field=value, ...)``.  The facts a value keeps are no part of it."""

import copy
import pickle
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path

import pytest

from toroidal.catalog import built_in_towers, mask_tower
from toroidal.diagrams import Crossing, Diagram, alexander_from_diagram, parse_pd
from toroidal.knots import TABLE_KNOTS, UNKNOT, KnotGenus, Sum, Table, Torus, Unknot
from toroidal.laurent import ONE, ZERO, LaurentPoly, kept_fact, parse_poly, value_type
from toroidal.towers import (
    CohProfile,
    InvalidTowerError,
    DistinguishResult,
    FlowVerdict,
    GenusResult,
    HomeoVerdict,
    RInvariant,
    RVerdict,
    Stage,
    StageKind,
    SteinitzNumber,
    Tower,
    ValidationReport,
    Violation,
    cech_h1,
    classify_by_r,
    distinguish_connected_sums,
    flow_attractor_verdict,
    genus_of_tower,
    homeo_attractor_verdict,
    r_of_toroidal,
    swallow,
    validate_tower,
    wind,
)

TREFOIL_PD = "PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]"
CATALOG = built_in_towers()


def _invalid() -> Tower:
    return Tower("bad", Torus(2, 3), cycle=(wind(2, declared_genus=0),))


# One fresh value of each public value type per call.
MAKERS = {
    LaurentPoly: lambda: parse_poly("1 - t + t^2"),
    Unknot: Unknot,
    Torus: lambda: Torus(2, 3),
    Sum: lambda: Sum((Torus(2, 3), UNKNOT)),
    Table: lambda: Table("k", 1, parse_poly("1 - 3*t + t^2"), True),
    KnotGenus: lambda: KnotGenus(1, None),
    Crossing: lambda: Crossing(1, 4, 2, 5, -1),
    Diagram: lambda: parse_pd(TREFOIL_PD),
    Stage: lambda: wind(2),
    Tower: lambda: mask_tower("1", 3),
    Violation: lambda: validate_tower(_invalid()).violations[0],
    ValidationReport: lambda: validate_tower(_invalid()),
    SteinitzNumber: lambda: SteinitzNumber(((3, 1),), (2,)),
    CohProfile: lambda: cech_h1(mask_tower("1", 3)),
    GenusResult: lambda: genus_of_tower(mask_tower("1", 3)),
    HomeoVerdict: lambda: homeo_attractor_verdict(mask_tower("1", 3)),
    FlowVerdict: lambda: flow_attractor_verdict(mask_tower("1", 3)),
    DistinguishResult: lambda: distinguish_connected_sums(mask_tower("1", 3), mask_tower("11", 3)),
    RInvariant: lambda: r_of_toroidal(mask_tower("1", 3)),
    RVerdict: lambda: classify_by_r(0, "z", True, True),
}
TUPLE_TYPES = [cls for cls in MAKERS if cls is not LaurentPoly]


def _field(value):
    """A field of ``value`` to assign, or for a type without fields a name it lacks."""
    return "terms" if isinstance(value, LaurentPoly) else (*value._fields, "p")[0]


@pytest.mark.parametrize("cls", MAKERS, ids=lambda cls: cls.__name__)
def test_equal_fields_of_one_type_give_equal_values(cls):
    a, b = MAKERS[cls](), MAKERS[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", TUPLE_TYPES, ids=lambda cls: cls.__name__)
def test_a_value_never_equals_its_plain_tuple(cls):
    value = MAKERS[cls]()
    plain = tuple(value)
    assert value != plain and plain != value
    assert not value == plain and not plain == value


def test_values_of_different_types_with_equal_fields_differ():
    values = [cls(2, 3) for cls in (Torus, KnotGenus, CohProfile, RInvariant, RVerdict, SteinitzNumber)]
    values.append((2, 3))
    for a, b in combinations(values, 2):
        assert a != b and b != a and not a == b and not b == a
    assert ONE != ((0, 1),) and ((0, 1),) != ONE and ONE != 1
    assert Sum((Torus(2, 3),)) != Torus(2, 3)


def test_sequence_fields_are_kept_as_tuples():
    from toroidal.reports import build_report

    a, b = Torus(2, 3), Torus(2, 5)
    for parts in ([a, b], (p for p in (a, b))):
        summed = Sum(parts)
        assert summed == Sum((a, b)) and hash(summed) == hash(Sum((a, b)))
    with pytest.raises(ValueError, match="at least one part"):
        Sum(p for p in ())
    tupled = Tower("t", UNKNOT, prefix=(swallow(a),), cycle=(wind(2),))
    for prefix, cycle in (([swallow(a)], [wind(2)]), ((s for s in [swallow(a)]), (wind(2),))):
        listed = Tower("t", UNKNOT, prefix=prefix, cycle=cycle)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert validate_tower(listed).ok and build_report(listed) == build_report(tupled)


def test_values_are_true_whatever_their_fields():
    assert bool(UNKNOT) is True
    for cls in TUPLE_TYPES:
        assert bool(MAKERS[cls]()) is True
    # A polynomial is true exactly when it is nonzero.
    assert bool(ONE) is True and bool(ZERO) is False


@pytest.mark.parametrize("cls", MAKERS, ids=lambda cls: cls.__name__)
def test_values_refuse_assignment_and_deletion(cls):
    value = MAKERS[cls]()
    before = repr(value)
    field = _field(value)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert repr(value) == before


def test_repr_is_the_field_form():
    assert repr(Torus(2, 3)) == "Torus(p=2, q=3)"
    assert repr(UNKNOT) == "Unknot()"
    assert repr(Sum((Torus(3, 2), UNKNOT))) == "Sum(parts=(Torus(p=3, q=2), Unknot()))"
    assert repr(TABLE_KNOTS["figure_eight"]) == (
        "Table(name='figure_eight', genus=1, delta=LaurentPoly('1 - 3*t + t^2'), prime=True)"
    )
    assert repr(KnotGenus(1, None)) == "KnotGenus(lower=1, upper=None)"
    assert repr(wind(2)) == (
        "Stage(kind=<StageKind.WIND: 'wind'>, winding=2, pattern_genus=0, "
        "pattern_delta=LaurentPoly('1'), declared_genus=None, concentric=False, knot=None)"
    )
    assert repr(parse_pd("PD[]")) == "Diagram(crossings=(), edge_arc=())"
    assert repr(Crossing(1, 4, 2, 5, -1)) == "Crossing(a=1, b=4, c=2, d=5, sign=-1)"
    assert repr(cech_h1(CATALOG["dyadic_solenoid"])) == (
        "CohProfile(h1=<H1Class.NOT_FINITELY_GENERATED: 'not_finitely_generated'>, "
        "steinitz=SteinitzNumber(finite=(), infinite=(2,)))"
    )
    assert repr(classify_by_r(0, "z", True, True)) == (
        "RVerdict(classification=<RClassification.INCONCLUSIVE: 'inconclusive'>, "
        "note='a connected set with these data would be cellular')"
    )
    assert repr(ONE) == "LaurentPoly('1')"


def _with_facts():
    """A tower, a stage and a diagram that have each kept their facts."""
    tower, stage, diagram = mask_tower("1", 3), swallow(Torus(2, 5)), parse_pd(TREFOIL_PD)
    genus_of_tower(tower), stage._pattern, alexander_from_diagram(diagram)
    return tower, stage, diagram


def test_kept_facts_are_no_part_of_the_value():
    fresh = mask_tower("1", 3), swallow(Torus(2, 5)), parse_pd(TREFOIL_PD)
    for kept, new in zip(_with_facts(), fresh):
        assert vars(kept) and not vars(new)
        assert kept == new and hash(kept) == hash(new) and repr(kept) == repr(new)


def test_replace_gives_a_fresh_value_without_facts():
    tower, stage, diagram = _with_facts()
    for value in (tower, stage, diagram):
        copy_ = value._replace()
        assert copy_ == value and copy_ is not value and not vars(copy_)
    tame = tower._replace(cycle=(wind(1),))
    assert tame.cycle == (wind(1),) and tame.prefix == tower.prefix and not vars(tame)
    assert str(genus_of_tower(tame)) != str(genus_of_tower(tower))
    # The edited copy passes through the type's own checks.
    with pytest.raises(ValueError, match="coprime"):
        Torus(2, 3)._replace(q=4)
    with pytest.raises(ValueError, match="at least one part"):
        Sum((UNKNOT,))._replace(parts=())


def _counted_fact(runs: list):
    """A value type whose fact records each run of its body in ``runs``."""

    class Halved(value_type("Halved", "n")):
        @kept_fact
        def half(self) -> int:
            """``n // 2`` of an even ``n``."""
            runs.append(self.n)
            if self.n % 2:
                raise ValueError(f"{self.n} is odd")
            return self.n // 2

    return Halved


def test_a_kept_fact_runs_once_per_value():
    runs = []
    Halved = _counted_fact(runs)
    a, b = Halved(4), Halved(4)
    assert (a.half, a.half, b.half, b.half) == (2, 2, 2, 2)
    assert runs == [4, 4] and vars(a) == vars(b) == {"half": 2}
    copy_ = a._replace()
    assert copy_ == a and not vars(copy_) and not vars(Halved(4))
    assert Halved.half.__doc__ == "``n // 2`` of an even ``n``."


def test_a_fact_that_raises_keeps_nothing():
    runs = []
    odd = _counted_fact(runs)(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="3 is odd"):
            odd.half
    assert runs == [3, 3] and not vars(odd)
    # An invalid tower keeps its walk, but not the states it refuses to give.
    bad = _invalid()
    for _ in range(2):
        with pytest.raises(InvalidTowerError):
            bad._states
    assert list(vars(bad)) == ["_walked"]


def test_threads_reading_one_stage_agree():
    # Facts take no lock: threads that race on a first read may each compute
    # the fact, and every reader sees an equal value.  More threads than
    # cores, and a short switch interval, make the race likely.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in range(1, 51):
            stage = Stage(StageKind.SWALLOW, w, knot=Sum((Torus(2, 3), Torus(3, 5))))
            barrier, seen = threading.Barrier(4), []

            def read():
                barrier.wait()
                seen.append((stage._pattern, stage._faults))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert seen == [(stage._pattern, stage._faults)] * 4
            assert stage._pattern[:2] == (5, True) and bool(stage._faults) == (w != 1)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cls", MAKERS, ids=lambda cls: cls.__name__)
def test_values_copy_and_pickle(cls):
    value = MAKERS[cls]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == repr(value)


_DEEP_SUM = """
import sys
sys.path.insert(0, sys.argv[1])
from toroidal.knots import Sum, Torus

def deep():
    k = Torus(2, 3)
    for _ in range(100_000):
        k = Sum((k,))
    return k

a, b = deep(), deep()
for name, op in [("hash", lambda: hash(a)), ("==", lambda: a == b), ("!=", lambda: a != b),
                 ("repr", lambda: repr(a)), ("str", lambda: str(a))]:
    try:
        op()
        print(name, "returned")
    except RecursionError:
        print(name, "RecursionError")
"""


def test_a_deep_value_never_crashes_the_interpreter():
    # Each level of hash, comparison and printing passes through Python, so
    # the recursion limit stops a deep value before the C stack overflows.
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_SUM, src], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, (proc.returncode, proc.stderr[-500:])
    lines = proc.stdout.split("\n")[:-1]
    assert [line.split()[0] for line in lines] == ["hash", "==", "!=", "repr", "str"]
    assert all(line.split()[1] in ("returned", "RecursionError") for line in lines)
