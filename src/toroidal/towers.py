"""Toroidal sets as eventually periodic towers of nested solid tori.

A :class:`Tower` records the core knot type of the outermost torus and the
stage data of each nesting step: winding number, the pattern (a swallowed
knot, or a pattern genus and Alexander polynomial), an optional externally
declared genus for the inner torus, and a concentricity flag.  The cycle
stages repeat forever, which keeps every classifier decidable while covering
solenoids, Whitehead-style continua, infinite connected sums and their
truncations.

Classifiers
-----------

* :func:`validate_tower` checks stage contracts and the satellite genus
  inequality ``g(T') >= w * g(T) + g(T, T')`` along the prefix and two cycle
  passes, read by index, naming a stage only where it records a violation;
  the chain stops at a multiplied genus bound past 2^14000, a violation too.
* :func:`cech_h1` computes the first Cech cohomology trichotomy (trivial,
  Z, or not finitely generated) plus a supernatural-number refinement.
* :func:`genus_of_tower` runs the genus decision procedure: recurring
  nontrivial patterns or recurring winding over a knotted core force
  infinite genus; exactness-carrying cycles give an exact value; anything
  else yields the best chained lower bound.
* :func:`tower_alexander` folds the satellite polynomial formula
  ``D'(t) = D_pattern(t) * D_core(t^w)`` along the prefix; past the prefix
  the stages contribute unit factors under the preconditions.
* :func:`homeo_attractor_verdict` and :func:`flow_attractor_verdict`
  decide the attractor obstructions; :func:`classify_by_r` applies the
  stable-Betti-number recognition rules.

Genus bookkeeping tracks a pair ``(bound, exact)``.  Three facts let the
chain stay exact: a concentric or core-parallel stage preserves the core
knot type; a swallow stage forms a connected sum, and genus is additive;
and when the outer torus is exactly unknotted, the preferred framing
extends over the ambient space, so the inner core's knot type equals the
pattern's.  Every other stage only yields the inequality above, winding
zero included: a Whitehead double of a knotted core has genus one.

Each fact is computed once, when first read, and kept on the frozen value
it derives from by :class:`~toroidal.laurent.kept_fact`, which takes no
lock: a :class:`Stage` keeps its pattern and its contract faults, and
a :class:`Tower` keeps its one walk of the unrolled tower (the validation
report and the chain states), its cohomology profile and its genus.  Reading
the states of an invalid tower raises :class:`InvalidTowerError` and keeps
nothing.  The public classifiers are the only readers of these facts, and a
report calls them, so each fact is derived once per tower value.

A tower file's stage is read over its kind's row of defaults, and null is
accepted in a field exactly where that default is null, and means it.
"""

from __future__ import annotations

import enum
import json
from collections import Counter
from itertools import count
from math import gcd
from os import PathLike

from .knots import (
    MAX_GENUS,
    InvariantUnavailable,
    KnotExpr,
    Sum,
    Table,
    genus_of_knot,
    normalize,
    parse_knot,
    prime_summands,
    satellite_alexander,
)
from .laurent import ONE, LaurentPoly, kept_fact, parse_poly, quoted, value_type

__all__ = [
    "StageKind",
    "Stage",
    "Tower",
    "core_parallel",
    "swallow",
    "wind",
    "generic",
    "ViolationKind",
    "Violation",
    "ValidationReport",
    "InvalidTowerError",
    "PreconditionError",
    "H1Class",
    "SteinitzNumber",
    "CohProfile",
    "GenusKind",
    "GenusRule",
    "GenusResult",
    "HomeoVerdict",
    "FlowVerdict",
    "DistinguishResult",
    "RInvariant",
    "RClassification",
    "RVerdict",
    "H1Input",
    "validate_tower",
    "cech_h1",
    "genus_of_tower",
    "is_unknotted_tower",
    "tower_alexander",
    "homeo_attractor_verdict",
    "flow_attractor_verdict",
    "distinguish_connected_sums",
    "r_of_toroidal",
    "classify_by_r",
    "tower_from_dict",
    "tower_to_dict",
    "load_tower",
]


# ---------------------------------------------------------------------------
# data model


class StageKind(str, enum.Enum):
    CORE_PARALLEL = "core_parallel"
    SWALLOW = "swallow"
    WIND = "wind"
    GENERIC = "generic"


# The members, bound once: reading a plain global is several times cheaper
# than reading an Enum member, and the stage path reads them for every stage.
_CORE_PARALLEL, _SWALLOW, _WIND, _GENERIC = StageKind
# The kinds by their JSON names, for the loader.
_STAGE_KINDS = {kind.value: kind for kind in StageKind}

# Each kind's row over the fields after ``kind``, in ``Stage``'s order: its
# constructor's fixed values and the loader's defaults; ``...`` marks a required field.
_STAGE_DEFAULTS: dict[StageKind, tuple] = {
    #              winding, pattern_genus, pattern_delta, declared_genus, concentric, knot
    _CORE_PARALLEL: (1, 0, ONE, None, True, None),
    _SWALLOW: (1, None, None, None, False, ...),
    _WIND: (..., 0, ONE, None, False, None),
    _GENERIC: (..., None, None, None, False, None),
}

# Largest winding a stage may have; the cohomology factors each distinct
# winding once, in well under 10 ms at this size (see _prime_factors).
_MAX_WINDING = 2**40
# Largest bit length of a genus-chain bound: about 4,215 digits, within Python's
# default limit of 4,300 for printing an integer, so messages and reports show it.
_MAX_BOUND_BITS = 14_000


class Stage(value_type(
    "Stage",
    "kind winding pattern_genus pattern_delta declared_genus concentric knot",
    (None, None, None, False, None),
)):
    """One nesting step: the data of the pair (outer torus, inner torus).

    ``pattern_genus`` / ``pattern_delta`` describe the inner torus seen
    through a preferred-framing unknotting of the outer one; ``None`` means
    unknown.  A swallow stage's pattern is its ``knot``: the genus and the
    polynomial are derived from it where they are read, and the validator
    rejects a swallow stage that carries pattern fields.  ``declared_genus``
    is an externally asserted exact genus of the inner torus.  ``concentric``
    asserts that the region between the tori is a product; it is declared
    input, with its necessary conditions (winding one, trivial pattern)
    enforced by the validator.  The pattern and the stage-contract
    faults depend on the stage alone; each is kept on it when first read.
    """

    @kept_fact
    def _pattern(self) -> tuple[int, bool, KnotExpr | LaurentPoly | None]:
        """A lower bound for the pattern genus, whether it is exact, and the pattern: the
        swallowed knot, the polynomial, ``ONE`` at genus 0 (unknotted), or ``None``."""
        kind, _, genus, delta, _, _, knot = self
        if kind is _SWALLOW and knot is not None:
            lower, upper = genus_of_knot(knot)
            return (lower, lower == upper, knot)
        pattern = ONE if delta is None and genus == 0 else delta
        return (0, False, pattern) if genus is None else (genus, True, pattern)

    @kept_fact
    def _faults(self) -> tuple[tuple[ViolationKind, str], ...]:
        """The stage-contract faults, as ``(kind, message)`` pairs."""
        kind, w, genus, delta, declared, concentric, knot = self  # each field read once
        out: list[tuple[ViolationKind, str]] = []
        bad = out.append

        if w < 0:
            bad((_MALFORMED, f"negative winding {quoted(w)}"))
        if w > _MAX_WINDING:
            bad((_MALFORMED, f"winding {quoted(w)} exceeds the limit 2^40"))
        if genus is not None and genus < 0:
            bad((_MALFORMED, f"negative pattern genus {quoted(genus)}"))
        if declared is not None and declared < 0:
            bad((_MALFORMED, f"negative declared genus {quoted(declared)}"))

        if concentric and kind in (_SWALLOW, _WIND):
            bad((_CONTRACT, f"{kind.value} stage cannot be concentric"))

        # Read by the other kinds only; their exact genus-0 pattern is a polynomial.
        bound, exact, pattern = self._pattern
        trivial_pattern = kind is not _SWALLOW and exact and bound == 0 and pattern.is_unit()
        if kind is _SWALLOW:
            if w != 1:
                bad((_MALFORMED, "swallow stage must have w=1"))
            if knot is None:
                bad((_MALFORMED, "swallow stage carries no knot"))
            if genus is not None or delta is not None:
                bad((_MALFORMED, "swallow stage takes its pattern from its knot, not from pattern fields"))
        elif kind is _CORE_PARALLEL:
            if w != 1 or not trivial_pattern:
                bad((_MALFORMED, "core-parallel stage must have w=1 and a trivial pattern"))
            if not concentric:
                bad((_MALFORMED, "core-parallel stage must be concentric"))
        elif kind is _WIND:
            if not trivial_pattern:
                bad((_MALFORMED, "wind stage must have a trivial pattern"))
        if knot is not None and kind is not _SWALLOW:
            bad((_MALFORMED, f"{kind.value} stage takes no knot; only swallow does"))

        if concentric and kind is _GENERIC and (w != 1 or not trivial_pattern):
            bad((_CONTRACT, "a concentric stage needs winding 1 and a trivial pattern"))

        if delta is not None:
            if delta.is_zero():
                bad((_MALFORMED, "pattern polynomial cannot be zero"))
            else:
                at_one = abs(delta.evaluate_at_one())
                if at_one != 1:
                    message = f"pattern polynomial has |value at 1| = {quoted(at_one)}, knots require 1"
                    bad((_MALFORMED, message))
                if genus is not None and delta.breadth() > 2 * genus:
                    bad((_MALFORMED, f"pattern polynomial breadth {quoted(delta.breadth())} exceeds "
                                     f"twice the pattern genus {quoted(genus)}"))
        return tuple(out)


def core_parallel() -> Stage:
    """A concentric parallel copy: winding one, trivial pattern."""
    return Stage(_CORE_PARALLEL, *_STAGE_DEFAULTS[_CORE_PARALLEL])


def swallow(knot: KnotExpr, declared_genus: int | None = None) -> Stage:
    """Follow the core once and tie in ``knot``: a connected-sum stage.

    The stage stores only the knot; its invariants are computed when read.
    """
    row = Stage(_SWALLOW, *_STAGE_DEFAULTS[_SWALLOW])
    return row._replace(declared_genus=declared_genus, knot=normalize(knot))


def wind(w: int, declared_genus: int | None = None) -> Stage:
    """Wind ``w`` times with a trivial pattern, the solenoid stage."""
    return Stage(_WIND, *_STAGE_DEFAULTS[_WIND])._replace(winding=w, declared_genus=declared_genus)


def generic(
    w: int,
    pattern_genus: int | None = None,
    pattern_delta: LaurentPoly | None = None,
    declared_genus: int | None = None,
    concentric: bool = False,
) -> Stage:
    return Stage(_GENERIC, w, pattern_genus, pattern_delta, declared_genus, concentric)


class Tower(value_type("Tower", "name initial prefix cycle initial_genus", ((), (), None))):
    """Eventually periodic defining sequence of a toroidal set: the initial
    knot in normal form, an optional declared genus for it, and the prefix
    and cycle stages, each kept as a tuple.  Its walk, cohomology profile
    and genus are kept on it when first read."""

    def __new__(cls, name, initial, prefix=(), cycle=(), initial_genus=None):
        return super().__new__(cls, name, normalize(initial), tuple(prefix), tuple(cycle), initial_genus)

    @kept_fact
    def _walked(self) -> tuple[ValidationReport, tuple[tuple[int, bool], ...]]:
        return _walk(self)

    @kept_fact
    def _states(self) -> tuple[tuple[int, bool], ...]:
        """The ``(bound, exact)`` chain states of a valid tower; ``InvalidTowerError`` otherwise."""
        report, states = self._walked
        if not report.ok:
            raise InvalidTowerError(report)
        return states

    @kept_fact
    def _coh(self) -> CohProfile:
        self._states  # refuse an invalid tower
        return _cohomology(self)

    @kept_fact
    def _genus_result(self) -> GenusResult:
        return _genus(self, self._states)


# ---------------------------------------------------------------------------
# validation


class ViolationKind(str, enum.Enum):
    SCHUBERT_VIOLATION = "SchubertViolation"
    CONCENTRICITY_CONTRACT = "ConcentricityContract"
    MALFORMED_STAGE = "MalformedStage"


_SCHUBERT, _CONTRACT, _MALFORMED = ViolationKind  # bound once, as the stage kinds are


class Violation(value_type("Violation", "kind where message")):
    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.where}: {self.kind.value}: {self.message}"


class ValidationReport(value_type("ValidationReport", "violations")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        return "OK" if self.ok else "\n".join(str(v) for v in self.violations)


class InvalidTowerError(ValueError):
    """Raised by classifiers and the loader when the tower fails validation."""

    def __init__(self, report: ValidationReport):
        super().__init__(str(report))
        self.report = report


class PreconditionError(ValueError):
    """A classifier's precondition does not hold; ``reason`` is a tag."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"PreconditionFailed({reason})" + (f": {detail}" if detail else ""))
        self.reason = reason


def _stage_transfer(state: tuple[int, bool], stage: Stage) -> tuple[tuple[int, bool] | None, tuple | None]:
    """Apply one stage to the genus chain, whose states are ``(bound, exact)``.

    Returns the new state, ``None`` once a multiplied bound passes its limit,
    and the violation's kind and message there or where a declared genus
    contradicts the chain.
    """
    bound, exact = state
    kind, w, _, _, d, concentric, _ = stage
    plb, pexact, _ = stage._pattern
    # Over an exactly unknotted outer torus the inner core has the pattern's
    # knot type; at winding 0 it need not sit in a ball (a Whitehead double).
    reset = exact and bound == 0
    if reset:
        out = (plb, pexact)
    elif concentric and not stage._faults:
        out = state
    elif kind is _SWALLOW:
        out = (bound + plb, exact and pexact)
    else:
        out = (w * bound + plb, False)
        bits = out[0].bit_length()
        if bits > _MAX_BOUND_BITS:
            message = f"the genus chain bound reaches {bits} bits, past the limit of {_MAX_BOUND_BITS} bits"
            return None, (_MALFORMED, message)

    if d is None:
        return out, None
    if d < out[0]:
        message = (
            f"declared genus {quoted(d)} violates g' >= w*g + g(T,T') "
            f"= {quoted(w)}*{quoted(bound)} + {quoted(plb)} = {quoted(out[0])}"
            if w >= 1 and not reset
            else f"declared genus {quoted(d)} is below the pattern genus {quoted(out[0])}"
        )
    elif out[1] and d != out[0]:
        message = f"declared genus {quoted(d)} contradicts the exactly determined genus {quoted(out[0])}"
    else:
        return (d, True), None
    return out, (_SCHUBERT, message)


def _initial_state(tower: Tower) -> tuple[tuple[int, bool], list[Violation]]:
    g = genus_of_knot(tower.initial)
    d = tower.initial_genus
    if d is None:
        return (g.lower, g.is_exact), []
    if g.is_exact and d != g.lower:
        relation = "contradicts the computed genus"
    elif d < g.lower:
        relation = "is below the provable lower bound"
    else:
        return (d, True), []
    message = f"declared initial genus {quoted(d)} {relation} {quoted(g.lower)}"
    return (g.lower, g.is_exact), [Violation(_MALFORMED, "initial", message)]


def _unrolled(tower: Tower) -> tuple[Stage, ...]:
    """The stages the walk reads: the prefix, then the cycle twice."""
    return tower.prefix + tower.cycle + tower.cycle


def _where(i: int, n: int, c: int) -> str:
    """Where stage ``i`` of the unrolled tower of ``n`` prefix and ``c`` cycle stages is."""
    return f"prefix[{i}]" if i < n else f"cycle[{(i - n) % c}] (periodic)"


def _walk(tower: Tower) -> tuple[ValidationReport, tuple[tuple[int, bool], ...]]:
    """The validation report, and the chain states before and after each stage."""
    state, violations = _initial_state(tower)
    n, c = len(tower.prefix), len(tower.cycle)
    if not c:
        violations.append(Violation(_MALFORMED, "cycle", "cycle must be nonempty"))
    states = [state]
    seen_chain: set[str] = set()
    for i, stage in enumerate(_unrolled(tower)):
        if i < n + c and stage._faults:  # later stages repeat checked ones
            where = _where(i, n, c)
            violations += [Violation(kind, where, message) for kind, message in stage._faults]
        if state is None:  # past the bound limit the chain is not followed
            continue
        state, fault = _stage_transfer(state, stage)
        states.append(state)
        if fault is not None and (where := _where(i, n, c)) not in seen_chain:
            seen_chain.add(where)
            violations.append(Violation(fault[0], where, fault[1]))
    return ValidationReport(tuple(violations)), tuple(states)


def validate_tower(tower: Tower) -> ValidationReport:
    """Check stage contracts and the genus inequality along the tower.

    The cycle is unrolled twice: the second pass checks the declarations
    against the values they themselves force, which settles all later
    passes by periodicity.
    """
    return tower._walked[0]


# ---------------------------------------------------------------------------
# cohomology


class H1Class(str, enum.Enum):
    TRIVIAL = "trivial"
    Z = "z"
    NOT_FINITELY_GENERATED = "not_finitely_generated"


class SteinitzNumber(value_type("SteinitzNumber", "finite infinite", ((), ()))):
    """A supernatural number: primes with exponents in N plus primes at infinity."""

    __slots__ = ()

    def __str__(self) -> str:
        parts = [(p, None) for p in self.infinite] + list(self.finite)
        if not parts:
            return "1"
        parts.sort(key=lambda pe: pe[0])
        rendered = []
        for p, e in parts:
            if e is None:
                rendered.append(f"{p}^inf")
            elif e == 1:
                rendered.append(str(p))
            else:
                rendered.append(f"{p}^{e}")
        return " * ".join(rendered)


# Windings are trial-divided by the integers below _TRIAL, which factors any
# winding below its square completely.  A larger cofactor has no prime factor
# below _TRIAL; it is tested by Miller-Rabin on the first 12 primes, which is
# deterministic below 3 * 10^23 (Sorenson and Webster 2017), and split by
# Pollard's rho with Brent's cycle search (Brent 1980).  A prime near the
# winding limit takes about 0.3 ms, a product of two 20-bit primes about
# 0.5 ms and at most about 5 ms (Xeon, Python 3.11).
_TRIAL = 2**10
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p < _TRIAL and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < _TRIAL * _TRIAL or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            stack += [d, m // d]
    return out


def _is_prime(n: int) -> bool:
    """Miller-Rabin for an ``n`` with no prime factor up to 37."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_factor(n: int) -> int:
    """A proper factor of a composite ``n``: Pollard's rho over
    ``x -> x^2 + c`` with Brent's cycle search and one gcd per batch of up to
    64 steps.  A batch that meets every factor at once gives ``n``; then the
    next ``c`` is tried."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            q, k = 1, 0
            while k < r and g == 1:
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 64
            r *= 2
        if g != n:
            return g


class CohProfile(value_type("CohProfile", "h1 steinitz")):
    """First Cech cohomology of the toroidal set, read off the windings."""

    __slots__ = ()


def cech_h1(tower: Tower) -> CohProfile:
    """Winding trichotomy over the cycle, with a supernatural refinement.

    The direct limit of rank-one groups along the windings is trivial when
    a winding-zero stage recurs, Z when the cycle windings are all one, and
    not finitely generated otherwise.  The supernatural number records the
    limit's type: cycle windings contribute their primes at infinity, the
    prefix windings past the last zero contribute finitely.
    """
    return tower._coh


def _cohomology(tower: Tower) -> CohProfile:
    cycle_ws = [s.winding for s in tower.cycle]
    if any(w == 0 for w in cycle_ws):
        return CohProfile(H1Class.TRIVIAL, None)
    prefix_ws = [s.winding for s in tower.prefix]
    if 0 in prefix_ws:
        prefix_ws = prefix_ws[len(prefix_ws) - prefix_ws[::-1].index(0):]
    factors = {w: _prime_factors(w) for w in {*cycle_ws, *prefix_ws}}
    infinite = {p for w in cycle_ws for p in factors[w]}
    finite: dict[int, int] = {}
    for w, count in Counter(prefix_ws).items():
        for p, e in factors[w].items():
            if p not in infinite:
                finite[p] = finite.get(p, 0) + e * count
    steinitz = SteinitzNumber(tuple(sorted(finite.items())), tuple(sorted(infinite)))
    cls = H1Class.Z if all(w == 1 for w in cycle_ws) else H1Class.NOT_FINITELY_GENERATED
    return CohProfile(cls, steinitz)


# ---------------------------------------------------------------------------
# genus


class GenusKind(str, enum.Enum):
    EXACT = "exact"
    INFINITE = "infinite"
    LOWER_BOUND = "lower_bound"


class GenusRule(str, enum.Enum):
    STRONGLY_KNOTTED = "strongly_knotted"
    WINDING_BLOWUP = "winding_blowup"
    DECLARED_CONSISTENT_CHAIN = "declared_consistent_chain"
    STABLE_CHAIN = "stable_chain"
    SCHUBERT_CHAIN = "schubert_chain"


_GENUS_JUSTIFICATION = {
    GenusRule.STRONGLY_KNOTTED: (
        "every cycle stage winds at least once and a nontrivial pattern recurs, "
        "so the genera of the defining tori diverge"
    ),
    GenusRule.WINDING_BLOWUP: (
        "a winding of at least two recurs over a core of positive genus, "
        "so the genera of the defining tori diverge"
    ),
    GenusRule.DECLARED_CONSISTENT_CHAIN: (
        "declared stage genera pin every cycle stage to a common value"
    ),
    GenusRule.STABLE_CHAIN: (
        "every cycle pass reproduces the entering genus exactly"
    ),
    GenusRule.SCHUBERT_CHAIN: (
        "best value obtained by chaining the satellite genus inequality; "
        "generic stages only bound the genus from below"
    ),
}


class GenusResult(value_type("GenusResult", "kind value rule")):
    __slots__ = ()

    @property
    def is_exact(self) -> bool:
        return self.kind is GenusKind.EXACT

    @property
    def is_infinite(self) -> bool:
        return self.kind is GenusKind.INFINITE

    @property
    def justification(self) -> str:
        return _GENUS_JUSTIFICATION[self.rule]

    def __str__(self) -> str:
        if self.kind is GenusKind.INFINITE:
            return "infinite"
        if self.kind is GenusKind.EXACT:
            return f"exact:{self.value}"
        return f"lower_bound:{self.value}"


def genus_of_tower(tower: Tower) -> GenusResult:
    """Genus decision procedure over the cycle.

    Infinite when a nontrivial pattern recurs over nonzero windings, or a
    winding of at least two recurs over a provably knotted core.  Exact
    when the chain reaches a value that every cycle pass reproduces
    exactly, provided the value is sound for the tower's class (a cycle
    with a winding-zero stage only supports exact genus zero, because the
    basis-independence of the genus limit needs a nontrivial set).
    Otherwise the best chained lower bound.
    """
    return tower._genus_result


def _genus(tower: Tower, states: tuple[tuple[int, bool], ...]) -> GenusResult:
    # The class sorts the cycle windings: some is 0 (trivial), or all are at
    # least 1 and some at least 2 (not finitely generated), or all are 1 (Z).
    h1 = tower._coh.h1
    if h1 is not H1Class.TRIVIAL and any(s._pattern[0] > 0 for s in tower.cycle):
        return GenusResult(GenusKind.INFINITE, None, GenusRule.STRONGLY_KNOTTED)

    # The last state, after the walk's second cycle pass, is the fixed point
    # wherever the genus is finite: a third pass would end where the second
    # did.  A stage's bound does not depend on whether its entering state is
    # exact, and from the second pass on each pass reads the same bounds: a
    # winding-0 stage or a declared genus (all hold on a valid tower) sets the
    # bound whatever enters, and past the return above a cycle with neither
    # has zero pattern bounds, so it keeps the bound or multiplies a positive
    # one into the blowup below.  A pass then maps exactness monotonically,
    # and a monotone map of one bit is idempotent.  With every winding at
    # least one the chain never falls: a stage maps a bound b to b, b + g or
    # w*b + g, and a declared genus below that value makes the tower invalid.
    # So where the first cohomology is not finitely generated and every
    # winding is at least one, a positive bound anywhere on the chain is
    # positive here, and gives the winding blowup.
    bound, exact = states[-1]
    if h1 is H1Class.NOT_FINITELY_GENERATED and bound > 0:
        return GenusResult(GenusKind.INFINITE, None, GenusRule.WINDING_BLOWUP)

    if h1 is H1Class.TRIVIAL and not (exact and bound == 0):
        # A winding-0 cycle supports only exact genus 0: for a homologically
        # trivial set the limit of the tori's genera is only an upper bound.
        bound, exact = 0, False
    if exact:
        rule = (
            GenusRule.DECLARED_CONSISTENT_CHAIN
            if any(s.declared_genus is not None for s in tower.cycle)
            else GenusRule.STABLE_CHAIN
        )
        return GenusResult(GenusKind.EXACT, bound, rule)
    return GenusResult(GenusKind.LOWER_BOUND, bound, GenusRule.SCHUBERT_CHAIN)


def is_unknotted_tower(tower: Tower) -> bool:
    """True exactly when the genus is exactly zero."""
    g = genus_of_tower(tower)
    return g.is_exact and g.value == 0


# ---------------------------------------------------------------------------
# stabilized Alexander polynomial


def tower_alexander(tower: Tower) -> LaurentPoly:
    """The stabilized Alexander polynomial, in canonical form.

    Requires first cohomology Z and exact genus; then the tail stages have
    winding one and trivial patterns, so the polynomial of the defining
    tori stabilizes after the prefix and the fold
    ``D'(t) = D_pattern(t) * D_core(t^w)`` along the prefix computes it.
    Raises ``ValueError`` when the genus exceeds 10^5, or at the limits of
    :func:`~toroidal.knots.satellite_alexander`, which runs the fold.
    """
    if tower._coh.h1 is not H1Class.Z:
        raise PreconditionError("H1NotZ", "the stabilized polynomial needs first cohomology Z")
    genus = tower._genus_result
    if genus.is_infinite:
        raise PreconditionError("InfiniteGenus", "the stabilized polynomial needs finite genus")
    if not genus.is_exact:
        raise PreconditionError(
            "GenusNotExact", "the genus could not be pinned to an exact value"
        )
    if genus.value > MAX_GENUS:
        raise ValueError(
            f"the stabilized polynomial has genus {quoted(genus.value)}, "
            f"which exceeds the limit {MAX_GENUS}"
        )
    def steps():  # lazy: a stage's pattern is read when the fold reaches it
        yield tower.initial, 1
        for stage in tower.prefix:
            pattern = stage._pattern[2]
            if pattern is None:
                raise InvariantUnavailable("stage pattern polynomial is not declared")
            yield pattern, stage.winding

    return satellite_alexander(steps())


# ---------------------------------------------------------------------------
# attractor verdicts


class HomeoVerdict(value_type("HomeoVerdict", "obstructed rule justification note", (None,))):
    """Obstruction to realizability as an attractor of a homeomorphism."""

    __slots__ = ()

    @property
    def tag(self) -> str:
        return f"obstructed:{self.rule}" if self.obstructed else "no_obstruction_found"

    def __str__(self) -> str:
        return self.tag


class FlowVerdict(value_type("FlowVerdict", "realizable rule justification note", (None,))):
    """Realizability as an attractor of a flow."""

    __slots__ = ()

    @property
    def tag(self) -> str:
        prefix = "realizable" if self.realizable else "not_realizable"
        return f"{prefix}:{self.rule}"

    def __str__(self) -> str:
        return self.tag


def homeo_attractor_verdict(tower: Tower) -> HomeoVerdict:
    """One-sided obstruction test for homeomorphism attractors.

    Infinite genus obstructs outright.  Failing that, a set whose first
    cohomology is not finitely generated would have to be unknotted were it
    an attractor, so provable knottedness of a natural neighbourhood (all
    windings nonzero) also obstructs.  There a positive genus bound already
    gives infinite genus, so the knottedness left to prove is that of an
    initial knot with a prime-flagged table summand of undeclared genus.
    ``no_obstruction_found`` is not a realizability guarantee.
    """
    genus = tower._genus_result
    if genus.is_infinite:
        return HomeoVerdict(
            True,
            "infinite_genus",
            "a toroidal attractor of a homeomorphism must have finite genus; "
            + genus.justification,
        )
    if tower._coh.h1 is H1Class.NOT_FINITELY_GENERATED:  # so every cycle winding is >= 1
        all_windings_ge1 = all(s.winding >= 1 for s in tower.prefix)
        # Knotted only where proved.  The genus chain need not be read: with
        # every winding at least one it never falls, so a positive bound on
        # it would have reached the cycle and given infinite genus above.
        # What is left is a prime summand whose genus the chain cannot see.
        summands = tower.initial.parts if isinstance(tower.initial, Sum) else (tower.initial,)
        if all_windings_ge1 and any(isinstance(k, Table) and k.prime for k in summands):
            return HomeoVerdict(
                True,
                "knotted_with_h1_not_z",
                "an attractor whose first cohomology is neither trivial nor Z must be "
                "unknotted, but this tower has a knotted natural neighbourhood",
            )
    return HomeoVerdict(
        False,
        "",
        "no obstruction found",
        note="not a realizability guarantee",
    )


def flow_attractor_verdict(tower: Tower) -> FlowVerdict:
    """Flow-attractor test: cohomology Z plus eventual concentricity."""
    if tower._coh.h1 is not H1Class.Z:
        return FlowVerdict(
            False,
            "h1_not_z",
            "a toroidal attractor of a flow must have first Cech cohomology Z",
        )
    cycle = tower.cycle
    if all(s.concentric for s in cycle):
        return FlowVerdict(
            True,
            "eventually_concentric",
            "all cycle stages are concentric, so the basis is eventually concentric",
        )
    mixed = any(s.concentric for s in cycle)
    return FlowVerdict(
        False,
        "persistently_non_concentric",
        "a non-concentric consecutive pair recurs, and concentricity of a nested "
        "triple passes to the middle pair, so no basis is eventually concentric",
        note=(
            "mixed cycle: verdict extrapolated through the recurring "
            "non-concentric stage"
            if mixed
            else None
        ),
    )


# ---------------------------------------------------------------------------
# connected-sum inequivalence


class DistinguishResult(value_type("DistinguishResult", "verdict witness justification", (None, ""))):
    """``verdict`` is ``"inequivalent"`` or ``"inconclusive"``."""

    __slots__ = ()

    @property
    def inequivalent(self) -> bool:
        return self.verdict == "inequivalent"


OMEGA = "omega"  # multiplicity of summands recurring in the cycle


def _summand_multiset(tower: Tower) -> dict[KnotExpr, int | str]:
    finite: Counter[KnotExpr] = Counter()
    omega: Counter[KnotExpr] = Counter()
    for key, stages, summands in (("prefix", tower.prefix, finite), ("cycle", tower.cycle, omega)):
        for i, stage in enumerate(stages):
            if stage.kind is not _SWALLOW:
                raise PreconditionError("NotConnectedSumShape", f"{key}[{i}] is not a swallow stage")
            summands.update(prime_summands(stage.knot))  # a valid swallow stage carries its knot
    finite.update(prime_summands(tower.initial))
    return {**finite, **dict.fromkeys(omega, OMEGA)}  # finitely many prefix copies are absorbed


def distinguish_connected_sums(a: Tower, b: Tower) -> DistinguishResult:
    """Necessary condition for equivalence of infinite connected sums.

    Equivalent sums must swallow the same prime summands with the same
    multiplicities (cycle summands recur infinitely often).  A differing
    multiset certifies inequivalence; agreement is inconclusive.
    """
    a._states, b._states  # refuse invalid towers
    ma = _summand_multiset(a)
    mb = _summand_multiset(b)
    if ma == mb:
        return DistinguishResult(
            "inconclusive",
            None,
            "the prime-summand multisets agree; the summand condition is only necessary",
        )
    # ``ma != mb``, so some summand occurs a different number of times.
    k = min((k for k in set(ma) | set(mb) if ma.get(k, 0) != mb.get(k, 0)), key=str)
    return DistinguishResult(
        "inequivalent",
        str(k),
        f"summand {k} occurs {ma.get(k, 0)} times in {quoted(a.name)} "
        f"but {mb.get(k, 0)} times in {quoted(b.name)}",
    )


# ---------------------------------------------------------------------------
# the r invariant


class RInvariant(value_type("RInvariant", "value justification")):
    __slots__ = ()


def r_of_toroidal(tower: Tower) -> RInvariant:
    """The stable mod-2 first Betti number of neighbourhood bases: always 1.

    A toroidal set has a basis of solid tori (so the invariant is at most
    one) and is not cellular (so it cannot be zero).
    """
    tower._states  # refuse an invalid tower
    return RInvariant(
        1,
        "a toroidal set has a neighbourhood basis of solid tori and is not "
        "cellular, so its stable first Betti number is exactly one",
    )


class H1Input(str, enum.Enum):
    ZERO = "zero"
    Z = "z"
    OTHER = "other"  # nonzero and not Z; includes not finitely generated


class RClassification(str, enum.Enum):
    TOROIDAL = "toroidal"
    TOROIDAL_COMPONENT_PLUS_CELLULAR = "toroidal_component_plus_cellular"
    INCONCLUSIVE = "inconclusive"


class RVerdict(value_type("RVerdict", "classification note", (None,))):
    __slots__ = ()


def classify_by_r(
    r: int | None,
    h1: H1Input | str,
    h2_trivial: bool,
    connected: bool,
) -> RVerdict:
    """Recognize toroidal sets from (r, H1, H2) data.

    With ``r = 1``, trivial second cohomology, and first cohomology neither
    zero nor Z, a connected compactum is toroidal; a disconnected one has
    exactly one toroidal component, the rest cellular.  ``r = 0`` with
    trivial second cohomology never fits these hypotheses (a connected such
    set would be cellular).  Anything else is out of the rules' reach.
    """
    h1 = H1Input(h1)
    if r == 1 and h2_trivial and h1 is H1Input.OTHER:
        if connected:
            return RVerdict(RClassification.TOROIDAL)
        return RVerdict(RClassification.TOROIDAL_COMPONENT_PLUS_CELLULAR)
    if r == 0 and h2_trivial:
        return RVerdict(
            RClassification.INCONCLUSIVE,
            note="a connected set with these data would be cellular",
        )
    return RVerdict(RClassification.INCONCLUSIVE)


# ---------------------------------------------------------------------------
# JSON schema (version 1)


_JSON_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string", list: "a list"}
# Each stage key after ``kind``, with its place in ``Stage``, JSON type and text
# reader.  The loader reads the keys in this order and reports the first bad one.
_STAGE_JSON = (
    ("knot", 6, str, parse_knot),
    ("w", 1, int, None),
    ("pattern_delta", 3, str, parse_poly),
    ("pattern_genus", 2, int, None),
    ("declared_genus", 4, int, None),
    ("concentric", 5, bool, None),
)
_STAGE_FIELDS = frozenset({"kind", *(key for key, *_ in _STAGE_JSON)})
_TOWER_FIELDS = frozenset({"name", "initial", "initial_genus", "prefix", "cycle", "schema_version"})
def _field(obj: dict, key: str, where: str, kind: type, default=..., parse=None):
    """``obj[key]`` of exactly type ``kind`` (so no ``true`` or ``2.9`` for an int),
    read by ``parse`` if given, or ``default`` when absent; a required field has
    none.  Null means unknown and passes only where that is the default."""
    if key not in obj:
        if default is ...:
            raise ValueError(f"{where}: missing field {quoted(key)}")
        return default
    value = obj[key]
    if value is None and default is None:
        return value
    if type(value) is not kind:
        raise ValueError(f"{where}: {quoted(key)} must be {_JSON_TYPE_NAMES[kind]}, got {quoted(value)}")
    try:
        return value if parse is None else parse(value)
    except ValueError as exc:  # a grammar error, worded to name the field
        raise ValueError(f"{where}: {quoted(key)}: {exc}") from None


def _stage_from_dict(obj: dict, where: str) -> Stage:
    """A stage from its JSON object: the given fields over the kind's row.

    A ``core_parallel``, ``swallow`` or ``wind`` stage must meet its stage
    contract here, so pattern fields on a swallow stage and a knot on any
    other kind are rejected; ``generic`` stages are left to the validator.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: stage must be an object")
    name = obj.get("kind", "generic")
    try:
        kind = _STAGE_KINDS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"{where}: unknown stage kind {quoted(name)}") from None
    if not obj.keys() <= _STAGE_FIELDS:
        raise ValueError(f"{where}: unknown stage fields {quoted(sorted(obj.keys() - _STAGE_FIELDS))}")

    fields = [kind, *_STAGE_DEFAULTS[kind]]
    for key, place, json_type, parse in _STAGE_JSON:
        if key in obj or fields[place] is ...:
            fields[place] = _field(obj, key, where, json_type, fields[place], parse)
    stage = tuple.__new__(Stage, fields)  # what Stage(*fields) does, one call fewer
    if kind is not _GENERIC and stage._faults:
        raise InvalidTowerError(ValidationReport(tuple(Violation(k, where, m) for k, m in stage._faults)))
    return stage


def _stage_to_dict(stage: Stage) -> dict:
    out: dict = {"kind": stage.kind.value}
    for key, place, _, parse in _STAGE_JSON:
        value = stage[place]
        if value is not None:
            out[key] = value if parse is None else str(value)
    return out


def tower_from_dict(obj: dict) -> Tower:
    """Build a tower from the documented JSON object (schema version 1)."""
    if not isinstance(obj, dict):
        raise ValueError("tower description must be a JSON object")
    unknown = obj.keys() - _TOWER_FIELDS
    if unknown:
        raise ValueError(f"unknown tower fields {quoted(sorted(unknown))}")
    if _field(obj, "schema_version", "tower", int, 1) != 1:
        raise ValueError(f"unsupported schema_version {quoted(obj['schema_version'])}")
    initial = _field(obj, "initial", "tower", str, ..., parse_knot)
    prefix, cycle = (
        [_stage_from_dict(s, f"{key}[{i}]") for i, s in enumerate(_field(obj, key, "tower", list, []))]
        for key in ("prefix", "cycle")
    )
    return Tower(
        name=_field(obj, "name", "tower", str, "unnamed"),
        initial=initial,
        prefix=prefix,
        cycle=cycle,
        initial_genus=_field(obj, "initial_genus", "tower", int, None),
    )


def tower_to_dict(tower: Tower) -> dict:
    out: dict = {
        "schema_version": 1,
        "name": tower.name,
        "initial": str(tower.initial),
        "prefix": [_stage_to_dict(s) for s in tower.prefix],
        "cycle": [_stage_to_dict(s) for s in tower.cycle],
    }
    if tower.initial_genus is not None:
        out["initial_genus"] = tower.initial_genus
    return out


def load_tower(path: str | PathLike[str]) -> Tower:
    """Read a tower description file (JSON, schema version 1)."""
    with open(path, "r", encoding="utf-8") as fh:
        name = quoted(str(path))
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name}: not UTF-8 text: {exc}") from exc
        except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
            raise ValueError(f"{name}: not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError(f"{name}: JSON nested too deeply to read") from exc
    return tower_from_dict(obj)
