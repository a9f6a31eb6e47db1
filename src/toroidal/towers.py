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
  inequality ``g(T') >= w * g(T) + g(T, T')`` along the unrolled tower.
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
and when the outer torus has winding zero around the inner one, or is
exactly unknotted, the preferred framing extends over the ambient space,
so the inner core's knot type equals the pattern's.  Every other stage
only yields the inequality above.

The classifiers read one private analysis record.  ``_analyze`` walks the
unrolled tower once for the validation report and the chain states, raises
:class:`InvalidTowerError` on an invalid tower, and keeps the states with
the cohomology profile and genus read off them.  A report builds one record.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

from .knots import (
    UNKNOT,
    InvariantUnavailable,
    KnotExpr,
    Sum,
    Table,
    alexander_of_knot,
    genus_of_knot,
    normalize,
    parse_knot,
    prime_summands,
)
from .laurent import ONE, LaurentPoly, parse_poly

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
    "reembed_unknotted",
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


@dataclass(frozen=True)
class Stage:
    """One nesting step: the data of the pair (outer torus, inner torus).

    ``pattern_genus`` / ``pattern_delta`` describe the inner torus seen
    through a preferred-framing unknotting of the outer one; ``None`` means
    unknown.  A swallow stage's pattern is its ``knot``: the genus and the
    polynomial are derived from it where they are read, and the validator
    rejects a swallow stage that carries pattern fields.  ``declared_genus``
    is an externally asserted exact genus of the inner torus.  ``concentric``
    asserts that the region between the tori is a product; it is declared
    input, with its necessary conditions (winding one, trivial pattern)
    enforced by the validator.
    """

    kind: StageKind
    winding: int
    pattern_genus: int | None = None
    pattern_delta: LaurentPoly | None = None
    declared_genus: int | None = None
    concentric: bool = False
    knot: KnotExpr | None = None


def core_parallel() -> Stage:
    """A concentric parallel copy: winding one, trivial pattern."""
    return Stage(StageKind.CORE_PARALLEL, 1, 0, ONE, None, True)


def swallow(knot: KnotExpr, declared_genus: int | None = None) -> Stage:
    """Follow the core once and tie in ``knot``: a connected-sum stage.

    The stage stores only the knot; its invariants are computed when read.
    """
    return Stage(StageKind.SWALLOW, 1, None, None, declared_genus, False, normalize(knot))


def wind(w: int, declared_genus: int | None = None) -> Stage:
    """Wind ``w`` times with a trivial pattern, the solenoid stage."""
    return Stage(StageKind.WIND, w, 0, ONE, declared_genus, False)


def generic(
    w: int,
    pattern_genus: int | None = None,
    pattern_delta: LaurentPoly | None = None,
    declared_genus: int | None = None,
    concentric: bool = False,
) -> Stage:
    return Stage(
        StageKind.GENERIC, w, pattern_genus, pattern_delta, declared_genus, concentric
    )


@dataclass(frozen=True)
class Tower:
    """Eventually periodic defining sequence of a toroidal set."""

    name: str
    initial: KnotExpr
    prefix: tuple[Stage, ...] = ()
    cycle: tuple[Stage, ...] = ()
    initial_genus: int | None = None


# ---------------------------------------------------------------------------
# validation


class ViolationKind(str, enum.Enum):
    SCHUBERT_VIOLATION = "SchubertViolation"
    CONCENTRICITY_CONTRACT = "ConcentricityContract"
    MALFORMED_STAGE = "MalformedStage"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.where}: {self.kind.value}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

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


@dataclass(frozen=True)
class _ChainState:
    bound: int
    exact: bool


def _pattern_bound(stage: Stage) -> tuple[int, bool]:
    """Lower bound for the pattern genus and whether it is exact."""
    if stage.kind is StageKind.SWALLOW and stage.knot is not None:
        g = genus_of_knot(stage.knot)
        return (g.lower, g.is_exact)
    if stage.pattern_genus is not None:
        return (stage.pattern_genus, True)
    return (0, False)


def _stage_transfer(state: _ChainState, stage: Stage) -> tuple[_ChainState, str | None]:
    """Apply one stage to the genus chain.

    Returns the new state and, when a declared genus contradicts the chain,
    a message describing the failed inequality.
    """
    plb, pexact = _pattern_bound(stage)
    w = stage.winding
    if w == 0 or (state.exact and state.bound == 0):
        # The inner torus sits in a ball, or the outer torus is exactly
        # unknotted; either way its core has the pattern's knot type.
        out = _ChainState(plb, pexact)
    elif stage.kind is StageKind.CORE_PARALLEL:
        out = _ChainState(state.bound, state.exact)
    elif stage.kind is StageKind.SWALLOW:
        out = _ChainState(state.bound + plb, state.exact and pexact)
    else:
        out = _ChainState(w * state.bound + plb, False)

    message: str | None = None
    if stage.declared_genus is not None:
        d = stage.declared_genus
        if d < out.bound:
            message = (
                f"declared genus {d} violates g' >= w*g + g(T,T') "
                f"= {w}*{state.bound} + {plb} = {out.bound}"
                if w >= 1 and not (state.exact and state.bound == 0)
                else f"declared genus {d} is below the pattern genus {out.bound}"
            )
        elif out.exact and d != out.bound:
            message = (
                f"declared genus {d} contradicts the exactly determined genus {out.bound}"
            )
        else:
            out = _ChainState(d, True)
    return out, message


def _initial_state(tower: Tower) -> tuple[_ChainState, list[Violation]]:
    violations: list[Violation] = []
    g = genus_of_knot(tower.initial)
    state = _ChainState(g.lower, g.is_exact)
    if tower.initial_genus is not None:
        d = tower.initial_genus
        if g.is_exact and d != g.lower:
            violations.append(
                Violation(
                    ViolationKind.MALFORMED_STAGE,
                    "initial",
                    f"declared initial genus {d} contradicts the computed genus {g.lower}",
                )
            )
        elif d < g.lower:
            violations.append(
                Violation(
                    ViolationKind.MALFORMED_STAGE,
                    "initial",
                    f"declared initial genus {d} is below the provable lower bound {g.lower}",
                )
            )
        else:
            state = _ChainState(d, True)
    return state, violations


def _unrolled(tower: Tower, passes: int = 2) -> Iterable[tuple[Stage, str]]:
    for i, s in enumerate(tower.prefix):
        yield s, f"prefix[{i}]"
    for _ in range(passes):
        for j, s in enumerate(tower.cycle):
            yield s, f"cycle[{j}] (periodic)"


def _stage_contract_violations(stage: Stage, where: str) -> list[Violation]:
    out: list[Violation] = []

    def bad(kind: ViolationKind, msg: str) -> None:
        out.append(Violation(kind, where, msg))

    if stage.winding < 0:
        bad(ViolationKind.MALFORMED_STAGE, f"negative winding {stage.winding}")
    if stage.pattern_genus is not None and stage.pattern_genus < 0:
        bad(ViolationKind.MALFORMED_STAGE, f"negative pattern genus {stage.pattern_genus}")
    if stage.declared_genus is not None and stage.declared_genus < 0:
        bad(ViolationKind.MALFORMED_STAGE, f"negative declared genus {stage.declared_genus}")

    if stage.concentric and stage.kind in (StageKind.SWALLOW, StageKind.WIND):
        bad(ViolationKind.CONCENTRICITY_CONTRACT, f"{stage.kind.value} stage cannot be concentric")

    trivial_pattern = _pattern_bound(stage) == (0, True) and (
        stage.pattern_delta is None or stage.pattern_delta.is_unit()
    )
    if stage.kind is StageKind.CORE_PARALLEL:
        if stage.winding != 1 or not trivial_pattern:
            bad(ViolationKind.MALFORMED_STAGE, "core-parallel stage must have w=1 and a trivial pattern")
        if not stage.concentric:
            bad(ViolationKind.MALFORMED_STAGE, "core-parallel stage must be concentric")
    elif stage.kind is StageKind.SWALLOW:
        if stage.winding != 1:
            bad(ViolationKind.MALFORMED_STAGE, "swallow stage must have w=1")
        if stage.knot is None:
            bad(ViolationKind.MALFORMED_STAGE, "swallow stage carries no knot")
        if stage.pattern_genus is not None or stage.pattern_delta is not None:
            bad(
                ViolationKind.MALFORMED_STAGE,
                "swallow stage takes its pattern from its knot, not from pattern fields",
            )
    elif stage.kind is StageKind.WIND:
        if not trivial_pattern:
            bad(ViolationKind.MALFORMED_STAGE, "wind stage must have a trivial pattern")
    if stage.knot is not None and stage.kind is not StageKind.SWALLOW:
        bad(ViolationKind.MALFORMED_STAGE, f"{stage.kind.value} stage takes no knot; only swallow does")

    if stage.concentric and stage.kind is not StageKind.CORE_PARALLEL:
        if stage.winding != 1 or not trivial_pattern:
            bad(
                ViolationKind.CONCENTRICITY_CONTRACT,
                "a concentric stage needs winding 1 and a trivial pattern",
            )

    if stage.pattern_delta is not None and not stage.pattern_delta.is_zero():
        if abs(stage.pattern_delta.evaluate_at_one()) != 1:
            bad(
                ViolationKind.MALFORMED_STAGE,
                f"pattern polynomial has |value at 1| = "
                f"{abs(stage.pattern_delta.evaluate_at_one())}, knots require 1",
            )
        if stage.pattern_genus is not None and stage.pattern_delta.breadth() > 2 * stage.pattern_genus:
            bad(
                ViolationKind.MALFORMED_STAGE,
                f"pattern polynomial breadth {stage.pattern_delta.breadth()} exceeds "
                f"twice the pattern genus {stage.pattern_genus}",
            )
    if stage.pattern_delta is not None and stage.pattern_delta.is_zero():
        bad(ViolationKind.MALFORMED_STAGE, "pattern polynomial cannot be zero")
    return out


def _walk(tower: Tower) -> tuple[ValidationReport, tuple[_ChainState, ...]]:
    """The validation report, and the chain states before and after each stage."""
    state, violations = _initial_state(tower)
    if not tower.cycle:
        violations.append(
            Violation(ViolationKind.MALFORMED_STAGE, "cycle", "cycle must be nonempty")
        )
    states = [state]
    first_pass_end = len(tower.prefix) + len(tower.cycle)  # later stages repeat checked ones
    seen_chain: set[str] = set()
    for i, (stage, where) in enumerate(_unrolled(tower, passes=2)):
        if i < first_pass_end:
            violations.extend(_stage_contract_violations(stage, where))
        state, message = _stage_transfer(state, stage)
        states.append(state)
        if message is not None and where not in seen_chain:
            seen_chain.add(where)
            violations.append(Violation(ViolationKind.SCHUBERT_VIOLATION, where, message))
    return ValidationReport(tuple(violations)), tuple(states)


def validate_tower(tower: Tower) -> ValidationReport:
    """Check stage contracts and the genus inequality along the tower.

    The cycle is unrolled twice: the second pass checks the declarations
    against the values they themselves force, which settles all later
    passes by periodicity.
    """
    return _walk(tower)[0]


# ---------------------------------------------------------------------------
# cohomology


class H1Class(str, enum.Enum):
    TRIVIAL = "trivial"
    Z = "z"
    NOT_FINITELY_GENERATED = "not_finitely_generated"


@dataclass(frozen=True)
class SteinitzNumber:
    """A supernatural number: primes with exponents in N plus primes at infinity."""

    finite: tuple[tuple[int, int], ...] = ()
    infinite: tuple[int, ...] = ()

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

    @property
    def has_infinite_exponent(self) -> bool:
        return bool(self.infinite)


def _prime_factors(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class CohProfile:
    """First Cech cohomology of the toroidal set, read off the windings."""

    h1: H1Class
    steinitz: SteinitzNumber | None


def cech_h1(tower: Tower) -> CohProfile:
    """Winding trichotomy over the cycle, with a supernatural refinement.

    The direct limit of rank-one groups along the windings is trivial when
    a winding-zero stage recurs, Z when the cycle windings are all one, and
    not finitely generated otherwise.  The supernatural number records the
    limit's type: cycle windings contribute their primes at infinity, the
    prefix windings past the last zero contribute finitely.
    """
    return _analyze(tower).coh


def _cohomology(tower: Tower) -> CohProfile:
    cycle_ws = [s.winding for s in tower.cycle]
    if any(w == 0 for w in cycle_ws):
        return CohProfile(H1Class.TRIVIAL, None)
    prefix_ws = [s.winding for s in tower.prefix]
    if 0 in prefix_ws:
        prefix_ws = prefix_ws[len(prefix_ws) - prefix_ws[::-1].index(0):]
    infinite: set[int] = set()
    for w in cycle_ws:
        infinite.update(_prime_factors(w))
    finite: dict[int, int] = {}
    for w in prefix_ws:
        for p, e in _prime_factors(w).items():
            if p not in infinite:
                finite[p] = finite.get(p, 0) + e
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


@dataclass(frozen=True)
class GenusResult:
    kind: GenusKind
    value: int | None
    rule: GenusRule

    @classmethod
    def exact(cls, g: int, rule: GenusRule) -> GenusResult:
        return cls(GenusKind.EXACT, g, rule)

    @classmethod
    def infinite(cls, rule: GenusRule) -> GenusResult:
        return cls(GenusKind.INFINITE, None, rule)

    @classmethod
    def lower_bound(cls, g: int) -> GenusResult:
        return cls(GenusKind.LOWER_BOUND, g, GenusRule.SCHUBERT_CHAIN)

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


def _cycle_pass(state: _ChainState, tower: Tower) -> _ChainState:
    for stage in tower.cycle:
        state, _ = _stage_transfer(state, stage)
    return state


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
    return _analyze(tower).genus


def _genus(tower: Tower, states: tuple[_ChainState, ...]) -> GenusResult:
    cycle_ws = [s.winding for s in tower.cycle]
    all_ge1 = all(w >= 1 for w in cycle_ws)

    if all_ge1 and any(_pattern_bound(s)[0] > 0 for s in tower.cycle):
        return GenusResult.infinite(GenusRule.STRONGLY_KNOTTED)

    # The chain entering the cycle, then after each cycle pass of the walk.
    n, c = len(tower.prefix), len(tower.cycle)
    passes = [states[n], states[n + c], states[n + 2 * c]]

    if all_ge1 and any(w >= 2 for w in cycle_ws):
        if passes[0].bound > 0 or passes[1].bound > 0:
            return GenusResult.infinite(GenusRule.WINDING_BLOWUP)

    # Iterate cycle passes to a fixed point.  Most chains settle within the
    # two passes of the walk, but not all; the cap of eight is paranoia.
    while len(passes) < 9 and passes[-1] != passes[-2]:
        passes.append(_cycle_pass(passes[-1], tower))
    last = passes[-1]
    if last == passes[-2] and last.exact:
        if any(w == 0 for w in cycle_ws) and last.bound > 0:
            # The defining tori all have this genus, but for a homologically
            # trivial set the limit is only an upper bound for the genus.
            return GenusResult.lower_bound(0)
        rule = (
            GenusRule.DECLARED_CONSISTENT_CHAIN
            if any(s.declared_genus is not None for s in tower.cycle)
            else GenusRule.STABLE_CHAIN
        )
        return GenusResult.exact(last.bound, rule)
    if any(w == 0 for w in cycle_ws):
        return GenusResult.lower_bound(0)
    return GenusResult.lower_bound(last.bound)


@dataclass(frozen=True)
class _Analysis:
    """What the classifiers read off one validated tower and its walk."""

    tower: Tower
    states: tuple[_ChainState, ...]
    coh: CohProfile
    genus: GenusResult


def _analyze(tower: Tower) -> _Analysis:
    """Validate ``tower`` and analyze it from the same walk of its chain."""
    report, states = _walk(tower)
    if not report.ok:
        raise InvalidTowerError(report)
    return _Analysis(tower, states, _cohomology(tower), _genus(tower, states))


def is_unknotted_tower(tower: Tower) -> bool:
    """True exactly when the genus is exactly zero."""
    g = genus_of_tower(tower)
    return g.is_exact and g.value == 0


# ---------------------------------------------------------------------------
# stabilized Alexander polynomial


def _stage_delta(stage: Stage) -> LaurentPoly:
    if stage.kind is StageKind.SWALLOW and stage.knot is not None:
        return alexander_of_knot(stage.knot)
    if stage.pattern_delta is not None:
        return stage.pattern_delta
    if stage.pattern_genus == 0:
        return ONE  # a genus-zero pattern is unknotted
    raise InvariantUnavailable("stage pattern polynomial is not declared")


def tower_alexander(tower: Tower) -> LaurentPoly:
    """The stabilized Alexander polynomial, in canonical form.

    Requires first cohomology Z and exact genus; then the tail stages have
    winding one and trivial patterns, so the polynomial of the defining
    tori stabilizes after the prefix and the fold
    ``D'(t) = D_pattern(t) * D_core(t^w)`` along the prefix computes it.
    """
    return _alexander(_analyze(tower))


def _alexander(a: _Analysis) -> LaurentPoly:
    if a.coh.h1 is not H1Class.Z:
        raise PreconditionError("H1NotZ", "the stabilized polynomial needs first cohomology Z")
    if a.genus.is_infinite:
        raise PreconditionError("InfiniteGenus", "the stabilized polynomial needs finite genus")
    if not a.genus.is_exact:
        raise PreconditionError(
            "GenusNotExact", "the genus could not be pinned to an exact value"
        )
    delta = alexander_of_knot(a.tower.initial)
    for stage in a.tower.prefix:
        pat = _stage_delta(stage)
        if stage.winding == 0:
            delta = pat  # the inner torus sits in a ball: its type is the pattern's
        else:
            delta = pat * delta.subst_power(stage.winding)
    return delta.canonical()


def reembed_unknotted(tower: Tower) -> Tower:
    """Re-embed past the genus stabilization index, unknotting the tower.

    Once the chain reaches its final exact value, every later pattern is
    trivial (the genus inequality forces it), so re-embedding by the
    framing that unknots the stabilized torus yields an unknotted tower:
    initial core the unknot, later stages kept with trivial patterns.
    """
    a = _analyze(tower)
    g = a.genus
    if g.is_infinite:
        raise PreconditionError("InfiniteGenus", "an infinite-genus tower never stabilizes")
    if not g.is_exact:
        raise PreconditionError("GenusNotExact", "stabilization needs an exact genus")
    if g.value == 0:
        return tower

    target = _ChainState(g.value, True)
    if target not in a.states:
        raise PreconditionError("GenusNotExact", "no stabilization index found")
    split = a.states.index(target)

    def forced(stage: Stage) -> Stage:
        if stage.kind is StageKind.CORE_PARALLEL:
            return stage
        return generic(stage.winding, 0, ONE, None, stage.concentric)

    if split <= len(tower.prefix):
        new_prefix = tuple(forced(s) for s in tower.prefix[split:])
    else:
        offset = (split - len(tower.prefix)) % len(tower.cycle)
        new_prefix = tuple(forced(s) for s in tower.cycle[offset:]) if offset else ()
    return Tower(
        name=f"{tower.name} (unknotted reembedding)",
        initial=UNKNOT,
        prefix=new_prefix,
        cycle=tuple(forced(s) for s in tower.cycle),
    )


# ---------------------------------------------------------------------------
# attractor verdicts


@dataclass(frozen=True)
class HomeoVerdict:
    """Obstruction to realizability as an attractor of a homeomorphism."""

    obstructed: bool
    rule: str
    justification: str
    note: str | None = None

    @property
    def tag(self) -> str:
        return f"obstructed:{self.rule}" if self.obstructed else "no_obstruction_found"

    def __str__(self) -> str:
        return self.tag


@dataclass(frozen=True)
class FlowVerdict:
    """Realizability as an attractor of a flow."""

    realizable: bool
    rule: str
    justification: str
    note: str | None = None

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
    windings nonzero) also obstructs.  ``no_obstruction_found`` is not a
    realizability guarantee.
    """
    return _homeo_verdict(_analyze(tower))


def _homeo_verdict(a: _Analysis) -> HomeoVerdict:
    if a.genus.is_infinite:
        return HomeoVerdict(
            True,
            "infinite_genus",
            "a toroidal attractor of a homeomorphism must have finite genus; "
            + a.genus.justification,
        )
    if a.coh.h1 is H1Class.NOT_FINITELY_GENERATED:
        stages = a.tower.prefix + a.tower.cycle
        all_windings_ge1 = all(s.winding >= 1 for s in stages)
        # Knotted only where proved: a positive genus bound, or a prime summand.
        initial = normalize(a.tower.initial)
        summands = initial.parts if isinstance(initial, Sum) else (initial,)
        knotted = any(st.bound > 0 for st in a.states) or any(
            isinstance(k, Table) and k.prime for k in summands
        )
        if all_windings_ge1 and knotted:
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
    return _flow_verdict(_analyze(tower))


def _flow_verdict(a: _Analysis) -> FlowVerdict:
    if a.coh.h1 is not H1Class.Z:
        return FlowVerdict(
            False,
            "h1_not_z",
            "a toroidal attractor of a flow must have first Cech cohomology Z",
        )
    cycle = a.tower.cycle
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


@dataclass(frozen=True)
class DistinguishResult:
    verdict: str  # "inequivalent" | "inconclusive"
    witness: str | None = None
    justification: str = ""

    @property
    def inequivalent(self) -> bool:
        return self.verdict == "inequivalent"


OMEGA = "omega"  # multiplicity of summands recurring in the cycle


def _summand_multiset(tower: Tower) -> dict[KnotExpr, int | str]:
    for stage, where in [(s, f"prefix[{i}]") for i, s in enumerate(tower.prefix)] + [
        (s, f"cycle[{j}]") for j, s in enumerate(tower.cycle)
    ]:
        if stage.kind is not StageKind.SWALLOW:
            raise PreconditionError(
                "NotConnectedSumShape", f"{where} is not a swallow stage"
            )
    counts: dict[KnotExpr, int | str] = {}
    finite = prime_summands(tower.initial).copy()
    for stage in tower.prefix:
        assert stage.knot is not None
        finite.update(prime_summands(stage.knot))
    omega: set[KnotExpr] = set()
    for stage in tower.cycle:
        assert stage.knot is not None
        omega.update(prime_summands(stage.knot))
    for k, c in finite.items():
        counts[k] = c
    for k in omega:
        counts[k] = OMEGA  # finitely many prefix copies are absorbed
    return counts


def distinguish_connected_sums(a: Tower, b: Tower) -> DistinguishResult:
    """Necessary condition for equivalence of infinite connected sums.

    Equivalent sums must swallow the same prime summands with the same
    multiplicities (cycle summands recur infinitely often).  A differing
    multiset certifies inequivalence; agreement is inconclusive.
    """
    _analyze(a)
    _analyze(b)
    ma = _summand_multiset(a)
    mb = _summand_multiset(b)
    if ma == mb:
        return DistinguishResult(
            "inconclusive",
            None,
            "the prime-summand multisets agree; the summand condition is only necessary",
        )
    for k in sorted(set(ma) | set(mb), key=str):
        if ma.get(k, 0) != mb.get(k, 0):
            return DistinguishResult(
                "inequivalent",
                str(k),
                f"summand {k} occurs {ma.get(k, 0)} times in {a.name!r} "
                f"but {mb.get(k, 0)} times in {b.name!r}",
            )
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# the r invariant


@dataclass(frozen=True)
class RInvariant:
    value: int
    justification: str

    def __int__(self) -> int:
        return self.value


_R_TOROIDAL = RInvariant(
    1,
    "a toroidal set has a neighbourhood basis of solid tori and is not "
    "cellular, so its stable first Betti number is exactly one",
)


def r_of_toroidal(tower: Tower) -> RInvariant:
    """The stable mod-2 first Betti number of neighbourhood bases: always 1.

    A toroidal set has a basis of solid tori (so the invariant is at most
    one) and is not cellular (so it cannot be zero).
    """
    _analyze(tower)
    return _R_TOROIDAL


class H1Input(str, enum.Enum):
    ZERO = "zero"
    Z = "z"
    OTHER = "other"  # nonzero and not Z; includes not finitely generated


class RClassification(str, enum.Enum):
    TOROIDAL = "toroidal"
    TOROIDAL_COMPONENT_PLUS_CELLULAR = "toroidal_component_plus_cellular"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RVerdict:
    classification: RClassification
    note: str | None = None


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


def h1_input_of(profile: CohProfile) -> H1Input:
    if profile.h1 is H1Class.TRIVIAL:
        return H1Input.ZERO
    if profile.h1 is H1Class.Z:
        return H1Input.Z
    return H1Input.OTHER


# ---------------------------------------------------------------------------
# JSON schema (version 1)


_JSON_TYPE_NAMES = {int: "an integer", bool: "true or false", str: "a string", list: "a list"}


def _field(obj: dict, key: str, where: str, kind: type, default=...):
    """``obj[key]`` of exactly type ``kind`` (so no ``true`` or ``2.9`` for an int),
    or ``default`` when absent; a required field has none.  Null means unknown
    and passes only where that is the default."""
    if key not in obj:
        if default is ...:
            raise ValueError(f"{where}: missing field {key!r}")
        return default
    value = obj[key]
    if type(value) is kind or (value is None and default is None):
        return value
    raise ValueError(f"{where}: {key!r} must be {_JSON_TYPE_NAMES[kind]}, got {value!r}")


def _stage_from_dict(obj: dict, where: str) -> Stage:
    """A stage from its JSON object: the given fields over the kind's defaults.

    A ``core_parallel``, ``swallow`` or ``wind`` stage must meet its stage
    contract here, so pattern fields on a swallow stage and a knot on any
    other kind are rejected; ``generic`` stages are left to the validator.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: stage must be an object")
    try:
        kind = StageKind(obj.get("kind", "generic"))
    except ValueError:
        raise ValueError(f"{where}: unknown stage kind {obj['kind']!r}") from None
    unknown = set(obj) - {
        "kind", "w", "knot", "pattern_genus", "pattern_delta", "declared_genus", "concentric",
    }
    if unknown:
        raise ValueError(f"{where}: unknown stage fields {sorted(unknown)}")

    knot = _field(obj, "knot", where, str, ... if kind is StageKind.SWALLOW else None)
    knot = None if knot is None else parse_knot(knot)
    if kind is StageKind.SWALLOW:
        stage = swallow(knot)
    elif kind is StageKind.CORE_PARALLEL:
        stage = core_parallel()
    else:
        stage = (wind if kind is StageKind.WIND else generic)(_field(obj, "w", where, int))
    delta = _field(obj, "pattern_delta", where, str, None)
    stage = replace(
        stage,
        winding=_field(obj, "w", where, int, stage.winding),
        pattern_genus=_field(obj, "pattern_genus", where, int, stage.pattern_genus),
        pattern_delta=stage.pattern_delta if delta is None else parse_poly(delta),
        declared_genus=_field(obj, "declared_genus", where, int, None),
        concentric=_field(obj, "concentric", where, bool, stage.concentric),
        knot=knot,
    )
    if kind is not StageKind.GENERIC:
        violations = _stage_contract_violations(stage, where)
        if violations:
            raise InvalidTowerError(ValidationReport(tuple(violations)))
    return stage


def _stage_to_dict(stage: Stage) -> dict:
    out: dict = {"kind": stage.kind.value, "w": stage.winding}
    if stage.knot is not None:
        out["knot"] = str(stage.knot)
    if stage.pattern_genus is not None:
        out["pattern_genus"] = stage.pattern_genus
    if stage.pattern_delta is not None:
        out["pattern_delta"] = str(stage.pattern_delta)
    if stage.declared_genus is not None:
        out["declared_genus"] = stage.declared_genus
    out["concentric"] = stage.concentric
    return out


def tower_from_dict(obj: dict) -> Tower:
    """Build a tower from the documented JSON object (schema version 1)."""
    if not isinstance(obj, dict):
        raise ValueError("tower description must be a JSON object")
    unknown = set(obj) - {"name", "initial", "initial_genus", "prefix", "cycle", "schema_version"}
    if unknown:
        raise ValueError(f"unknown tower fields {sorted(unknown)}")
    if _field(obj, "schema_version", "tower", int, 1) != 1:
        raise ValueError(f"unsupported schema_version {obj['schema_version']!r}")
    initial = parse_knot(_field(obj, "initial", "tower", str))
    prefix, cycle = (
        tuple(
            _stage_from_dict(s, f"{key}[{i}]")
            for i, s in enumerate(_field(obj, key, "tower", list, []))
        )
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


def load_tower(path: str | Path) -> Tower:
    """Read a tower description file (JSON, schema version 1)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return tower_from_dict(obj)
