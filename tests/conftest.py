"""Shared helpers: a random validated-tower generator, metamorphic moves on
towers, PD code generators (T(2, n), signed braid closures, cables and
iterated cables, connected sums, mirrors), the mirror of a Laurent
polynomial and suite timing."""

from __future__ import annotations

import random
import time

from toroidal.knots import TABLE_KNOTS, Sum, Torus, UNKNOT
from toroidal.laurent import LaurentPoly
from toroidal.towers import (
    StageKind,
    Tower,
    core_parallel,
    generic,
    swallow,
    validate_tower,
    wind,
)

_KNOTS = [
    UNKNOT,
    Torus(2, 3),
    Torus(2, 5),
    Torus(3, 4),
    TABLE_KNOTS["figure_eight"],
    Sum((Torus(2, 3), Torus(2, 5))),
]


def random_stage(rng: random.Random):
    roll = rng.random()
    if roll < 0.22:
        return core_parallel()
    if roll < 0.44:
        return swallow(rng.choice(_KNOTS))
    if roll < 0.70:
        declared = 0 if rng.random() < 0.25 else None
        return wind(rng.choice([1, 2, 2, 3]), declared_genus=declared)
    w = rng.choice([0, 0, 1, 1, 1, 2])
    concentric = w == 1 and rng.random() < 0.3
    pg = rng.choice([None, 0, 0, 1, 2]) if not concentric else 0
    declared = rng.choice([None, None, None, 0, 1, 3])
    return generic(w, pattern_genus=pg, declared_genus=declared, concentric=concentric)


def random_tower(rng: random.Random, index: int = 0) -> Tower:
    return Tower(
        name=f"random-{index}",
        initial=rng.choice(_KNOTS),
        prefix=tuple(random_stage(rng) for _ in range(rng.randint(0, 3))),
        cycle=tuple(random_stage(rng) for _ in range(rng.randint(1, 3))),
    )


def random_valid_towers(seed: int, count: int) -> list[Tower]:
    """Generate-and-filter until ``count`` towers pass the validator."""
    rng = random.Random(seed)
    towers: list[Tower] = []
    attempts = 0
    while len(towers) < count:
        attempts += 1
        if attempts > 50 * count:
            raise AssertionError("tower generator rejection rate is implausibly high")
        t = random_tower(rng, len(towers))
        if validate_tower(t).ok:
            towers.append(t)
    return towers


# Metamorphic moves: each gives the towers that present the same toroidal
# set as ``t`` in another way, none where it does not apply.


def double_cycle(t: Tower) -> list[Tower]:
    """M1: the cycle written out twice."""
    return [t._replace(cycle=t.cycle * 2)]


def swap_prefix_swallows(t: Tower) -> list[Tower]:
    """M6: two adjacent prefix swallow stages in the other order; a connected
    sum does not depend on the order of its summands."""
    p = t.prefix
    return [
        t._replace(prefix=(*p[:i], p[i + 1], p[i], *p[i + 2 :]))
        for i in range(len(p) - 1)
        if p[i].kind is p[i + 1].kind is StageKind.SWALLOW
    ]


def drop_outer_stage(t: Tower) -> list[Tower]:
    """M4: the outermost stage removed, for a swallow stage (its knot joins the
    initial knot) or a core-parallel stage, with its declared genus carried to
    the initial knot.  Only a tower that declares no initial genus is moved."""
    if not t.prefix or t.initial_genus is not None:
        return []
    outer, rest = t.prefix[0], t.prefix[1:]
    if outer.kind is StageKind.SWALLOW:
        initial = Sum((t.initial, outer.knot))
    elif outer.kind is StageKind.CORE_PARALLEL:
        initial = t.initial
    else:
        return []
    return [t._replace(initial=initial, prefix=rest, initial_genus=outer.declared_genus)]


def torus_2_pd(n: int) -> str:
    """PD code of the (2, n) torus knot for odd ``n >= 3``.

    The two strands of the closed 2-braid take turns as the under-strand,
    in the layout of the shipped ``torus_2_5.pd`` and ``torus_2_7.pd``.
    """
    def label(x: int) -> int:
        return (x - 1) % (2 * n) + 1

    quads = []
    for k in range(n):
        under, over = (n + 1 + k, 1 + k) if k % 2 == 0 else (1 + k, n + 1 + k)
        quads.append(f"X[{label(under)},{label(over)},{label(under + 1)},{label(over + 1)}]")
    return "PD[" + ",".join(quads) + "]"


Quad = tuple[int, int, int, int]


def braid_closure_quads(p: int, q: int) -> list[Quad]:
    """PD quads of the closure of the braid (s1 s2 ... s(p-1))^q.

    For coprime ``p, q >= 2`` this is the torus knot T(p, q), with
    (p - 1) q crossings and p Seifert circles.
    """
    return braid_quads(p, torus_braid(p, q))


def torus_braid(p: int, q: int) -> list[int]:
    """The braid word (s1 s2 ... s(p-1))^q on p strands."""
    return [k % (p - 1) + 1 for k in range(q * (p - 1))]


def cable_braid(strands: int, word: list[int], m: int, k: int) -> list[int]:
    """The braid word on ``m * strands`` strands whose closure is the cable
    C(m, k + m * writhe) of the closure of ``word``, for coprime ``m, k``.

    Each generator of sign +-1 becomes an m x m bundle crossing whose m^2
    generators all have that sign; a positive one takes every strand of the
    left bundle under the right one.  Then (s1 ... s(m-1))^k twists the
    first bundle, with inverse generators for negative ``k``.  The bundles
    follow the blackboard framing of the companion closure, its
    :func:`writhe`, which gives the cable's second parameter.
    """
    cabled = []
    for g in word:
        sign = 1 if g > 0 else -1
        start = (abs(g) - 1) * m  # strands before the left bundle
        for a in range(m):
            cabled += [sign * (start + m - a + j) for j in range(m)]
    twist = 1 if k > 0 else -1
    return cabled + [twist * j for _ in range(abs(k)) for j in range(1, m)]


def writhe(word: list[int]) -> int:
    """The sum of the signs of a braid word's generators."""
    return sum(1 if g > 0 else -1 for g in word)


def cable_braid_quads(p: int, q: int, m: int, k: int) -> list[Quad]:
    """PD quads of the cable C(m, k + m (p - 1) q) of T(p, q), for coprime ``m, k``.

    The closure of T(p, q)'s braid has writhe (p - 1) q; for ``k > 0`` the
    cable braid is positive, with m^2 (p - 1) q + k (m - 1) crossings.
    """
    return braid_quads(p * m, cable_braid(p, torus_braid(p, q), m, k))


def braid_quads(strands: int, word: list[int]) -> list[Quad]:
    """PD quads of the closure of a braid word that closes to a knot.

    Generator ``i`` takes the strand at position ``i - 1`` under the one at
    position ``i``, and is recorded as (under in, over in, under out, over
    out); its inverse ``-i`` takes the strand from position ``i`` under
    the one from ``i - 1``, recorded as (under in, over out, under out,
    over in).
    """
    at = list(range(strands))  # edge id at each strand position
    crossings = []  # (under in, over in, under out, over out, sign)
    for k, g in enumerate(word):
        i, uo, oo = abs(g), strands + 2 * k, strands + 2 * k + 1
        # Both strands leave at the other's position.
        if g > 0:
            under, over = at[i - 1], at[i]
            at[i - 1], at[i] = oo, uo
        else:
            under, over = at[i], at[i - 1]
            at[i - 1], at[i] = uo, oo
        crossings.append((under, over, uo, oo, g > 0))
    closing = {edge: pos for pos, edge in enumerate(at)}
    crossings = [tuple(closing.get(e, e) for e in x[:4]) + x[4:] for x in crossings]
    # Number the edges 1, 2, ... along the knot.
    after = {x[0]: x[2] for x in crossings} | {x[1]: x[3] for x in crossings}
    label, e = {}, 0
    while e not in label:
        label[e] = len(label) + 1
        e = after[e]
    if len(label) != len(after):
        raise ValueError("the braid closes to more than one component")
    quads = []
    for ui, oi, uo, oo, positive in crossings:
        ui, oi, uo, oo = label[ui], label[oi], label[uo], label[oo]
        quads.append((ui, oi, uo, oo) if positive else (ui, oo, uo, oi))
    return quads


def connected_sum_quads(k1: list[Quad], k2: list[Quad]) -> list[Quad]:
    """PD quads of the connected sum: ``k2`` is spliced into the last edge of
    ``k1``, and the labels run along ``k1`` and then along ``k2``."""
    e1, e2 = 2 * len(k1), 2 * len(k2)
    return _spliced(k1, 0, e1 + e2) + _spliced(k2, e1, e1)


def _spliced(quads: list[Quad], shift: int, head: int) -> list[Quad]:
    """``quads`` with labels shifted by ``shift``, and the head of the last
    edge (where it enters a crossing) relabeled ``head``."""
    last = 2 * len(quads)
    out = []
    for a, b, c, d in quads:
        # The over-strand runs from label x to x + 1, so ``last`` enters a
        # crossing as its over-strand when the other over label is 1.
        out.append((
            head if a == last else a + shift,
            head if b == last and d == 1 else b + shift,
            c + shift,
            head if d == last and b == 1 else d + shift,
        ))
    return out


def mirror_quads(quads: list[Quad]) -> list[Quad]:
    """The mirror image: reflecting the plane reverses each crossing's
    cyclic order, so every crossing changes sign."""
    return [(a, d, c, b) for a, b, c, d in quads]


def pd_text(quads: list[Quad]) -> str:
    return "PD[" + ",".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in quads) + "]"


def mirror(p: LaurentPoly) -> LaurentPoly:
    """``p`` with ``t -> t^-1`` substituted."""
    return LaurentPoly({-e: c for e, c in p.terms})


def pytest_sessionstart(session):
    session._toroidal_t0 = time.perf_counter()


def pytest_sessionfinish(session, exitstatus):
    elapsed = time.perf_counter() - getattr(session, "_toroidal_t0", time.perf_counter())
    verdict = "PASS" if elapsed < 60.0 else "FAIL"
    print(f"\nACCEPTANCE 10 {verdict} ({elapsed:.1f}s): full test suite budget is 60s")
    if verdict == "FAIL" and exitstatus == 0:
        session.exitstatus = 1
