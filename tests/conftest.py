"""Shared helpers: a random validated-tower generator, a T(2, n) PD code
generator, the mirror of a Laurent polynomial and suite timing."""

from __future__ import annotations

import random
import time

from toroidal.knots import TABLE_KNOTS, Sum, Torus, UNKNOT
from toroidal.laurent import LaurentPoly
from toroidal.towers import (
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
