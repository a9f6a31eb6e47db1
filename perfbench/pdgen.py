"""Planar-diagram codes generated from braids, in the ``PD[X[a,b,c,d], ...]``
convention of ``toroidal.diagrams``.

The torus knot T(p, q) is the closure of the braid (s1 s2 ... s(p-1))^q on
p strands, with (p - 1) q crossings.  Connected sums are formed by cutting
one edge of each summand and splicing the two diagrams together.
"""

from __future__ import annotations

import math

Quad = tuple[int, int, int, int]


def _braid_crossings(p: int, word: list[int]) -> list[list[int]]:
    """Crossings ``[under_in, over_in, under_out, over_out]`` over edge ids.

    Generator ``i`` crosses the strands at positions ``i - 1`` and ``i``;
    the under-strand moves right and the over-strand left.  Closing the
    braid identifies the top edge of each position with its bottom edge.
    """
    cur = list(range(p))
    next_id = p
    crossings: list[list[int]] = []
    for i in word:
        under_in, over_in = cur[i - 1], cur[i]
        under_out, over_out = next_id, next_id + 1
        next_id += 2
        crossings.append([under_in, over_in, under_out, over_out])
        cur[i - 1], cur[i] = over_out, under_out
    alias = {cur[j]: j for j in range(p)}
    for x in crossings:
        x[:] = [alias.get(e, e) for e in x]
    return crossings


def _label_components(crossings: list[list[int]]) -> dict[int, int]:
    """Number edges 1.. consecutively along each component in turn."""
    entered: dict[int, tuple[int, int]] = {}
    for k, (ui, oi, _uo, _oo) in enumerate(crossings):
        entered[ui] = (k, 2)
        entered[oi] = (k, 3)
    labels: dict[int, int] = {}
    for start in sorted(entered):
        e = start
        while e not in labels:
            labels[e] = len(labels) + 1
            k, slot = entered[e]
            e = crossings[k][slot]
    return labels


def braid_closure(p: int, q: int) -> list[Quad]:
    """PD quads of the closure of (s1 ... s(p-1))^q; a knot when gcd(p, q) = 1."""
    crossings = _braid_crossings(p, list(range(1, p)) * q)
    labels = _label_components(crossings)
    return [tuple(labels[e] for e in x) for x in crossings]  # type: ignore[misc]


def torus_pd(p: int, q: int) -> list[Quad]:
    if p < 2 or q < 2 or math.gcd(p, q) != 1:
        raise ValueError(f"T({p},{q}) is not a torus knot")
    return braid_closure(p, q)


def _over_roles(x: Quad, n_edges: int) -> tuple[int, int]:
    """``(over_in, over_out)`` of a crossing, read off label succession."""
    _a, b, _c, d = x
    return (b, d) if d == b % n_edges + 1 else (d, b)


def connected_sum(k1: list[Quad], k2: list[Quad]) -> list[Quad]:
    """Splice ``k2`` into the last edge of ``k1``.

    With ``2 n1`` and ``2 n2`` edges, the sum runs 1 .. 2n1 - 1 along k1,
    then edge 2n1 into k2, k2's edges shifted by 2n1, and edge 2n1 + 2n2
    back into k1.
    """
    e1, e2 = 2 * len(k1), 2 * len(k2)
    out: list[Quad] = []
    for x in k1:
        # Label e1 keeps its tail in k1; where it enters a crossing it is
        # now the edge coming back from k2.
        out.append(tuple(e1 + e2 if lab == e1 and _enters(x, i, e1) else lab  # type: ignore[misc]
                         for i, lab in enumerate(x)))
    for x in k2:
        # Label e2 becomes e1 where it enters a crossing (the edge coming in
        # from k1) and e1 + e2 where it leaves one.
        out.append(tuple(lab + e1 if lab != e2 else (e1 if _enters(x, i, e2) else e1 + e2)  # type: ignore[misc]
                         for i, lab in enumerate(x)))
    return out


def _enters(x: Quad, slot: int, n_edges: int) -> bool:
    """Whether the edge in ``slot`` of crossing ``x`` is an incoming one."""
    return slot == 0 or (slot in (1, 3) and x[slot] == _over_roles(x, n_edges)[0])


def mirror(quads: list[Quad]) -> list[Quad]:
    """Reflect the projection plane: reverses the cyclic order at each crossing."""
    return [(a, d, c, b) for a, b, c, d in quads]


def rotate(quads: list[Quad], shift: int) -> list[Quad]:
    """Renumber edges cyclically, starting the count ``shift`` edges later."""
    n_edges = 2 * len(quads)
    return [tuple((lab - 1 + shift) % n_edges + 1 for lab in x) for x in quads]  # type: ignore[misc]


def render(quads: list[Quad]) -> str:
    return "PD[" + ",".join(f"X[{a},{b},{c},{d}]" for a, b, c, d in quads) + "]"
