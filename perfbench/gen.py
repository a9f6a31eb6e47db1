"""Seeded inputs for the three workloads, with their expected outcomes.

Every case carries what the benchmark must see, computed from the way the
case was built (or read from the golden files), never from the library:
Alexander polynomials come from :mod:`polyref`, verdict tags from the
construction, rejections from the fault that was planted.

The size ladders are fixed and the seed picks the details (which knots,
mask bits, label rotation, mirror image, order), so every seed yields a
corpus of about the same cost.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import pdgen
import polyref

GOLDEN_DIR = Path("tests/golden")
PD_DIR = Path("src/toroidal/data")

# The PD files shipped with the package.
CORPUS_NAMES = ["figure_eight", "granny", "torus_2_5", "torus_2_7", "torus_3_4", "trefoil"]

# Invariants of the table knots the grammar knows, from knot tables.
TABLE_REF = {
    "figure_eight": (1, [1, -3, 1]),
    "5_2": (1, [2, -3, 2]),
}


@dataclass(frozen=True)
class Knot:
    """A knot expression with its reference genus and Alexander polynomial."""

    expr: str
    genus: int
    delta: tuple[int, ...]


def torus_knot(p: int, q: int) -> Knot:
    return Knot(f"torus({p},{q})", (p - 1) * (q - 1) // 2, tuple(polyref.torus(p, q)))


def table_knot(name: str) -> Knot:
    g, delta = TABLE_REF[name]
    return Knot(f"table({name})", g, tuple(delta))


def knot_sum(parts: list[Knot]) -> Knot:
    return Knot(
        "sum(" + "; ".join(k.expr for k in parts) + ")",
        sum(k.genus for k in parts),
        tuple(polyref.product([list(k.delta) for k in parts])),
    )


def corpus_knot(name: str) -> Knot:
    """Reference invariants of a shipped PD file, by file name."""
    if name == "figure_eight":
        return table_knot(name)
    if name == "granny":
        return knot_sum([torus_knot(2, 3), torus_knot(2, 3)])
    if name == "trefoil":
        return torus_knot(2, 3)
    _torus, p, q = name.split("_")
    return torus_knot(int(p), int(q))


# ---------------------------------------------------------------------------
# diagram_oracle


@dataclass
class DiagramCase:
    pd_text: str
    knot: Knot | None  # None: the PD code must be rejected
    reject: str = ""  # expected exception class name
    braid: bool = False  # a positive braid closure: the Seifert bound is exact
    crossings: int = 0


def torus_candidates(n: int, max_strands: int = 5) -> list[tuple[int, int]]:
    """T(p, q) whose braid (s1 ... s(p-1))^q has exactly ``n`` crossings."""
    return [(p, n // (p - 1)) for p in range(2, max_strands + 1)
            if n % (p - 1) == 0 and n // (p - 1) >= 2 and math.gcd(p, n // (p - 1)) == 1]


# Crossing numbers of the generated diagrams.  Each has seven cases (torus
# knots, sums of two and of three), so the median and the 90th percentile
# fall inside a group of like-sized cases, whatever the seed picks.
DIAGRAM_CROSSINGS = [5, 9, 15, 21, 27, 33]


def _disguise(rng: random.Random, quads: list[pdgen.Quad]) -> list[pdgen.Quad]:
    if rng.random() < 0.5:
        quads = pdgen.mirror(quads)
    return pdgen.rotate(quads, rng.randrange(2 * len(quads)))


def _pick_torus(rng: random.Random, n: int) -> tuple[Knot, list[pdgen.Quad]]:
    p, q = rng.choice(torus_candidates(n))
    # The braid on p strands closes to T(p, q) whichever parameter is larger.
    return torus_knot(p, q), pdgen.torus_pd(p, q)


def _split(rng: random.Random, n: int, parts: int) -> list[int]:
    """Crossing numbers of ``parts`` torus summands adding up to ``n``."""
    while True:
        cuts = sorted(rng.sample(range(3, n - 2), parts - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        if all(torus_candidates(k) for k in sizes):
            return sizes


def _sum_case(rng: random.Random, n: int, parts: int) -> DiagramCase:
    picks = [_pick_torus(rng, k) for k in _split(rng, n, parts)]
    quads = picks[0][1]
    for _knot, more in picks[1:]:
        quads = pdgen.connected_sum(quads, _disguise(rng, more))
    return DiagramCase(pdgen.render(_disguise(rng, quads)), knot_sum([k for k, _ in picks]),
                       braid=True, crossings=n)


# Crossing number of the diagrams the malformed cases are cut from.
MALFORMED_CROSSINGS = [25] * 6


def _malformed_pds(rng: random.Random, sizes: list[int]) -> list[DiagramCase]:
    """Faults late in large diagrams, so rejecting costs a full parse."""
    out: list[DiagramCase] = []
    kinds = ["link", "truncated", "bad_token", "relabel"]
    for i, n in enumerate(sizes):
        kind = kinds[i % len(kinds)]
        quads = pdgen.torus_pd(*rng.choice(torus_candidates(n)))
        text = pdgen.render(_disguise(rng, quads))
        if kind == "link":
            # Two components: the closure of a 2-braid with an even count.
            link = pdgen.braid_closure(2, n + n % 2)
            out.append(DiagramCase(pdgen.render(_disguise(rng, link)), None,
                                   "PDValidationError"))
        elif kind == "truncated":
            # Cut into the last crossing but keep the closing bracket.
            out.append(DiagramCase(text[: len(text) - rng.randrange(3, 8)] + "]", None, "PDSyntaxError"))
        elif kind == "bad_token":
            cut = text.index("X[", len(text) - rng.randrange(20, 40))
            out.append(DiagramCase(text[:cut] + "Y" + text[cut + 1:], None, "PDSyntaxError"))
        else:
            # Swap two labels on one crossing: the under-strand no longer
            # continues to the next label.
            j = rng.randrange(len(quads))
            a, b, c, d = quads[j]
            quads[j] = (c, b, a, d)
            out.append(DiagramCase(pdgen.render(_disguise(rng, quads)), None, "PDValidationError"))
    return out


def diagram_cases(seed: int) -> list[DiagramCase]:
    rng = random.Random(seed)
    cases: list[DiagramCase] = []
    for n in DIAGRAM_CROSSINGS:
        summands = [1, 1, 1, 1, 2, 2, 3] if n > 5 else [1] * 7
        for parts in summands:
            if parts == 1:
                knot, quads = _pick_torus(rng, n)
                cases.append(DiagramCase(pdgen.render(_disguise(rng, quads)), knot, braid=True, crossings=n))
            else:
                cases.append(_sum_case(rng, n, parts))
    for name in CORPUS_NAMES:
        text = (PD_DIR / f"{name}.pd").read_text()
        cases.append(DiagramCase(text, corpus_knot(name), crossings=text.count("X[")))
    cases += _malformed_pds(rng, MALFORMED_CROSSINGS)
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# tower_reports


@dataclass
class TowerCase:
    family: str
    doc: str  # the JSON text handed to the op
    reject: str = ""  # "json", "loader" or a ViolationKind value
    golden: str | None = None  # expected render_json output, byte for byte
    expect: dict = field(default_factory=dict)  # report fields fixed by construction
    alexander: tuple[int, ...] | None = None  # expected stabilized polynomial
    genus: int | None = None  # expected exact genus (fold towers)


def _swallow(knot: str) -> dict:
    return {"kind": "swallow", "knot": knot}


MASK_EXPECT = {
    "h1": "z",
    "steinitz": "1",
    "genus": "infinite",
    "genus_rule": "strongly_knotted",
    "unknotted": False,
    "alexander": None,
    "alexander_status": "unavailable:InfiniteGenus",
    "homeo_verdict": "obstructed:infinite_genus",
    "flow_verdict": "not_realizable:persistently_non_concentric",
    "r": 1,
}

# Mask cases: the largest swallowed knot is about T(i, i+1) for i in
# MASK_TOP_INDEX, with that many cases each, and (mask length, ones) cycling
# through MASK_SHAPES; the seed places the bits.  The prefix length follows,
# kept within 8..128.  Group sizes put the median and the 90th percentile
# of the workload's results inside the first and the last group.
MASK_TOP_INDEX = {32: 7, 56: 7, 80: 6, 104: 5, 128: 10}
MASK_SHAPES = [(1, 1), (2, 1), (3, 2), (4, 3), (4, 2), (3, 1), (2, 2), (4, 1)]


def mask_slots() -> list[tuple[int, int, int]]:
    """(mask length, ones, prefix length) per mask case."""
    tops = [top for top, count in MASK_TOP_INDEX.items() for _ in range(count)]
    slots = []
    for k, top in enumerate(tops):
        length, ones = MASK_SHAPES[k % len(MASK_SHAPES)]
        slots.append((length, ones, max(8, min(128, top * ones // length))))
    return slots


def mask_doc(mask: str, prefix_len: int) -> dict:
    """Swallow T(i+1, i+2) at each 1-bit of the periodic mask (the catalog's mask family)."""
    selected: list[str] = []
    i = 1
    while len(selected) < prefix_len + 1:
        if mask[(i - 1) % len(mask)] == "1":
            selected.append(f"torus({i + 1},{i + 2})")
        i += 1
    return {
        "name": f"mask:{mask}",
        "initial": "unknot",
        "prefix": [_swallow(k) for k in selected[:prefix_len]],
        "cycle": [_swallow(selected[prefix_len])],
    }


def _mask_case(rng: random.Random, length: int, ones: int, prefix_len: int) -> TowerCase:
    bits = ["1"] * ones + ["0"] * (length - ones)
    rng.shuffle(bits)
    return TowerCase("mask", json.dumps(mask_doc("".join(bits), prefix_len)), expect=MASK_EXPECT)


# Small torus knots for the long prefixes of the rejected towers.
SMALL_TORUS = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)]
# Torus knots by genus: the seed picks among knots of the planned genus.
KNOTS_OF_GENUS = {1: [(2, 3)], 2: [(2, 5)], 3: [(2, 7), (3, 4)], 4: [(2, 9), (3, 5)]}
# Number of (swallow, wind) steps of each fold case.
FOLD_STEPS = [1, 2, 2, 3, 3, 4, 5, 6]


def _steinitz(windings: list[int]) -> str:
    exps: dict[int, int] = {}
    for w in windings:
        n, p = w, 2
        while n > 1:
            while n % p == 0:
                exps[p] = exps.get(p, 0) + 1
                n //= p
            p += 1
    return " * ".join(str(p) if e == 1 else f"{p}^{e}" for p, e in sorted(exps.items())) or "1"


def fold_case(rng: random.Random, steps: int, index: int) -> TowerCase:
    """Torus core, then ``steps`` rounds of a swallow and a declared wind stage.

    The genera and windings are fixed by ``steps`` and ``index``; the seed
    picks which torus knot of each planned genus is used.
    """
    g = 1 + 2 * (index % 2)
    p, q = rng.choice(KNOTS_OF_GENUS[g])
    delta = polyref.torus(p, q)
    prefix: list[dict] = []
    windings: list[int] = []
    for k in range(steps):
        kp, kq = rng.choice(KNOTS_OF_GENUS[1 + k % 4])
        prefix.append(_swallow(f"torus({kp},{kq})"))
        g += 1 + k % 4
        delta = polyref.mul(delta, polyref.torus(kp, kq))
        w = 2 + k % 2
        g *= w
        windings.append(w)
        prefix.append({"kind": "wind", "w": w, "declared_genus": g})
        delta = polyref.subst_power(delta, w)
    doc = {
        "name": f"fold-{index}",
        "initial": f"torus({p},{q})",
        "prefix": prefix,
        "cycle": [{"kind": "core_parallel"}],
    }
    expect = {
        "h1": "z",
        "steinitz": _steinitz(windings),
        "genus": f"exact:{g}",
        "unknotted": False,
        "alexander_status": "ok",
        "homeo_verdict": "no_obstruction_found",
        "flow_verdict": "realizable:eventually_concentric",
        "r": 1,
    }
    return TowerCase("fold", json.dumps(doc), expect=expect, alexander=tuple(polyref.canonical(delta)),
                     genus=g)


RANDOM_KNOTS = ["unknot", "torus(2,3)", "torus(2,5)", "torus(3,4)", "table(figure_eight)",
                "sum(torus(2,3); torus(2,5))"]


def _random_stage(rng: random.Random) -> dict:
    """The test suite's random stage mix, without declared genera, so every tower is valid."""
    roll = rng.random()
    if roll < 0.22:
        return {"kind": "core_parallel"}
    if roll < 0.44:
        return _swallow(rng.choice(RANDOM_KNOTS))
    if roll < 0.70:
        return {"kind": "wind", "w": rng.choice([1, 2, 2, 3])}
    w = rng.choice([0, 0, 1, 1, 1, 2])
    concentric = w == 1 and rng.random() < 0.3
    stage: dict = {"kind": "generic", "w": w, "concentric": concentric}
    pg = 0 if concentric else rng.choice([None, 0, 0, 1, 2])
    if pg is not None:
        stage["pattern_genus"] = pg
    return stage


def random_case(rng: random.Random, index: int) -> TowerCase:
    cycle = [_random_stage(rng) for _ in range(rng.randint(1, 3))]
    doc = {
        "name": f"random-{index}",
        "initial": rng.choice(RANDOM_KNOTS),
        "prefix": [_random_stage(rng) for _ in range(rng.randint(0, 3))],
        "cycle": cycle,
    }
    ws = [s.get("w", 1) for s in cycle]
    h1 = "trivial" if 0 in ws else ("z" if all(w == 1 for w in ws) else "not_finitely_generated")
    expect: dict = {"h1": h1, "r": 1}
    if h1 != "z":
        expect.update(flow_verdict="not_realizable:h1_not_z", alexander_status="unavailable:H1NotZ")
    return TowerCase("random", json.dumps(doc), expect=expect)


# The shipped catalog, written as tower documents; reports must match the golden files.
CATALOG_DOCS = {
    "whitehead": {"initial": "unknot", "cycle": [{"kind": "generic", "w": 0, "pattern_genus": 0}]},
    "dyadic_solenoid": {"initial": "unknot", "cycle": [{"kind": "wind", "w": 2, "declared_genus": 0}]},
    "mixed_solenoid": {"initial": "unknot", "cycle": [{"kind": "wind", "w": 2, "declared_genus": 0},
                                                      {"kind": "wind", "w": 3, "declared_genus": 0}]},
    "knotted_dyadic_solenoid": {"initial": "torus(2,3)", "cycle": [{"kind": "wind", "w": 2}]},
    "infinite_trefoil_sum": {"initial": "torus(2,3)", "cycle": [_swallow("torus(2,3)")]},
    "tame_trefoil": {"initial": "torus(2,3)", "cycle": [{"kind": "core_parallel"}]},
    "modified_whitehead": {"initial": "unknot",
                           "cycle": [{"kind": "generic", "w": 1, "pattern_genus": 0, "concentric": False}]},
}


def catalog_cases() -> list[TowerCase]:
    return [
        TowerCase("catalog", json.dumps({"name": name, **doc}),
                  golden=(GOLDEN_DIR / f"{name}.json").read_text())
        for name, doc in CATALOG_DOCS.items()
    ]


def _deep_schubert(rng: random.Random, prefix_len: int) -> TowerCase:
    """Many swallow stages, then a wind stage declaring a genus below w * g."""
    knots = [rng.choice(SMALL_TORUS) for _ in range(prefix_len)]
    g = sum((p - 1) * (q - 1) // 2 for p, q in knots)
    w = rng.choice([2, 3])
    prefix = [_swallow(f"torus({p},{q})") for p, q in knots]
    prefix.append({"kind": "wind", "w": w, "declared_genus": w * g - rng.randint(1, g)})
    doc = {"name": "schubert", "initial": "unknot", "prefix": prefix, "cycle": [{"kind": "core_parallel"}]}
    return TowerCase("invalid", json.dumps(doc), reject="SchubertViolation")


def _contract_case(rng: random.Random, kind: int, prefix_len: int) -> TowerCase:
    """A tower the loader accepts and the validator rejects for a stage contract."""
    prefix = [_swallow(f"torus({p},{q})") for p, q in (rng.choice(SMALL_TORUS) for _ in range(prefix_len))]
    body: dict = {"name": "contract", "initial": "torus(2,3)", "prefix": prefix}
    if kind == 0:
        body["cycle"] = [{"kind": "generic", "w": rng.choice([2, 3]), "pattern_genus": 0, "concentric": True}]
        return TowerCase("invalid", json.dumps(body), reject="ConcentricityContract")
    if kind == 1:
        body["cycle"] = [{"kind": "generic", "w": -rng.randint(1, 5), "pattern_genus": 0}]
    elif kind == 2:
        body["cycle"] = [{"kind": "generic", "w": 1, "pattern_genus": 1, "pattern_delta": "1 + t"}]
    elif kind == 3:
        body["cycle"] = [{"kind": "generic", "w": 1, "pattern_genus": 1,
                          "pattern_delta": "1 - t + t^2 - t^3 + t^4"}]
    elif kind == 4:
        body["cycle"] = []
    else:
        body["initial_genus"] = rng.choice([0, 2, 5])
        body["cycle"] = [{"kind": "core_parallel"}]
    return TowerCase("invalid", json.dumps(body), reject="MalformedStage")


def _loader_case(rng: random.Random, kind: int, prefix_len: int) -> TowerCase:
    """Broken JSON text (kind 0) or a stage the loader refuses (kind 1)."""
    good = json.dumps(mask_doc("1", prefix_len))
    if kind == 0:
        cut = rng.randrange(10, len(good) - 2)
        return TowerCase("invalid", good[:cut], reject="json")
    doc = json.loads(good)
    stage = rng.choice([
        {"kind": "spiral", "w": 1},
        {"kind": "swallow"},
        {"kind": "wind"},
        {"kind": "wind", "w": 2, "colour": "red"},
        _swallow("torus(2,4)"),
        _swallow("sum(torus(2,3); torus(2,5)"),
    ])
    doc["prefix"].insert(rng.randrange(len(doc["prefix"]) + 1), stage)
    return TowerCase("invalid", json.dumps(doc), reject="loader")


def tower_cases(seed: int) -> list[TowerCase]:
    rng = random.Random(seed)
    cases = [_mask_case(rng, *slot) for slot in mask_slots()]
    cases += [fold_case(rng, steps, i) for i, steps in enumerate(FOLD_STEPS)]
    cases += [random_case(rng, i) for i in range(12)]
    cases += catalog_cases()
    cases += [_deep_schubert(rng, n) for n in (32, 64, 96)]
    cases += [_contract_case(rng, k, prefix_len) for k, prefix_len in enumerate((2, 4, 6, 8, 10, 12))]
    cases += [_loader_case(rng, k, prefix_len) for k, prefix_len in ((0, 8), (1, 12))]
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# cli_mix


@dataclass
class CliCase:
    argv: list[str]
    exit_code: int
    check: str = ""  # how to check stdout: golden, report, poly, genus, diagram_genus, list
    expected: object = None
    tower: TowerCase | None = None


CATALOG_NAMES = sorted(CATALOG_DOCS)


def cli_cases(seed: int, work_dir: Path) -> list[CliCase]:
    """Commands over files written into ``work_dir``."""
    rng = random.Random(seed)
    work_dir.mkdir(parents=True, exist_ok=True)
    cases: list[CliCase] = []

    def write(name: str, text: str) -> str:
        path = work_dir / name
        path.write_text(text)
        return str(path)

    for name in rng.sample(CATALOG_NAMES, 4):
        cases.append(CliCase(["--json", "catalog", "report", name], 0, "golden",
                             (GOLDEN_DIR / f"{name}.json").read_text()))
    for i in range(3):
        length = rng.randint(1, 4)
        bits = "".join(rng.choice("01") for _ in range(length - 1)) + "1"
        cases.append(CliCase(["catalog", "report", f"mask:{bits}", "--json"], 0, "report",
                             tower=TowerCase("mask", "", expect={**MASK_EXPECT, "name": f"mask:{bits}"})))
    for i in range(2):
        cases.append(CliCase(["catalog", "list"] + (["--json"] if i else []), 0, "list", CATALOG_NAMES))
    for i, slot in enumerate(rng.sample(mask_slots()[:8], 2)):
        case = _mask_case(rng, *slot)
        cases.append(CliCase(["--json", "tower", "report", write(f"mask{i}.json", case.doc)], 0,
                             "report", tower=case))
    for i, steps in enumerate([2, 3]):
        case = fold_case(rng, steps, i)
        cases.append(CliCase(["tower", "report", "--json", write(f"fold{i}.json", case.doc)], 0,
                             "report", tower=case))
    for i in range(2):
        case = random_case(rng, i)
        cases.append(CliCase(["--json", "tower", "report", write(f"random{i}.json", case.doc)], 0,
                             "report", tower=case))
    knots = [torus_knot(61, 67), torus_knot(*rng.choice([(13, 17), (19, 23), (29, 31)])),
             knot_sum([torus_knot(2, 3), torus_knot(*rng.choice([(3, 7), (5, 7), (11, 13)]))]),
             knot_sum([torus_knot(2, 5), table_knot("figure_eight"), torus_knot(3, 4)]),
             torus_knot(*rng.choice([(2, 9), (3, 8), (4, 9)])), table_knot("5_2")]
    for k in knots:
        cases.append(CliCase(["knot", "alexander", k.expr], 0, "poly", k.delta))
        cases.append(CliCase(["--json", "knot", "genus", k.expr], 0, "genus", k.genus))
    for i, n in enumerate([rng.choice([5, 7, 8]), rng.choice([9, 10, 12]), rng.choice([14, 15])]):
        knot, quads = _pick_torus(rng, n)
        path = write(f"diagram{i}.pd", pdgen.render(_disguise(rng, quads)))
        cases.append(CliCase(["diagram", "alexander", path], 0, "poly", knot.delta))
        cases.append(CliCase(["--json", "diagram", "genus", path], 0, "diagram_genus", knot.genus))
    bad_pd = _malformed_pds(rng, [9, 15])
    rejected = [
        CliCase(["knot", "genus", "torus(4,6)"], 2),
        CliCase(["knot", "alexander", "sum(torus(2,3);"], 2),
        CliCase(["catalog", "report", "no_such_tower"], 2),
        CliCase(["catalog", "report", "mask:0000"], 2),
        CliCase(["tower", "report", write("schubert.json", _deep_schubert(rng, 16).doc)], 2),
        CliCase(["tower", "report", write("loader.json", _loader_case(rng, 1, 8).doc)], 2),
        CliCase(["diagram", "genus", write("bad0.pd", bad_pd[0].pd_text)], 2),
        CliCase(["diagram", "alexander", write("bad1.pd", bad_pd[1].pd_text)], 2),
    ]
    usage = [
        CliCase(["knot", "volume", "torus(2,3)"], 1),
        CliCase(["tower"], 1),
        CliCase(["--frobnicate"], 1),
    ]
    cases += rng.sample(rejected, 4) + rng.sample(usage, 2)
    rng.shuffle(cases)
    return cases
