"""Tests of the benchmark's own generators, checks, tracer and comparison.

Run from the repository root::

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import gen  # noqa: E402
import pdgen  # noqa: E402
import polyref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from toroidal.diagrams import alexander_from_diagram, genus_bounds, parse_pd  # noqa: E402
from toroidal.knots import Torus, alexander_of_knot  # noqa: E402

SEEDS = [1, 2, 3]


@pytest.fixture(autouse=True)
def repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_reference_torus_polynomials_match_known_values():
    assert polyref.torus(2, 3) == [1, -1, 1]
    assert polyref.torus(3, 4) == [1, -1, 0, 1, 0, -1, 1]
    assert polyref.parse("1 - 3*t + t^2") == [1, -3, 1]
    assert polyref.parse("-t^-1 + 2 - t") == [1, -2, 1]
    for p, q in [(2, 5), (5, 7), (13, 17), (61, 67)]:
        ref = polyref.torus(p, q)
        assert polyref.breadth(ref) == (p - 1) * (q - 1) and sum(ref) == 1
        assert polyref.parse(str(alexander_of_knot(Torus(p, q)))) == ref


@pytest.mark.parametrize("n", range(3, 16))
def test_braid_closures_and_their_disguises_match_closed_forms(n):
    rng = random.Random(n)
    for p, q in gen.torus_candidates(n, max_strands=8):
        base = pdgen.torus_pd(p, q)
        for quads in (base, pdgen.mirror(base), pdgen.rotate(base, rng.randrange(2 * n))):
            d = parse_pd(pdgen.render(quads))
            assert d.n == n
            assert polyref.parse(str(alexander_from_diagram(d))) == polyref.torus(p, q)
            g = (p - 1) * (q - 1) // 2
            assert genus_bounds(d) == (g, g)


def test_connected_sums_multiply_and_add():
    parts = [(2, 3), (3, 4), (2, 5)]
    quads = pdgen.torus_pd(*parts[0])
    for p, q in parts[1:]:
        quads = pdgen.connected_sum(quads, pdgen.mirror(pdgen.torus_pd(p, q)))
    d = parse_pd(pdgen.render(quads))
    assert polyref.parse(str(alexander_from_diagram(d))) == polyref.product([polyref.torus(*k) for k in parts])
    assert genus_bounds(d) == (1 + 3 + 2, 1 + 3 + 2)


def test_links_are_not_knots():
    with pytest.raises(ValueError):
        parse_pd(pdgen.render(pdgen.braid_closure(2, 4)))
    with pytest.raises(ValueError):
        pdgen.torus_pd(2, 4)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_are_deterministic(seed, tmp_path):
    assert [c.pd_text for c in gen.diagram_cases(seed)] == [c.pd_text for c in gen.diagram_cases(seed)]
    assert [c.doc for c in gen.tower_cases(seed)] == [c.doc for c in gen.tower_cases(seed)]
    a = [c.argv[-1] for c in gen.cli_cases(seed, tmp_path / "a")]
    b = [c.argv[-1] for c in gen.cli_cases(seed, tmp_path / "b")]
    assert [x.replace("/a/", "/") for x in a] == [x.replace("/b/", "/") for x in b]


def test_every_generated_diagram_parses_and_matches_the_closed_forms():
    workload = run.DiagramOracle(1, Path("unused"))
    for case in workload.cases:
        outcome = workload.run(case)
        assert workload.check(case, outcome) is None, case.pd_text[:60]
        assert (outcome[0] == "reject") == bool(case.reject)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_tower_validates_or_is_rejected_as_planted(seed):
    workload = run.TowerReports(seed, Path("unused"))
    families = {c.family for c in workload.cases}
    assert families == {"mask", "fold", "random", "catalog", "invalid"}
    kinds = set()
    for case in workload.cases:
        outcome = workload.run(case)
        assert workload.check(case, outcome) is None, case.doc[:80]
        kinds.add(case.reject)
    assert kinds == {"", "json", "loader", "SchubertViolation", "ConcentricityContract", "MalformedStage"}


def test_checks_catch_wrong_outputs():
    towers = run.TowerReports(1, Path("unused"))
    fold = next(c for c in towers.cases if c.family == "fold")
    kind, text = towers.run(fold)
    report = json.loads(text)
    report["alexander"] = report["alexander"].replace("1 -", "2 -", 1)
    assert towers.check(fold, (kind, json.dumps(report))) is not None
    golden = next(c for c in towers.cases if c.golden)
    assert towers.check(golden, ("ok", golden.golden.replace("1", "2", 1))) is not None
    planted = next(c for c in towers.cases if c.reject == "SchubertViolation")
    assert towers.check(planted, ("reject", "MalformedStage")) is not None
    diagrams = run.DiagramOracle(1, Path("unused"))
    case = next(c for c in diagrams.cases if c.knot and c.knot.genus > 1)
    kind, (delta, bounds, closed, genus) = diagrams.run(case)
    assert diagrams.check(case, (kind, (delta, (bounds[0] - 1, bounds[1]), closed, genus))) is not None
    assert diagrams.check(case, (kind, (delta * delta, bounds, closed, genus))) is not None


def test_cli_cases_pass_in_process(tmp_path):
    workload = run.CliMix(2, tmp_path)
    codes = set()
    for case in workload.cases:
        assert workload.check(case, workload.traced_run(case)) is None, case.argv
        codes.add(case.exit_code)
    assert codes == {0, 1, 2}


def test_tracer_counts_layer_calls_and_restores_the_library(tmp_path):
    from toroidal import towers

    original = towers.validate_tower
    workload = run.TowerReports(1, Path("unused"))
    mask = max((c for c in workload.cases if c.family == "mask"), key=lambda c: len(c.doc))
    tracer = spans.Tracer()
    tracer.enable()
    try:
        tracer.op_id = 1
        outcome = tracer.span("op", workload.run, mask)
    finally:
        tracer.disable()
    assert towers.validate_tower is original
    assert workload.check(mask, outcome) is None
    layer = tracer.per_layer(1)
    assert layer["towers.validate_calls_per_op"] >= 9
    assert layer["laurent.ctor_calls_per_op"] > 0 and layer["laurent.max_terms"] > 0
    assert layer["diagrams.det_calls_per_op"] == 0
    assert all(v >= 0 for v in layer.values())
    for span_id, parent, op, name, start, end, child in tracer.spans:
        assert end >= start and 0 <= child <= end - start
    tracer.write_spans(tmp_path / "spans.jsonl")
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == len(tracer.spans) + 1


def test_tracer_sees_two_determinants_per_oracle_check():
    workload = run.DiagramOracle(1, Path("unused"))
    case = next(c for c in workload.cases if c.knot and c.crossings == 9)
    tracer = spans.Tracer()
    tracer.enable()
    try:
        tracer.op_id = 1
        tracer.span("op", workload.run, case)
    finally:
        tracer.disable()
    layer = tracer.per_layer(1)
    assert layer["diagrams.det_calls_per_op"] == 2
    assert layer["diagrams.max_crossings"] == 9
    assert layer["laurent.div_calls_per_op"] > 0


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(base, [80.0] * 5, list(zip(base, [80.0] * 5)), "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, [130.0] * 5, list(zip(base, [130.0] * 5)), "lower", 0.1)[0] == "worse"
    same = [100.2, 100.8, 99.1, 100.4, 99.6]
    assert compare.verdict(base, same, list(zip(base, same)), "lower", 0.1)[0] == "no worse"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0]
    assert compare.verdict(noisy, base, list(zip(noisy, base)), "higher", 0.1)[0] == "unresolved"


def test_result_line_contract(capsys, monkeypatch):
    tally = run.Tally()
    tally.attempted = 1
    monkeypatch.setattr(run, "measure", lambda workload, seconds: {
        "rounds": 1, "tally": tally, "setup_s": 0.1, "setup_n": 3, "ops_per_s": 2.0,
        "latency_p50_ms": 1.0, "latency_p90_ms": 2.0, "reject_p50_ms": 0.5, "peak_rss_mb": 20.0,
        "n_ok": 1, "n_reject": 1})
    monkeypatch.setattr(run.gen, "tower_cases", lambda seed: [])
    assert run.main(["--workload", "tower_reports", "--seed", "1", "--seconds", "1"]) == 0
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(last["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli_mix", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
