import io
import json
import time
from pathlib import Path

import pytest

from conftest import torus_2_pd
from toroidal.cli import main

GOLDEN = Path(__file__).parent / "golden"
CATALOG_NAMES = sorted(p.stem for p in GOLDEN.glob("*.json"))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_knot_alexander():
    code, out, _ = run(["knot", "alexander", "torus(2,3)"])
    assert code == 0
    assert out == "1 - t + t^2\n"


def test_knot_genus():
    code, out, _ = run(["knot", "genus", "sum(torus(2,3); torus(2,5))"])
    assert code == 0 and out == "3\n"
    code, out, _ = run(["--json", "knot", "genus", "torus(3,4)"])
    assert json.loads(out) == {"expr": "torus(3,4)", "genus_lower": 3, "genus_upper": 3}


DEEP_KNOT = "sum(" * 3000 + "unknot" + ")" * 3000


def test_knot_expression_errors_exit_2():
    code, _, err = run(["knot", "genus", "torus(2,4)"])
    assert code == 2 and "coprime" in err
    code, _, err = run(["knot", "genus", DEEP_KNOT])
    assert code == 2 and "deeper than" in err


def test_diagram_subcommands(tmp_path):
    pd = tmp_path / "trefoil.pd"
    pd.write_text("PD[X[1,4,2,5],X[3,6,4,1],X[5,2,6,3]]\n")
    code, out, _ = run(["diagram", "alexander", str(pd)])
    assert code == 0 and out == "1 - t + t^2\n"
    code, out, _ = run(["diagram", "genus", str(pd)])
    assert code == 0 and out == "1\n"


def test_diagram_error_paths(tmp_path):
    bad = tmp_path / "bad.pd"
    bad.write_text("PD[X[1,2,3]]\n")
    code, _, err = run(["diagram", "alexander", str(bad)])
    assert code == 2 and "position" in err
    code, _, err = run(["diagram", "genus", str(tmp_path / "missing.pd")])
    assert code == 2


def test_diagram_over_the_crossing_cap_exit_2(tmp_path):
    pd = tmp_path / "torus_2_101.pd"
    pd.write_text(torus_2_pd(101))
    for invariant in ("alexander", "genus"):
        code, out, err = run(["diagram", invariant, str(pd)])
        assert code == 2 and out == ""
        assert "101 crossings; the limit is 100" in err


def test_tower_report_validation_failure_exit_2(tmp_path):
    doc = {
        "name": "bad",
        "initial": "torus(2,3)",
        "cycle": [{"kind": "wind", "w": 2, "declared_genus": 0}],
    }
    path = tmp_path / "bad_tower.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["tower", "report", str(path)])
    assert code == 2
    assert "SchubertViolation" in err and "cycle[0]" in err


def test_tower_report_strict_json_types_exit_2(tmp_path):
    doc = {
        "name": "typed",
        "initial": "unknot",
        "cycle": [{"kind": "generic", "w": 1, "pattern_genus": 0, "concentric": "false"}],
    }
    path = tmp_path / "typed_tower.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["tower", "report", str(path)])
    assert code == 2
    assert "cycle[0]" in err and "concentric" in err


def test_tower_report_deep_knot_expression_exit_2(tmp_path):
    for doc in [
        {"initial": DEEP_KNOT, "cycle": [{"kind": "core_parallel"}]},
        {"initial": "unknot", "cycle": [{"kind": "swallow", "knot": DEEP_KNOT}]},
    ]:
        path = tmp_path / "deep_tower.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["tower", "report", str(path)])
        assert code == 2 and "deeper than" in err


def test_tower_report_winding_cap(tmp_path):
    path = tmp_path / "wound_tower.json"
    for kind in ("wind", "generic"):
        path.write_text(json.dumps({"initial": "unknot", "cycle": [{"kind": kind, "w": 2**40 + 1}]}))
        code, out, err = run(["tower", "report", str(path)])
        assert code == 2 and out == ""
        assert "cycle[0]" in err and "MalformedStage" in err and "exceeds the limit 2^40" in err
        path.write_text(json.dumps({"initial": "unknot", "cycle": [{"kind": kind, "w": 2**40}]}))
        code, out, _ = run(["--json", "tower", "report", str(path)])
        assert code == 0 and json.loads(out)["steinitz"] == "2^inf"


def fold_tower(stages: int, w: int, pattern: str, pattern_genus: int | None, tail=()) -> dict:
    """Generic stages of winding ``w`` with the genus declared as small as
    the satellite inequality allows: the polynomial folds once per stage."""
    genus, prefix = 1, []
    for _ in range(stages):
        genus = w * genus + (pattern_genus or 0)
        stage = {"kind": "generic", "w": w, "pattern_delta": pattern, "declared_genus": genus}
        if pattern_genus is not None:
            stage["pattern_genus"] = pattern_genus
        prefix.append(stage)
    return {"initial": "torus(2,3)", "prefix": prefix + list(tail), "cycle": [{"kind": "core_parallel"}]}


def test_genus_limit_exit_2(tmp_path):
    start = time.perf_counter()
    code, out, err = run(["knot", "alexander", "torus(100001,100003)"])
    assert code == 2 and out == ""
    assert "knot genus 5000100000 exceeds the limit 100000" in err
    assert time.perf_counter() - start < 1

    path = tmp_path / "fold.json"
    path.write_text(json.dumps(fold_tower(20, 3, "1 - t + t^2", 1)))
    start = time.perf_counter()
    code, out, err = run(["tower", "report", str(path)])
    assert code == 2 and out == ""
    assert "genus 5230176601, which exceeds the limit 100000" in err
    assert time.perf_counter() - start < 1

    for doc in [
        # No pattern genus: the genus doubles while the terms triple.
        fold_tower(14, 2, "1 - t + t^1000000", None),
        # The polynomial grows past the limit, then a winding-0 stage
        # leaves a genus-0 tower.
        fold_tower(16, 3, "1 - t + t^2", 1, [{"kind": "generic", "w": 0, "pattern_genus": 0}]),
    ]:
        path.write_text(json.dumps(doc))
        code, out, err = run(["tower", "report", str(path)])
        assert code == 2 and out == ""
        assert "exceeds twice the genus limit 100000" in err

    # Under the limit the fold is reported.
    path.write_text(json.dumps(fold_tower(10, 3, "1 - t + t^2", 1)))
    code, out, _ = run(["--json", "tower", "report", str(path)])
    assert code == 0 and json.loads(out)["genus"] == "exact:88573"


def test_tower_report_reads_files(tmp_path):
    doc = {
        "name": "knotted_dyadic",
        "initial": "torus(2,3)",
        "cycle": [{"kind": "wind", "w": 2}],
    }
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["--json", "tower", "report", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["genus"] == "infinite"
    assert report["homeo_verdict"] == "obstructed:infinite_genus"


def test_usage_errors_exit_1():
    code, _, err = run(["knot"])
    assert code == 1
    code, _, err = run(["frobnicate"])
    assert code == 1
    code, _, err = run([])
    assert code == 1


def test_catalog_list():
    code, out, _ = run(["catalog", "list"])
    assert code == 0
    for name in CATALOG_NAMES:
        assert name in out
    code, out, _ = run(["--json", "catalog", "list"])
    assert set(json.loads(out)["towers"]) == set(CATALOG_NAMES)


def test_catalog_unknown_name():
    code, _, err = run(["catalog", "report", "klein_bottle"])
    assert code == 2 and "unknown catalog tower" in err


def test_catalog_mask_family():
    code, out, _ = run(["--json", "catalog", "report", "mask:1010"])
    assert code == 0
    report = json.loads(out)
    assert report["genus"] == "infinite"
    assert report["homeo_verdict"] == "obstructed:infinite_genus"


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_reports_match_golden_files(name):
    code, out, _ = run(["--json", "catalog", "report", name])
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_reports_are_deterministic():
    a = run(["--json", "catalog", "report", "tame_trefoil"])
    b = run(["--json", "catalog", "report", "tame_trefoil"])
    assert a == b


def test_json_flag_works_in_both_positions():
    before = run(["--json", "catalog", "report", "tame_trefoil"])
    after = run(["catalog", "report", "tame_trefoil", "--json"])
    assert before == after


def test_catalog_dir_override(tmp_path, monkeypatch):
    doc = {"name": "custom", "initial": "unknot", "cycle": [{"kind": "core_parallel"}]}
    (tmp_path / "custom.json").write_text(json.dumps(doc))
    monkeypatch.setenv("TOROIDAL_CATALOG_DIR", str(tmp_path))
    code, out, _ = run(["catalog", "list"])
    assert code == 0 and "custom" in out
    code, out, _ = run(["--json", "catalog", "report", "custom"])
    assert code == 0 and json.loads(out)["genus"] == "exact:0"
