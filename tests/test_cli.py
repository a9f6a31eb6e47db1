import io
import json
import math
import os
import re
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import pd_text, torus_2_pd
from toroidal import cli
from toroidal.catalog import CATALOG_DIR_ENV
from toroidal.cli import main
from toroidal.knots import Torus
from toroidal.laurent import LaurentPoly, quoted
from toroidal.towers import Tower, core_parallel, tower_to_dict, wind

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


def report_of(tmp_path, doc, *flags):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(doc))
    return run([*flags, "tower", "report", str(path)])


def test_tower_report_initial_genus(tmp_path):
    doc = {"initial": "torus(2,3)", "cycle": [{"kind": "core_parallel"}]}
    code, out, _ = report_of(tmp_path, {**doc, "initial_genus": 1}, "--json")
    assert code == 0 and json.loads(out)["genus"] == "exact:1"
    for d in (0, 2):
        code, out, err = report_of(tmp_path, {**doc, "initial_genus": d})
        assert code == 2 and out == ""
        assert f"initial: MalformedStage: declared initial genus {d} contradicts the computed genus 1" in err


def test_tower_report_prefix_pattern_polynomial(tmp_path):
    # A genus-1 declaration over a winding-1 stage needs the stage's pattern
    # polynomial; a genus-0 pattern is unknotted, so its polynomial is 1.
    stage = {"kind": "generic", "w": 1, "declared_genus": 1}
    doc = {"initial": "torus(2,3)", "prefix": [stage], "cycle": [{"kind": "core_parallel"}]}
    code, out, _ = report_of(tmp_path, doc, "--json")
    report = json.loads(out)
    assert code == 0 and report["alexander"] is None
    assert report["alexander_status"] == "unavailable:UndeclaredInvariant"
    doc["prefix"] = [{**stage, "pattern_genus": 0}]
    code, out, _ = report_of(tmp_path, doc, "--json")
    report = json.loads(out)
    assert code == 0 and (report["alexander"], report["alexander_status"]) == ("1 - t + t^2", "ok")


def test_tower_report_text_flags_a_mixed_cycle(tmp_path):
    doc = {
        "initial": "unknot",
        "cycle": [{"kind": "core_parallel"}, {"kind": "generic", "w": 1, "pattern_genus": 0}],
    }
    code, out, _ = report_of(tmp_path, doc)
    assert code == 0
    assert out.splitlines()[-1] == (
        "  [flow note] mixed cycle: verdict extrapolated through the recurring "
        "non-concentric stage"
    )


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
        # declared unknotted leaves a genus-0 tower.
        fold_tower(16, 3, "1 - t + t^2", 1, [{"kind": "generic", "w": 0, "pattern_genus": 0, "declared_genus": 0}]),
    ]:
        path.write_text(json.dumps(doc))
        code, out, err = run(["tower", "report", str(path)])
        assert code == 2 and out == ""
        assert "exceeds twice the genus limit 100000" in err

    # Under the limit the fold is reported.
    path.write_text(json.dumps(fold_tower(10, 3, "1 - t + t^2", 1)))
    code, out, _ = run(["--json", "tower", "report", str(path)])
    assert code == 0 and json.loads(out)["genus"] == "exact:88573"


def test_product_limit_exit_2():
    # Both factors are within the genus limit; their product is not formed.
    start = time.perf_counter()
    code, out, err = run(["knot", "alexander", "sum(torus(2,100001); torus(2,100001))"])
    assert code == 2 and out == ""
    assert "a product of 100001 by 100001 terms exceeds the limit of 10000000 term pairs" in err
    assert time.perf_counter() - start < 1

    # 3161^2 = 9,991,921 term pairs, just under the limit.  T(2, n) has
    # Delta = sum of (-t)^i for 0 <= i < n, whose square has coefficient
    # (-1)^k * min(k + 1, 2n - 1 - k) at t^k.
    n = 3161
    code, out, _ = run(["knot", "alexander", f"sum(torus(2,{n}); torus(2,{n}))"])
    square = LaurentPoly({k: (-1) ** k * min(k + 1, 2 * n - 1 - k) for k in range(2 * n - 1)})
    assert code == 0 and out == f"{square}\n"


def test_product_limit_is_per_computation(tmp_path):
    # Each product of a long sum stays under the limit; together they pass it.
    start = time.perf_counter()
    code, out, err = run(["knot", "alexander", "sum(" + "; ".join(["torus(2,51)"] * 150) + ")"])
    assert code == 2 and out == ""
    assert "exceeds the limit of 10000000 term pairs per computation" in err
    assert time.perf_counter() - start < 5

    # The same for the products of a report's fold along the prefix.
    doc = {
        "initial": "unknot",
        "prefix": [{"kind": "swallow", "knot": "torus(2,51)"}] * 200,
        "cycle": [{"kind": "core_parallel"}],
    }
    path = tmp_path / "swallows.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(["tower", "report", str(path)])
    assert code == 2 and out == ""
    assert "exceeds the limit of 10000000 term pairs per computation" in err
    assert time.perf_counter() - start < 5

    # Each swallowed sum stays under the limit (85 x T(2,51) takes about
    # 9.1 * 10^6 pairs), and a winding-0 stage resets the fold without a
    # product; the sums and the fold still share the one budget.
    long_sum = "sum(" + "; ".join(["torus(2,51)"] * 85) + ")"
    doc = {
        "initial": "unknot",
        "prefix": [
            {"kind": "swallow", "knot": long_sum},
            {"kind": "generic", "w": 0, "pattern_genus": 0, "declared_genus": 0},
        ] * 3,
        "cycle": [{"kind": "core_parallel"}],
    }
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(["tower", "report", str(path)])
    assert code == 2 and out == ""
    assert "exceeds the limit of 10000000 term pairs per computation" in err
    assert time.perf_counter() - start < 5


def test_swallowed_sum_after_a_winding_is_one_factor(tmp_path):
    # After winding 1001 the core D(t^1001) has 51 terms 1001 apart, so its
    # products keep 51 separate clusters.  The fold multiplies the 20 summands
    # first (about 0.5 * 10^6 term pairs), then takes one product with the
    # core; a summand at a time would pay for every cluster, about 2.5 * 10^7
    # pairs, past the limit.
    doc = {
        "initial": "torus(2,51)",
        "prefix": [
            {"kind": "wind", "w": 1001, "declared_genus": 25025},
            {"kind": "swallow", "knot": "sum(" + "; ".join(["torus(2,51)"] * 20) + ")"},
        ],
        "cycle": [{"kind": "core_parallel"}],
    }
    path = tmp_path / "wound.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, err = run(["--json", "tower", "report", str(path)])
    assert code == 0 and err == ""
    assert json.loads(out)["genus"] == "exact:25525"
    assert time.perf_counter() - start < 5


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


@pytest.mark.parametrize("argv", [["-h"], ["knot", "--help"], ["frobnicate", "--json=1", "-h"]])
def test_help_anywhere_writes_the_usage_to_out(argv):
    code, out, err = run(argv)
    assert (code, out, err) == (0, cli.__doc__, "")
    assert "toroidal catalog report <name>" in out


def test_the_module_runs_as_a_program():
    # ``python -m toroidal.cli``, one process per command, as the benchmark's CLI mix runs it.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    # -OO drops docstrings; the usage text is a plain string, so it still prints.
    for flags, argv, code in (([], ["--help"], 0), (["-OO"], ["--help"], 0), ([], ["frobnicate"], 1)):
        proc = subprocess.run([sys.executable, *flags, "-m", "toroidal.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, (flags, argv)
        if code == 0:
            assert proc.stdout == cli.__doc__ and proc.stderr == ""
        else:
            assert proc.stdout == "" and proc.stderr.count("\n") == 1
            assert proc.stderr.startswith("usage error: argument command: invalid choice: 'frobnicate'")


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


def test_an_unreadable_catalog_file_fails_every_catalog_command(tmp_path, monkeypatch):
    # Files in the catalog directory override built-ins, so the catalog is
    # read whole before any name is resolved; a mask name reads no file.
    (tmp_path / "good.json").write_text(json.dumps({"initial": "unknot", "cycle": [{"kind": "core_parallel"}]}))
    bad = tmp_path / "bad.json"
    bad.write_bytes(_NOT_UTF8_JSON)
    monkeypatch.setenv(CATALOG_DIR_ENV, str(tmp_path))
    for argv in (["catalog", "list"], ["catalog", "report", "whitehead"],
                 ["catalog", "report", "good"], ["catalog", "report", "nope"]):
        code, out, err = run(argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {quoted(str(bad))}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert "/bad.json'" in err  # however deep the directory, a cut keeps the file name
    assert run(["catalog", "report", "mask:1"])[0] == 0


def test_invalid_catalog_file_is_an_invalid_tower(tmp_path, monkeypatch):
    doc = {"initial": "unknot", "cycle": [{"kind": "wind", "w": -3}]}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    monkeypatch.setenv("TOROIDAL_CATALOG_DIR", str(tmp_path))
    for argv in (["catalog", "list"], ["catalog", "report", "whitehead"]):
        assert run(argv) == (2, "", "invalid tower:\ncycle[0]: MalformedStage: negative winding -3\n")


# -- modules each subcommand loads ---------------------------------------------

_LOADED_MODULES = """
import io, sys
sys.path.insert(0, sys.argv[1])
from toroidal.cli import main
code = main(sys.argv[2:], io.StringIO(), io.StringIO())
print(code, *sorted(m for m in sys.modules if m == "toroidal" or m.startswith("toroidal.")))
print(*(m in sys.modules for m in ("typing", "pathlib", "dataclasses", "inspect", "argparse", "gettext")))
"""


def test_each_subcommand_loads_only_its_modules(tmp_path):
    pd_file = tmp_path / "trefoil.pd"
    pd_file.write_text(torus_2_pd(3))
    tower_file = tmp_path / "tower.json"
    tower_file.write_text(json.dumps({"initial": "torus(2,3)", "cycle": [{"kind": "core_parallel"}]}))
    towers = {"laurent", "knots", "towers", "reports"}
    cases = [
        (["knot", "genus", "torus(2,3)"], 0, {"knots", "laurent"}),
        (["knot", "alexander", "torus(2,3)"], 0, {"knots", "laurent"}),
        (["diagram", "alexander", str(pd_file)], 0, {"diagrams", "laurent"}),
        (["diagram", "genus", str(pd_file)], 0, {"diagrams", "laurent"}),
        (["tower", "report", str(tower_file)], 0, towers),
        (["catalog", "report", "whitehead"], 0, towers | {"catalog"}),
        (["catalog", "list"], 0, {"laurent", "knots", "towers", "catalog"}),
        # The parser quotes the words it echoes by laurent's one rule; help needs no rule.
        (["frobnicate"], 1, {"laurent"}),
        (["knot", "--help"], 0, set()),
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv, code, modules in cases:
        # -S keeps site hooks, which may preload modules, out of the count.
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _LOADED_MODULES, src, *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.stderr == ""
        loaded, stdlib_loaded = proc.stdout.splitlines()
        typing_loaded, pathlib_loaded, dataclasses_loaded, inspect_loaded, *parser_loaded = stdlib_loaded.split()
        expected = {"toroidal", "toroidal.cli"} | {f"toroidal.{m}" for m in modules}
        assert loaded.split() == [str(code), *sorted(expected)], argv
        # The value types are named tuples: no subcommand pays for dataclasses.
        assert typing_loaded == dataclasses_loaded == inspect_loaded == "False", argv
        # The command table is the parser: no process pays for argparse or its gettext.
        assert parser_loaded == ["False", "False"], argv
        # Only the catalog, which reads a directory of tower files, loads pathlib.
        assert pathlib_loaded == "False" or "catalog" in modules, argv


# -- hostile input ------------------------------------------------------------

_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Torus parameters stay small so that a sum of four is far inside the limits.
_KNOT = st.recursive(
    st.sampled_from(["unknot", "table(figure_eight)", "table(5_2)"])
    | st.tuples(st.integers(2, 25), st.integers(2, 25)).filter(lambda pq: math.gcd(*pq) == 1).map(
        "torus({0[0]},{0[1]})".format
    ),
    lambda inner: st.lists(inner, min_size=1, max_size=4).map(lambda parts: f"sum({'; '.join(parts)})"),
    max_leaves=4,
)
_KNOT_TEXT = (
    _KNOT
    | st.sampled_from(["sum()", "figure_eight", "table(7_1)", "torus(1,7)", "torus(4,6)", "torus(-2,3)"])
    | st.text(alphabet="sumtorx(),;0123456789 -_", max_size=24)
)
_POLY_TEXT = st.sampled_from(["1", "0", "t", "-1", "1 - t + t^2", "1 - 3*t + t^2", "-2*t^-3 + 7"])
_TYPED_STAGE = st.one_of(
    st.just({"kind": "core_parallel"}),
    st.fixed_dictionaries({"kind": st.just("swallow"), "knot": _KNOT}),
    st.fixed_dictionaries(
        {"kind": st.just("wind"), "w": st.integers(0, 3)}, optional={"declared_genus": st.integers(0, 3)}
    ),
    st.fixed_dictionaries(
        {"kind": st.just("generic"), "w": st.integers(0, 3)},
        optional={
            "pattern_genus": st.integers(0, 3),
            "pattern_delta": _POLY_TEXT,
            "declared_genus": st.integers(0, 40),
            "concentric": st.booleans(),
        },
    ),
)
_HOSTILE_STAGE = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from(["core_parallel", "swallow", "wind", "generic", "bogus"]) | _ANY_JSON,
        "w": st.integers(-2, 5) | st.sampled_from([2**40, 2**40 + 1]) | _ANY_JSON,
        "knot": _KNOT_TEXT | _ANY_JSON,
        "pattern_genus": st.integers(-1, 5) | _ANY_JSON,
        "pattern_delta": _POLY_TEXT | st.text(alphabet="t^*+- 0123456789", max_size=16) | _ANY_JSON,
        "declared_genus": st.integers(-1, 300) | _ANY_JSON,
        "concentric": st.booleans() | _ANY_JSON,
        "extra": _ANY_JSON,
    },
)
_TYPED_TOWER = st.fixed_dictionaries(
    {"initial": _KNOT, "cycle": st.lists(_TYPED_STAGE, min_size=1, max_size=3)},
    optional={"prefix": st.lists(_TYPED_STAGE, max_size=5)},
)
_HOSTILE_TOWER = st.fixed_dictionaries(
    {"initial": _KNOT_TEXT},
    optional={
        "name": st.text(max_size=6) | _ANY_JSON,
        "initial_genus": st.integers(-1, 5) | _ANY_JSON,
        "prefix": st.lists(_TYPED_STAGE | _HOSTILE_STAGE, max_size=5) | _ANY_JSON,
        "cycle": st.lists(_TYPED_STAGE | _HOSTILE_STAGE, min_size=1, max_size=3) | _ANY_JSON,
        "schema_version": st.sampled_from([1, 2]) | _ANY_JSON,
    },
)
_PD_TEXT = (
    st.sampled_from([3, 5, 7, 25, 101]).map(torus_2_pd)
    | st.lists(st.tuples(*[st.integers(0, 12)] * 4), max_size=12).map(pd_text)
    | st.text(alphabet="PDX[], 0123456789", max_size=40)
)
_FILE = "<file>"
# The same file named through 1,900 "./" steps: a path of about 3,900 characters that opens.
_DOTTED_FILE = "<file by a long path>"
# File contents that no text grammar reads: a directory in place of a file,
# bytes that are not UTF-8, and JSON nested deeper than the decoder goes.
_DIRECTORY = object()
_NOT_UTF8 = b"\xff\xfePD[X[1,4,2,5]]"
_DEEP_JSON = "[" * 10**5
_DEEP_NAME = '{"initial": "unknot", "name": %s, "cycle": []}' % ("[" * 995 + "]" * 995)
_LONG_NAME = json.dumps({"initial": "unknot", "name": list(range(200_000)), "cycle": []})
_NOT_UTF8_JSON = b"\xff{}"
_LONG_INITIAL = json.dumps({"initial": "unknot " + "x" * 10**5, "cycle": [{"kind": "core_parallel"}]})
_LONG_INTEGER = '{"initial": "unknot", "cycle": [{"kind": "wind", "w": %s}]}' % ("9" * 5000)
_BAD_DELTA = json.dumps({"initial": "unknot", "cycle": [{"w": 1, "pattern_delta": "1 - t +"}]})
_BAD_KNOT = json.dumps({"initial": "unknot", "cycle": [{"kind": "swallow", "knot": "torus(2,3) zzz"}]})
_BAD_INITIAL = json.dumps({"initial": "torus(2,4)", "cycle": [{"kind": "core_parallel"}]})
# Digits other than ASCII 0-9 (here Arabic-Indic) are no INT of any grammar.
_EASTERN_DELTA = json.dumps({"initial": "unknot", "cycle": [{"w": 1, "pattern_delta": "\u0663 - t^\u0662"}]})
# Torus parameters of 2,201 digits: their genus would have about 4,400 digits.
_HUGE_TORUS = f"torus({10**2200 + 1},{10**2200 + 2})"
_HUGE_INITIAL = json.dumps({"initial": _HUGE_TORUS, "cycle": [{"kind": "core_parallel"}]})
_HUGE_KNOT = json.dumps({"initial": "unknot", "cycle": [{"kind": "swallow", "knot": f"torus(2,{'1' * 5001})"}]})
# Values within every limit whose messages once printed them whole.
_LONG_TORUS = f"torus({'2' * 1000},{'4' * 1000})"
_TOO_LONG_GENUS = f"torus({'9' * 999},{10**999})"
_GENUS_INITIAL = json.dumps({"initial": _TOO_LONG_GENUS, "cycle": [{"kind": "core_parallel"}]})
_LONG_DELTA = json.dumps({"initial": "unknot", "cycle": [{"w": 1, "pattern_delta": "1 " + "1" * 10**5}]})
_LONG_PATH = "a" * 10**5
_TRUNCATED_JSON = '{"initial": '
# A catalog directory of 50 towers with 197-character names.
_LONG_CATALOG_NAMES = {f"{i:02d}{'n' * 195}.json": b'{"initial": "unknot", "cycle": []}' for i in range(50)}
_HOSTILE_FILES = [
    (["tower", "report"], _DIRECTORY, "Is a directory"),
    (["diagram", "genus"], _DIRECTORY, "Is a directory"),
    (["tower", "report"], _NOT_UTF8, "can't decode"),
    (["diagram", "alexander"], _NOT_UTF8, "{input}: not UTF-8 text: 'utf-8' codec can't decode"),
    (["tower", "report"], _DEEP_JSON, "nested too deeply"),
    (["tower", "report"], _DEEP_NAME, "nested too deeply"),
]
# Inputs whose message once named the wrong thing or had no bound: a long
# bad value, a PD body that repeats its own prefix, a catalog file that is
# not UTF-8, long unread knot text in an argument or a tower file, an
# integer too long to convert, grammar errors in a tower file's fields, a
# long mask, torus parameters too long to read, in an argument or a tower
# file, a long path, a catalog of many long names, and digits other than
# ASCII 0-9 in each grammar.  A catalog command finds its files in the
# catalog directory; ``{name}`` stands for how a message shows the file
# ``name`` there, its path quoted.  "-" and a negative number are words, not
# options: a file name and a catalog name.
_BAD_VALUES = [
    (["tower", "report", _FILE], _LONG_NAME, "tower: 'name' must be a string, got [0, 1, 2,"),
    (["diagram", "genus", _FILE], "PD[PD[]", "PD syntax error at position 3: expected X[a,b,c,d], got 'PD['"),
    (["catalog", "report", "whitehead"], _NOT_UTF8_JSON, "{bad.json}: not UTF-8 text"),
    (["knot", "genus", "unknot " + "x" * 10**5], None, "trailing input in knot expression: 'xxx"),
    (["knot", "genus", f"table({'a' * 10**5})"], None, "unknown table knot 'aaa"),
    (["tower", "report", _FILE], _LONG_INITIAL, "tower: 'initial': trailing input in knot expression: 'xxx"),
    (["tower", "report", _FILE], _LONG_INTEGER, "{input}: not valid JSON: Exceeds the limit"),
    (["tower", "report", _FILE], _BAD_DELTA,
     "cycle[0]: 'pattern_delta': polynomial syntax error at position 7: expected a term"),
    (["tower", "report", _FILE], _BAD_KNOT, "cycle[0]: 'knot': trailing input in knot expression: 'zzz'"),
    (["tower", "report", _FILE], _BAD_INITIAL, "tower: 'initial': torus knot parameters must be coprime"),
    (["catalog", "report", "mask:" + "01" * 5 + "x" * 10**5], None,
     "mask must be a nonempty string of 0s and 1s, got '0101010101xxx"),
    (["knot", "genus", _HUGE_TORUS], None, "torus parameter of 2201 digits exceeds the limit of 1000 digits"),
    (["tower", "report", _FILE], _HUGE_INITIAL,
     "tower: 'initial': torus parameter of 2201 digits exceeds the limit of 1000 digits"),
    (["tower", "report", _FILE], _HUGE_KNOT,
     "cycle[0]: 'knot': torus parameter of 5001 digits exceeds the limit of 1000 digits"),
    (["knot", "genus", _LONG_TORUS], None, "torus knot parameters must be coprime, got (222"),
    (["knot", "alexander", _TOO_LONG_GENUS], None, "knot genus 4999"),
    (["tower", "report", _FILE], _GENUS_INITIAL, "the stabilized polynomial has genus 4999"),
    (["catalog", "report", "x" * 10**5], None, "unknown catalog tower 'xxx"),
    (["tower", "report", _FILE], _LONG_DELTA,
     "cycle[0]: 'pattern_delta': polynomial syntax error at position 2: expected '+' or '-', got '111"),
    (["diagram", "genus", _FILE], "PD[X[1,2,3," + "4" * 4000 + "]]",
     "PD syntax error at position 3: expected X[a,b,c,d], got 'X[1,2,3,444"),
    # A label of 5,000 digits is refused by its length, before it is converted.
    (["diagram", "genus", _FILE], "PD[X[1,2,3," + "5" * 5000 + "]]",
     "PD syntax error at position 3: expected X[a,b,c,d], got 'X[1,2,3,555"),
    (["diagram", "genus", _LONG_PATH], None, "File name too long: 'aaa"),
    (["tower", "report", _LONG_PATH], None, "File name too long: 'aaa"),
    (["tower", "report", _DOTTED_FILE], _TRUNCATED_JSON, "characters): not valid JSON: Expecting value"),
    (["catalog", "report", "nope"], _LONG_CATALOG_NAMES,
     "unknown catalog tower 'nope'; 'toroidal catalog list' names them all"),
    (["diagram", "genus", "-"], None, "No such file or directory: '-'"),
    (["catalog", "report", "-5"], None, "unknown catalog tower '-5'"),
    (["knot", "genus", "torus(\u0662,\u0663)"], None, "malformed knot expression near 'torus(\u0662,\u0663)'"),
    (["tower", "report", _FILE], _EASTERN_DELTA,
     "cycle[0]: 'pattern_delta': polynomial syntax error at position 0: '\u0663 - t^\u0662'"),
    (["diagram", "genus", _FILE], "PD[X[\u0661,\u0664,\u0662,\u0665]]",
     "PD syntax error at position 3: expected X[a,b,c,d], got 'X[\u0661,\u0664,\u0662,\u0665]'"),
]
# Usage errors that once echoed a long argument whole, a flag's
# abbreviation, which is not read as the flag, and a "negative number" in
# digits other than ASCII, which is an option: they exit 1.
_BAD_USAGE = [
    (["x" * 10**5], None, "argument command: invalid choice: 'xxx"),
    (["knot", "x" * 10**5], None, "argument invariant: invalid choice: 'xxx"),
    (["knot", "genus", "unknot", "y" * 10**5], None, "unrecognized arguments: 'yyy"),
    (["--json=" + "x" * 10**5], None, "argument --json: ignored explicit argument 'xxx"),
    (["--js", "catalog", "list"], None, "unrecognized arguments: '--js'"),
    (["-\u0663", "catalog", "list"], None, "unrecognized arguments: '-\u0663'"),
]


def _run_with_input(directory: Path | None, argv: list, content) -> tuple[int, str, str]:
    """Run ``argv`` with ``content`` in its ``_FILE`` or ``_DOTTED_FILE``
    argument or, for a catalog command, in the catalog directory: as
    ``bad.json``, or as the files a dict names."""
    env = {}
    if _FILE in argv or _DOTTED_FILE in argv:
        path = _input_file(directory, content)
        dotted = os.path.join(directory, "./" * 1900 + "input")
        argv = [{_FILE: path, _DOTTED_FILE: dotted}.get(arg, arg) for arg in argv]
    elif content is not None:
        for name, data in (content if isinstance(content, dict) else {"bad.json": content}).items():
            (directory / name).write_bytes(data)
        env[CATALOG_DIR_ENV] = str(directory)
    with mock.patch.dict(os.environ, env):
        return run(argv)


def _naming(problem: str, directory: Path) -> str:
    """``problem`` with each ``{name}`` in it replaced by the quoted path of
    the file ``name`` in ``directory``, as a message shows that file."""
    return re.sub(r"\{([\w.]+)\}", lambda m: quoted(str(directory / m[1])), problem)


def _input_file(directory: Path, content) -> str:
    """Write ``content`` (text, bytes or ``_DIRECTORY``) to a file argument."""
    path = directory / "input"
    if content is _DIRECTORY:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    return str(path)


_CLI_CASE = st.one_of(
    st.tuples(st.sampled_from(["genus", "alexander"]), _KNOT_TEXT).map(
        lambda c: (["knot", c[0], c[1]], None)
    ),
    st.tuples(st.sampled_from(["genus", "alexander"]), _PD_TEXT).map(
        lambda c: (["diagram", c[0], _FILE], c[1])
    ),
    (_TYPED_TOWER | _HOSTILE_TOWER | _ANY_JSON).map(lambda doc: (["tower", "report", _FILE], json.dumps(doc))),
    st.text(max_size=20).map(lambda text: (["tower", "report", _FILE], text)),
    (st.sampled_from(CATALOG_NAMES) | st.text(alphabet="mask:01xyz", max_size=8)).map(
        lambda name: (["catalog", "report", name], None)
    ),
    st.lists(st.sampled_from(["knot", "tower", "report", "catalog", "list", "genus", "-x", "--json"]),
             max_size=4).map(lambda argv: (argv, None)),
    st.sampled_from(_HOSTILE_FILES).map(lambda c: (c[0] + [_FILE], c[1])),
)


def _each_bad_input(test):
    """An ``@example`` of ``test`` for each ``_BAD_VALUES`` and ``_BAD_USAGE``
    input, with and without ``--json`` in turn."""
    for i, (argv, content, _) in enumerate(_BAD_VALUES + _BAD_USAGE):
        test = example(case=(argv, content), as_json=i % 2 == 0)(test)
    return test


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(case=_CLI_CASE, as_json=st.booleans())
@example(case=(["tower", "report", _FILE], json.dumps(fold_tower(12, 3, "1 - t + t^2", 1))), as_json=True)
@example(case=(["knot", "alexander", "sum(torus(2,100001); torus(2,100001))"], None), as_json=False)
@example(case=(["diagram", "genus", _FILE], _DIRECTORY), as_json=False)
@example(case=(["tower", "report", _FILE], _NOT_UTF8), as_json=False)
@example(case=(["tower", "report", _FILE], _DEEP_JSON), as_json=True)
@_each_bad_input
def test_hostile_input_ends_in_an_exit_status(tmp_path_factory, case, as_json):
    argv, content = case
    directory = None if content is None else tmp_path_factory.mktemp("fuzz")
    code, out, err = _run_with_input(directory, (["--json"] if as_json else []) + argv, content)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # A failure always says why; a success says nothing on stderr.
    assert (code == 0) == (err == "")


@pytest.mark.parametrize(
    "command, content, problem",
    _HOSTILE_FILES,
    ids=["tower-dir", "diagram-dir", "tower-bytes", "diagram-bytes", "deep-json", "deep-name"],
)
def test_unreadable_file_exits_2_naming_the_problem(tmp_path, command, content, problem):
    code, out, err = run(command + [_input_file(tmp_path, content)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and _naming(problem, tmp_path) in err


@pytest.mark.parametrize(
    "argv, content, problem",
    _BAD_VALUES,
    ids=["long-name", "pd-prefix", "catalog-bytes", "long-trailing-text", "long-table-name",
         "long-initial", "long-integer", "bad-delta", "bad-knot", "bad-initial", "long-mask",
         "huge-torus", "huge-torus-initial", "huge-torus-knot", "long-torus", "long-genus",
         "long-tower-genus", "long-catalog-name", "long-delta-token", "long-label", "label-past-int-limit",
         "long-diagram-path", "long-tower-path", "long-path-to-bad-json", "many-long-catalog-names",
         "dash-is-a-file", "negative-number-is-a-name", "non-ascii-torus", "non-ascii-delta",
         "non-ascii-label"],
)
def test_bad_input_gets_one_short_line_naming_it(tmp_path, argv, content, problem):
    code, out, err = _run_with_input(tmp_path, argv, content)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and _naming(problem, tmp_path) in err
    assert len(err.encode()) < 300


@pytest.mark.parametrize(
    "argv, content, problem",
    _BAD_USAGE,
    ids=["long-command", "long-invariant", "long-extra-argument", "long-flag-argument", "abbreviated-flag",
         "non-ascii-negative-number"],
)
def test_bad_usage_gets_one_short_line_naming_it(argv, content, problem):
    code, out, err = run(argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1 and problem in err
    assert len(err.encode()) < 300


# A 4,000-digit integer converts, so each message that shows it quotes it cut.
_LONG_DIGITS = "9" * 4000


@pytest.mark.parametrize(
    "doc, problem",
    [
        ('{"initial": "unknot", "cycle": [{"kind": "wind", "w": %s}]}' % _LONG_DIGITS,
         "cycle[0]: MalformedStage: winding 999"),
        ('{"schema_version": %s, "initial": "unknot", "cycle": []}' % _LONG_DIGITS,
         "error: unsupported schema_version 999"),
        ('{"initial": "unknot", "initial_genus": %s, "cycle": [{"kind": "core_parallel"}]}' % _LONG_DIGITS,
         "initial: MalformedStage: declared initial genus 999"),
        ('{"initial": "unknot", "cycle": [{"w": 1, "declared_genus": %s, "pattern_genus": 0}]}' % _LONG_DIGITS,
         "cycle[0] (periodic): SchubertViolation: declared genus 999"),
    ],
    ids=["winding", "schema-version", "initial-genus", "declared-genus"],
)
def test_long_integers_are_quoted_cut(tmp_path, doc, problem):
    code, out, err = run(["tower", "report", _input_file(tmp_path, doc)])
    assert code == 2 and out == "" and problem in err and f"{'9' * 30}...{'9' * 30} (4000 characters)" in err
    assert all(len(line.encode()) < 300 for line in err.splitlines())


_BOUND_LINE = "prefix[349]: MalformedStage: the genus chain bound reaches 14001 bits, past the limit of 14000 bits"


@pytest.mark.parametrize("extra", [(), (wind(2, declared_genus=5),)], ids=["bound", "declared-genus-after-it"])
def test_a_chain_bound_past_its_limit_is_refused(tmp_path, extra):
    # 400 windings of 2^40 over a trefoil: the bound passes 2^14000, whose
    # decimal form would pass Python's 4,300-digit conversion limit.  The
    # chain is not followed past it, so a declaration after it goes unread.
    t = Tower("big", Torus(2, 3), prefix=(wind(2**40),) * 400 + extra, cycle=(core_parallel(),))
    code, out, err = run(["tower", "report", _input_file(tmp_path, json.dumps(tower_to_dict(t)))])
    assert (code, out, err) == (2, "", f"invalid tower:\n{_BOUND_LINE}\n") and len(_BOUND_LINE) < 300


def test_a_long_chain_past_the_bound_limit_is_refused_in_linear_time(tmp_path):
    # 4 * 10^4 windings of 2^40: followed to the end, the bound would reach
    # 1.6 million bits after about 7 s of multiplying ever longer integers.
    doc = {"initial": "torus(2,3)", "prefix": [{"kind": "wind", "w": 2**40}] * 40_000,
           "cycle": [{"kind": "core_parallel"}]}
    start = time.perf_counter()
    code, out, err = run(["tower", "report", _input_file(tmp_path, json.dumps(doc))])
    assert time.perf_counter() - start < 3
    assert (code, out, err) == (2, "", f"invalid tower:\n{_BOUND_LINE}\n")
