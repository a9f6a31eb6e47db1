"""Benchmark of the ``toroidal`` library: three closed-loop, single-client workloads.

Run from the repository root (the library is imported from ``src``)::

    python3 perfbench/run.py --workload tower_reports --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload all`` runs every workload in its own process and prints all
their metrics, error rate included, with units and sample counts.
``--out FILE`` appends the run, with its metadata, to a JSON-lines file that
``perfbench/compare.py`` reads.  The benchmark's own tests run with
``PYTHONPATH=src python -m pytest -q perfbench``.

Workloads (inputs are generated from ``--seed`` by ``gen.py``):

* ``tower_reports``: the in-process path of ``toroidal tower report --json``
  (``json.loads``, ``tower_from_dict``, ``validate_tower``, ``build_report``,
  ``render_json``), stopping at the first rejection.
* ``diagram_oracle``: ``parse_pd``, ``alexander_from_diagram``,
  ``genus_bounds``, then the closed forms ``alexander_of_knot`` and
  ``genus_of_knot`` for the knot the diagram was built from.
* ``cli_mix``: one ``python -m toroidal.cli`` process per op.

Each run repeats the generated corpus in rounds until ``--seconds`` have
passed, and a case's latency is its median over the rounds, so every run
measures the same mix.  Outputs are checked after each op, outside its
timing.

End-to-end metrics (``--trace 0``): ``setup_s`` (median wall time of fresh
processes that import ``toroidal``, or ``toroidal.cli`` for ``cli_mix``),
``ops_per_s`` (cases over the sum of their latencies), ``latency_p50_ms`` and
``latency_p90_ms`` (ops whose correct outcome is a result),
``reject_p50_ms`` (ops whose correct outcome is a rejection) and
``peak_rss_mb`` (the process that ran the ops; for ``cli_mix`` the largest
child).  The error rate is printed; wrong outputs make ``correct`` false.

Per-layer metrics (``--trace 1``) come from spans recorded by ``spans.py``
around the library's public functions, in a run that alternates each op
untraced and traced; the difference is ``trace.overhead_pct``.  The
``cli.*`` figures are measured in every traced run: fresh-process import and
bare-interpreter times, and the in-process ``main()`` over the CLI mix.
A layer that a workload's ops never reach reads 0 there.  Which end-to-end
metric each layer metric should move:

=====================================  =======================================
towers.validate_*                      tower_reports latency_p50_ms, ops_per_s
towers.load / classify / alexander     tower_reports latency_p90_ms
knots.*                                tower_reports latency_p50_ms
laurent.*                              diagram_oracle latency_p50_ms, ops_per_s
diagrams.*                             diagram_oracle latency_p50/p90, ops_per_s
reports.*                              tower_reports latency_p50_ms
catalog.resolve_ms_per_op              cli_mix latency_p50_ms
cli.*                                  setup_s everywhere, cli_mix latency_p50
=====================================  =======================================

Spans of a traced run are written to ``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import polyref

WORKLOADS = ["tower_reports", "diagram_oracle", "cli_mix"]
OUT_DIR = Path(".perfbench")
SETUP_SAMPLES = 3
CLI_PROBE_RUNS = 9
WARMUP_OPS = 5


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=_env(), capture_output=True,
                          text=True, timeout=60, check=True)


def _wall(code: str) -> float:
    start = time.perf_counter()
    _python(code)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# run metadata


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not Path(".git").exists():
        return "unknown (not a git checkout)"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"


def run_metadata(seed: int) -> dict:
    preloaded = _python("import sys; print(int('importlib.resources' in sys.modules))").stdout.strip() == "1"
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": _git_commit(),
        "site_imports_importlib_resources": preloaded,
        "note": (
            "site already imports importlib.resources before toroidal does, so making that "
            "import lazy cannot lower setup_s here" if preloaded else ""
        ),
    }


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Cases, the op that runs one, and the check of its outcome."""

    setup_import = "toroidal"

    def __init__(self, seed: int, work_dir: Path):
        self.cases: list = []
        self.seed = seed
        self.work_dir = work_dir

    def expects_reject(self, case) -> bool:
        return bool(case.reject)

    def run(self, case) -> tuple[str, object]:
        raise NotImplementedError

    def check(self, case, outcome: tuple[str, object]) -> str | None:
        """``None`` when the outcome is right, else what was wrong."""
        raise NotImplementedError

    def traced_run(self, case) -> tuple[str, object]:
        return self.run(case)


def _check_report(report: dict, case: gen.TowerCase) -> str | None:
    for key, want in case.expect.items():
        if report.get(key) != want:
            return f"{key} = {report.get(key)!r}, expected {want!r}"
    if report["unknotted"] != (report["genus"] == "exact:0"):
        return "unknotted disagrees with the genus"
    if case.alexander is not None:
        got = polyref.parse(report["alexander"])
        if got != list(case.alexander):
            return "stabilized Alexander polynomial differs from the reference fold"
        if polyref.breadth(got) != 2 * case.genus or abs(sum(got)) != 1:
            return "stabilized Alexander polynomial fails breadth = 2g or |D(1)| = 1"
    return None


class TowerReports(Workload):
    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        from toroidal import reports, towers
        self.towers, self.reports = towers, reports
        self.cases = gen.tower_cases(seed)

    def run(self, case: gen.TowerCase) -> tuple[str, object]:
        try:
            obj = json.loads(case.doc)
        except json.JSONDecodeError:
            return "reject", "json"
        try:
            tower = self.towers.tower_from_dict(obj)
        except ValueError:
            return "reject", "loader"
        verdict = self.towers.validate_tower(tower)
        if not verdict.ok:
            return "reject", ",".join(sorted({v.kind.value for v in verdict.violations}))
        return "ok", self.reports.render_json(self.reports.build_report(tower))

    def check(self, case: gen.TowerCase, outcome) -> str | None:
        kind, value = outcome
        if case.reject:
            return None if outcome == ("reject", case.reject) else f"expected rejection {case.reject}, got {outcome!r:.200}"
        if kind != "ok":
            return f"expected a report, got {outcome!r:.200}"
        if case.golden is not None:
            return None if value == case.golden else "report differs from the golden file"
        return _check_report(json.loads(value), case)


class DiagramOracle(Workload):
    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        from toroidal import diagrams, knots
        self.diagrams, self.knots = diagrams, knots
        self.cases = gen.diagram_cases(seed)

    def run(self, case: gen.DiagramCase) -> tuple[str, object]:
        try:
            d = self.diagrams.parse_pd(case.pd_text)
        except ValueError as exc:
            return "reject", type(exc).__name__
        delta = self.diagrams.alexander_from_diagram(d)
        bounds = self.diagrams.genus_bounds(d)
        knot = self.knots.parse_knot(case.knot.expr)
        closed = self.knots.alexander_of_knot(knot)
        genus = self.knots.genus_of_knot(knot)
        return "ok", (delta, bounds, closed, genus)

    def check(self, case: gen.DiagramCase, outcome) -> str | None:
        kind, value = outcome
        if case.reject:
            return None if outcome == ("reject", case.reject) else f"expected {case.reject}, got {outcome!r:.200}"
        if kind != "ok":
            return f"expected invariants, got {outcome!r:.200}"
        delta, (lo, hi), closed, genus = value
        want = list(case.knot.delta)
        g = case.knot.genus
        if polyref.parse(str(delta)) != want or polyref.parse(str(closed)) != want:
            return f"Alexander polynomial of {case.knot.expr} differs from the reference"
        if (genus.lower, genus.upper) != (g, g):
            return f"genus_of_knot({case.knot.expr}) = {genus}, expected {g}"
        if lo != g or hi < g or (case.braid and hi != g):
            return f"genus bounds ({lo}, {hi}) wrong for genus {g}"
        return None


class CliMix(Workload):
    setup_import = "toroidal.cli"

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed, work_dir)
        self.cases = gen.cli_cases(seed, work_dir)

    def expects_reject(self, case: gen.CliCase) -> bool:
        return case.exit_code != 0

    def run(self, case: gen.CliCase) -> tuple[str, object]:
        proc = subprocess.run([sys.executable, "-m", "toroidal.cli", *case.argv], env=_env(),
                              capture_output=True, text=True, timeout=120)
        return ("ok" if proc.returncode == 0 else "reject"), (proc.returncode, proc.stdout, proc.stderr)

    def traced_run(self, case: gen.CliCase) -> tuple[str, object]:
        from toroidal import cli
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(list(case.argv), out=out, err=err)
        return ("ok" if code == 0 else "reject"), (code, out.getvalue(), err.getvalue())

    def check(self, case: gen.CliCase, outcome) -> str | None:
        code, out, err = outcome[1]
        if code != case.exit_code:
            return f"{case.argv}: exit {code}, expected {case.exit_code}: {err[-200:]}"
        if "Traceback" in err:
            return f"{case.argv}: traceback on stderr"
        if code != 0:
            return None if err.strip() else f"{case.argv}: no message on stderr"
        if case.check == "golden":
            return None if out == case.expected else f"{case.argv}: report differs from the golden file"
        if case.check == "report":
            report = json.loads(out)
            if case.tower.expect.get("name", report["name"]) != report["name"]:
                return f"{case.argv}: wrong tower name {report['name']!r}"
            return _check_report(report, case.tower)
        if case.check == "poly":
            return None if polyref.parse(out) == list(case.expected) else f"{case.argv}: wrong polynomial"
        if case.check == "list":
            names = json.loads(out)["towers"] if "--json" in case.argv else out.splitlines()[:-1]
            return None if names == case.expected else f"{case.argv}: wrong catalog list"
        doc = json.loads(out)
        if doc["genus_lower"] != case.expected or doc["genus_upper"] != case.expected:
            return f"{case.argv}: genus {doc['genus_lower']}..{doc['genus_upper']}, expected {case.expected}"
        return None


WORKLOAD_CLASSES = {"tower_reports": TowerReports, "diagram_oracle": DiagramOracle, "cli_mix": CliMix}


# ---------------------------------------------------------------------------
# measurement


def _guarded(fn, case) -> tuple[str, object]:
    try:
        return fn(case)
    except Exception as exc:  # an op that crashes is counted, and the run goes on
        return "error", f"{type(exc).__name__}: {exc}"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.first_output: dict[int, object] = {}

    def record(self, workload: Workload, index: int, case, outcome) -> None:
        self.attempted += 1
        problem = workload.check(case, outcome)
        if problem is None and outcome[0] == "ok" and isinstance(outcome[1], str):
            # Reports are deterministic: every round must print the same bytes.
            first = self.first_output.setdefault(index, outcome[1])
            if first != outcome[1]:
                problem = "output differs from the previous round"
        if problem is not None:
            self.failures.append(problem)


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def measure(workload: Workload, seconds: float) -> dict:
    """Rounds over the whole corpus until ``seconds`` have passed.

    Each case's latency is the median over the rounds, which keeps a short
    slow spell of a shared machine from moving the percentiles; ``ops_per_s``
    is the number of cases over the sum of those medians.  After the first
    full round the run stops as soon as the time is up, since a partial
    round only adds samples to some cases.  Set-up is sampled at the start,
    between rounds every quarter of the run, and at the end.
    """
    cases = workload.cases
    for case in cases[:WARMUP_OPS]:
        _guarded(workload.run, case)
    tally = Tally()
    latencies: list[list[int]] = [[] for _ in cases]
    setup: list[float] = []
    rounds = 0
    deadline = time.perf_counter() + seconds
    last_setup = 0.0
    while rounds == 0 or time.perf_counter() < deadline:
        if time.perf_counter() - last_setup >= seconds / 4:
            setup += [_wall(f"import {workload.setup_import}") for _ in range(SETUP_SAMPLES)]
            last_setup = time.perf_counter()
        for index, case in enumerate(cases):
            if rounds and time.perf_counter() >= deadline:
                break
            start = time.perf_counter_ns()
            outcome = _guarded(workload.run, case)
            latencies[index].append(time.perf_counter_ns() - start)
            tally.record(workload, index, case, outcome)
        rounds += 1
    setup += [_wall(f"import {workload.setup_import}") for _ in range(SETUP_SAMPLES)]
    who = resource.RUSAGE_CHILDREN if isinstance(workload, CliMix) else resource.RUSAGE_SELF
    per_case = [statistics.median(lat) / 1e6 for lat in latencies]
    ok = [ms for ms, case in zip(per_case, cases) if not workload.expects_reject(case)]
    reject = [ms for ms, case in zip(per_case, cases) if workload.expects_reject(case)]
    return {
        "rounds": rounds,
        "tally": tally,
        "setup_s": statistics.median(setup),
        "setup_n": len(setup),
        "ops_per_s": len(per_case) / (sum(per_case) / 1e3),
        "latency_p50_ms": statistics.median(ok),
        "latency_p90_ms": _quantile(ok, 0.9),
        "reject_p50_ms": statistics.median(reject),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "n_ok": len(ok),
        "n_reject": len(reject),
    }


def measure_traced(workload: Workload, seconds: float, spans_path: Path) -> tuple[dict, Tally]:
    import spans

    tracer = spans.Tracer()
    tally = Tally()
    untraced_ns = traced_ns = 0
    # Whole rounds only, so every case weighs the same in the per-op figures;
    # a round starts only if it should end before the time is up.
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while round_s == 0.0 or time.perf_counter() + round_s <= deadline:
        round_start = time.perf_counter()
        for index, case in enumerate(workload.cases):
            start = time.perf_counter_ns()
            _guarded(workload.traced_run, case)
            untraced_ns += time.perf_counter_ns() - start
            tracer.op_id += 1
            tracer.enable()
            start = time.perf_counter_ns()
            outcome = tracer.span("op", _guarded, workload.traced_run, case)
            traced_ns += time.perf_counter_ns() - start
            tracer.disable()
            tally.record(workload, index, case, outcome)
        round_s = time.perf_counter() - round_start
    metrics = tracer.per_layer(tracer.op_id)
    tracer.write_spans(spans_path)

    # The CLI layer, measured the same way in every workload's traced run.
    cli_mix = workload if isinstance(workload, CliMix) else CliMix(workload.seed, workload.work_dir / "cli")
    cli_tracer = spans.Tracer()
    cli_tracer.enable()
    for case in cli_mix.cases:
        cli_tracer.op_id += 1
        problem = cli_mix.check(case, _guarded(cli_mix.traced_run, case))
        if problem is not None:
            tally.failures.append(f"in-process CLI: {problem}")
    cli_tracer.disable()
    main_ns = sum(s[5] - s[4] for s in cli_tracer.spans if s[3] == "cli.main")
    metrics["cli.main_ms_per_op"] = main_ns / 1e6 / len(cli_mix.cases)
    imports, bare = [], []
    for _ in range(CLI_PROBE_RUNS):
        bare.append(_wall("pass"))
        imports.append(float(_python(
            "import time; t = time.perf_counter(); import toroidal.cli; print(time.perf_counter() - t)"
        ).stdout))
    metrics["cli.import_ms"] = statistics.median(imports) * 1e3
    metrics["cli.interp_ms"] = statistics.median(bare) * 1e3
    metrics["trace.overhead_pct"] = (traced_ns / untraced_ns - 1) * 100
    return metrics, tally


# ---------------------------------------------------------------------------
# entry points

def metric_units() -> dict[str, str]:
    """Unit of every metric, from ``BENCHMARK.json``, in the order listed there."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_one(args) -> int:
    if not (Path("src/toroidal/__init__.py").is_file() and gen.GOLDEN_DIR.is_dir()):
        print("perfbench: run from the repository root; src/toroidal and tests/golden are needed",
              file=sys.stderr)
        return 2
    sys.path.insert(0, "src")
    units = metric_units()
    meta = run_metadata(args.seed)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        workload = WORKLOAD_CLASSES[args.workload](args.seed, work_dir)
        if args.trace:
            spans_path = OUT_DIR / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            metrics, tally = measure_traced(workload, args.seconds, spans_path)
            print(f"{args.workload} traced, seed {args.seed}: {tally.attempted} ops, "
                  f"{len(tally.failures)} failed; spans in {spans_path}")
        else:
            m = measure(workload, args.seconds)
            tally = m["tally"]
            metrics = {k: m[k] for k in units if k in m}
            rounds = m["rounds"]
            counts = {"setup_s": f"{m['setup_n']} processes", "ops_per_s": f"{tally.attempted} ops",
                      "latency_p50_ms": f"{m['n_ok']} cases x {rounds} rounds",
                      "latency_p90_ms": f"{m['n_ok']} cases x {rounds} rounds",
                      "reject_p50_ms": f"{m['n_reject']} cases x {rounds} rounds", "peak_rss_mb": "1 process"}
            print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(workload.cases)} cases")
            for name, value in metrics.items():
                print(f"  {name:<16} {value:12.4f} {units[name]:<4} n = {counts[name]}")
            print(f"  {'error_rate':<16} {len(tally.failures) / tally.attempted:12.4f} {'':<4} "
                  f"n = {tally.attempted} ops")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for problem in tally.failures[:10]:
        print(f"  FAILED: {problem}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print("meta " + json.dumps(meta))
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "meta": meta, "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, its report printed as it finishes."""
    results = {}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
        status |= 0 if results[name]["correct"] else 1
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append the run and its metadata to this JSON-lines file")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
