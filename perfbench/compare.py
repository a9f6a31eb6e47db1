"""Compare two sets of benchmark runs and give a verdict per workload and metric.

Each set is a JSON-lines file written by ``run.py --out FILE`` (one run per
line).  Runs of the two sets are paired by seed.  For every workload and
end-to-end metric of ``BENCHMARK.json`` this prints each side's median and
quartiles, how many pairs the change wins and loses, and a verdict:

* ``improved``: the change wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ by more than the distance
  between the base's quartiles;
* ``worse``: the change's median is worse than the base's by more than the
  metric's bound;
* ``unresolved``: the base's own spread (quartile distance over median) is
  wider than the bound, unless every run of the change beats every run of
  the base;
* ``no worse``: otherwise.

Usage::

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_runs(path: Path) -> dict[str, dict[int, dict[str, float]]]:
    """workload -> seed -> metric -> value, from untraced runs only."""
    runs: dict[str, dict[int, dict[str, float]]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            metrics = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
            runs.setdefault(rec["workload"], {})[rec["seed"]] = metrics
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], pairs: list[tuple[float, float]],
            better: str, bound: float) -> tuple[str, int, int]:
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    b1, b_med, b3 = quartiles(base)
    c_med = statistics.median(change)
    everywhere_better = all(sign * (c - b) > 0 for c in change for b in base)
    if (b3 - b1) / abs(b_med) > bound:
        return ("improved" if everywhere_better else "unresolved"), wins, losses
    if pairs and wins >= 0.9 * len(pairs) and sign * (c_med - b_med) > b3 - b1:
        return "improved", wins, losses
    if sign * (c_med - b_med) < -bound * abs(b_med):
        return "worse", wins, losses
    return "no worse", wins, losses


def _fmt(q: tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in q)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=Path("BENCHMARK.json"))
    args = parser.parse_args(argv)
    spec = json.loads(args.benchmark.read_text())
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    print(f"{'workload':<15} {'metric':<15} {'base q1/med/q3':>30} {'change q1/med/q3':>30} "
          f"{'wins':>5} {'losses':>6} {'pairs':>5}  verdict")
    worst = "no worse"
    for workload in sorted(set(base_runs) & set(change_runs)):
        b_runs, c_runs = base_runs[workload], change_runs[workload]
        seeds = sorted(set(b_runs) & set(c_runs))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r[name] for r in b_runs.values()]
            change = [r[name] for r in c_runs.values()]
            pairs = [(b_runs[s][name], c_runs[s][name]) for s in seeds]
            tag, wins, losses = verdict(base, change, pairs, metric["better"], metric["bound"])
            print(f"{workload:<15} {name:<15} {_fmt(quartiles(base)):>30} {_fmt(quartiles(change)):>30} "
                  f"{wins:>5} {losses:>6} {len(pairs):>5}  {tag}")
            if tag == "worse" or (tag == "unresolved" and worst != "worse"):
                worst = tag
    print(f"overall: {worst}")
    return 1 if worst == "worse" else 0


if __name__ == "__main__":
    sys.exit(main())
