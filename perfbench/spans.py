"""Spans around calls into the library's public functions, from outside it.

:class:`Tracer` replaces each public function of the ``toroidal`` modules,
in every module namespace that holds it, with a wrapper that records a
span: ``(span id, parent id, op id, name, start ns, end ns, child ns)``.
``child ns`` is the time covered by direct children, so a span's self time
is its duration minus that.  Functions are wrapped where they are called:
``reports`` imports ``cech_h1`` by name, so ``reports.cech_h1`` is wrapped,
and ``towers`` calls ``validate_tower`` through its own globals, so that
name is wrapped in ``towers``.

``LaurentPoly`` methods, ``knots.normalize`` and ``knots.genus_of_knot``
run too often for a span each (tens of thousands per determinant or
report).  They are leaves: counted, and the time of each outermost one is
added to its caller's ``child ns`` and to a total per name.

:meth:`Tracer.enable` puts the wrappers in place and :meth:`Tracer.disable`
restores the originals, so untraced and traced runs of an op can alternate.
Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from pathlib import Path
from time import perf_counter_ns

MODULES = ["laurent", "knots", "diagrams", "towers", "reports", "catalog", "cli"]
LAURENT_METHODS = ["__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                   "__mul__", "__rmul__", "__pow__", "exact_div", "canonical",
                   "equal_up_to_unit", "subst_power", "mirror", "__str__"]

# Public functions called too often for a span each, counted like LaurentPoly methods.
LEAVES = {"knots.normalize", "knots.genus_of_knot"}
# Classifiers that tower_alexander runs again; their time is not the fold's.
REPEATED_BY_FOLD = {"towers.validate_tower", "towers.cech_h1", "towers.genus_of_tower"}
SEIFERT = {"diagrams.seifert_genus_upper", "diagrams.seifert_circle_count"}
# The classifiers behind towers.classify_self_ms_per_op.
CLASSIFIERS = {"cech_h1", "genus_of_tower", "is_unknotted_tower", "homeo_attractor_verdict",
               "flow_attractor_verdict", "r_of_toroidal"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, int, int, int]] = []
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 1
        self.op_id = 0
        self.counts: dict[str, int] = {}  # leaf calls by name
        self.leaf_ns: dict[str, int] = {}  # time in outermost leaf calls by name
        self.laurent_max_terms = 0
        self.max_crossings = 0
        self._leaf_depth = 0
        self._plan = self._wrap_all()  # (owner, attribute, original, wrapper)

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0]
        parent = self._stack[-1] if self._stack else None
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans.append((span_id, parent[0] if parent else 0, self.op_id, name, start, end, frame[1]))

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _leaf_wrapper(self, name: str, fn):
        counts, leaf_ns = self.counts, self.leaf_ns
        laurent = name.startswith("laurent.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if self._leaf_depth:
                return fn(*args, **kwargs)
            self._leaf_depth = 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._leaf_depth = 0
                leaf_ns[name] = leaf_ns.get(name, 0) + elapsed
                if self._stack:
                    self._stack[-1][1] += elapsed
            if laurent:
                terms = getattr(args[0] if name == "laurent.__init__" else result, "terms", ())
                self.laurent_max_terms = max(self.laurent_max_terms, len(terms))
            return result
        return wrapper

    # -- installing ------------------------------------------------------

    def _wrap_all(self) -> list[tuple[object, str, object, object]]:
        mods = {name: importlib.import_module(f"toroidal.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for mod in mods.values():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or id(fn) in wrappers:
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                if name.startswith("laurent.") or name in LEAVES:
                    wrappers[id(fn)] = self._leaf_wrapper(name, fn)
                else:
                    wrappers[id(fn)] = self._observe(name, fn)
        plan = []
        for ns in list(mods.values()) + [importlib.import_module("toroidal")]:
            for attr, value in vars(ns).items():
                if inspect.isfunction(value) and id(value) in wrappers:
                    plan.append((ns, attr, value, wrappers[id(value)]))
        poly = mods["laurent"].LaurentPoly
        for attr in LAURENT_METHODS:
            if attr in vars(poly):
                original = vars(poly)[attr]
                plan.append((poly, attr, original, self._leaf_wrapper(f"laurent.{attr}", original)))
        return plan

    def enable(self) -> None:
        for owner, attr, _original, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def disable(self) -> None:
        for owner, attr, original, _wrapper in self._plan:
            setattr(owner, attr, original)

    def _observe(self, name: str, fn):
        if name != "diagrams.parse_pd":
            return self._span_wrapper(name, fn)

        @functools.wraps(fn)
        def parse_pd(*args, **kwargs):
            diagram = self.span(name, fn, *args, **kwargs)
            self.max_crossings = max(self.max_crossings, diagram.n)
            return diagram
        return parse_pd

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# span_id parent_id op_id name start_ns end_ns child_ns\n")
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")

    # -- per-layer figures ----------------------------------------------

    def per_layer(self, n_ops: int) -> dict[str, float]:
        """Per-op figures over everything this tracer recorded in ``n_ops`` ops."""
        n_ops = max(1, n_ops)
        name_of = {s[0]: s[3] for s in self.spans}
        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        total_ns: dict[str, int] = {}  # outermost spans of each name
        fold_ns = 0  # tower_alexander less the classifiers it re-runs
        seifert_ns = 0  # Seifert spans not nested in another Seifert span
        for _sid, parent, _op, name, start, end, child in self.spans:
            dur = end - start
            up = name_of.get(parent)
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child
            if up != name:
                total_ns[name] = total_ns.get(name, 0) + dur
            if name == "towers.tower_alexander":
                fold_ns += dur
            elif up == "towers.tower_alexander" and name in REPEATED_BY_FOLD:
                fold_ns -= dur
            if name in SEIFERT and up not in SEIFERT:
                seifert_ns += dur

        def ms(ns: int) -> float:
            return ns / 1e6 / n_ops

        def per_op(name: str) -> float:
            return calls.get(name, 0) / n_ops

        laurent_calls = self.counts
        laurent_ns = sum(ns for name, ns in self.leaf_ns.items() if name.startswith("laurent."))
        return {
            "towers.validate_calls_per_op": per_op("towers.validate_tower"),
            "towers.validate_self_ms_per_op": ms(self_ns.get("towers.validate_tower", 0)),
            "towers.load_ms_per_op": ms(total_ns.get("towers.tower_from_dict", 0)),
            "towers.classify_self_ms_per_op": ms(sum(self_ns.get(f"towers.{c}", 0) for c in CLASSIFIERS)),
            "towers.alexander_fold_ms_per_op": ms(fold_ns),
            "knots.alexander_calls_per_op": per_op("knots.alexander_of_knot"),
            "knots.alexander_self_ms_per_op": ms(self_ns.get("knots.alexander_of_knot", 0)),
            "knots.parse_ms_per_op": ms(total_ns.get("knots.parse_knot", 0)),
            "laurent.ctor_calls_per_op": laurent_calls.get("laurent.__init__", 0) / n_ops,
            "laurent.mul_calls_per_op": (laurent_calls.get("laurent.__mul__", 0)
                                         + laurent_calls.get("laurent.__rmul__", 0)) / n_ops,
            "laurent.div_calls_per_op": laurent_calls.get("laurent.exact_div", 0) / n_ops,
            "laurent.self_ms_per_op": ms(laurent_ns),
            "laurent.max_terms": float(self.laurent_max_terms),
            "diagrams.parse_ms_per_op": ms(total_ns.get("diagrams.parse_pd", 0)),
            "diagrams.det_calls_per_op": per_op("diagrams.alexander_from_diagram"),
            "diagrams.det_self_ms_per_op": ms(self_ns.get("diagrams.alexander_from_diagram", 0)),
            "diagrams.seifert_ms_per_op": ms(seifert_ns),
            "diagrams.max_crossings": float(self.max_crossings),
            "reports.build_self_ms_per_op": ms(self_ns.get("reports.build_report", 0)),
            "reports.render_ms_per_op": ms(total_ns.get("reports.render_json", 0) + total_ns.get("reports.render_text", 0)),
            "catalog.resolve_ms_per_op": ms(total_ns.get("catalog.resolve", 0)),
        }
