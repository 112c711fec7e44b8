"""Spans around calls into the engine, recorded from outside ``src/``.

``Tracer.install`` replaces every public function of the traced modules, in
every namespace that holds a reference to it, with a wrapper that records a
span: name, start, end, parent span and the workload item being run.  The
engine modules import names directly (``from .symalg import generic_rank``),
so patching the defining module alone would miss most calls.  A few hot
methods are wrapped on their classes as well.  ``uninstall`` puts every
original back.

Spans are kept in flat arrays while the pass runs and turned into per-layer
figures afterwards.  A span's self time is its duration minus the durations
of the wrapped spans directly inside it.
"""

from __future__ import annotations

import inspect
import struct
import sys
from array import array
from collections import Counter
from functools import update_wrapper
from pathlib import Path
from time import perf_counter

LAYERS = ("symalg", "cartan", "courant", "tanlift", "algebroid", "groupoid", "suite", "cli")
METHODS = (
    ("symalg", "Expr", ("__init__", "__mul__", "substitute")),
    ("cartan", "PolyMap", ("compose", "jacobian")),
)
ELIMINATION = ("symalg.generic_rank", "symalg.solve_linear", "symalg.nullspace")
REBUILDERS = ("groupoid.algebroid_frame", "groupoid.lie_algebroid_of", "groupoid.cotangent_source_target")


def _dims(m) -> tuple[int, int]:
    rows = m.entries if hasattr(m, "entries") else list(m)
    return len(rows), len(rows[0]) if rows else 0


def _entries(m):
    rows = m.entries if hasattr(m, "entries") else m
    for row in rows:
        yield from row


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self, namespaces):
        self.namespaces = list(namespaces)
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_item = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.item = -1
        self.elim_max_cells = 0
        self.solve_const = 0
        self.rank_full = 0
        self.mul_max_terms = 0
        self.rebuilds: Counter = Counter()
        self.check_names: set[str] = set()
        self._undo: list = []

    # -- recording -----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name."""
        return self._wrap(fn, name)(*args, **kwargs)

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        probe = self._probe(name)
        names, parents, items = self.span_name, self.span_parent, self.span_item
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(self.item)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if probe is not None:
                probe(args, result)
            return result

        update_wrapper(wrapper, fn)
        wrapper.span_name = name
        return wrapper

    def _probe(self, name: str):
        if name in ELIMINATION:

            def elimination(args, result):
                rows, cols = _dims(args[0])
                self.elim_max_cells = max(self.elim_max_cells, rows * cols)
                if name == "symalg.solve_linear" and all(e.degree() <= 0 for e in _entries(args[0])):
                    self.solve_const += 1
                if name == "symalg.generic_rank" and result == min(rows, cols):
                    self.rank_full += 1

            return elimination
        if name == "symalg.Expr.__mul__":

            def product(args, result):
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > self.mul_max_terms:
                    self.mul_max_terms = len(terms)

            return product
        if name in REBUILDERS:

            def rebuild(args, result):
                self.rebuilds[(name, args[0])] += 1

            return rebuild
        return None

    # -- patching --------------------------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules[f"diracgeom.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for layer, cls_name, methods in METHODS:
            cls = getattr(modules[layer], cls_name)
            for meth in methods:
                original = cls.__dict__[meth]
                wrapped = self._wrap(original, f"{layer}.{cls_name}.{meth}")
                for attr, obj in list(cls.__dict__.items()):
                    if obj is original:  # __rmul__ is the same function as __mul__
                        self._set(cls, attr, wrapped)
        cli = modules["cli"]
        for table in (cli.CHECKS, cli.CONSTRUCTORS):
            for key, entry in list(table.items()):
                fn = entry[-1]
                if fn not in wrappers and table is cli.CHECKS:  # private checks such as cli._check_closed
                    wrappers[fn] = self._wrap(fn, f"cli.{fn.__name__}")
                if fn not in wrappers:
                    continue
                if table is cli.CHECKS:
                    self.check_names.add(wrappers[fn].span_name)
                self._set_item(table, key, entry[:-1] + (wrappers[fn],))
        for mod in list(modules.values()) + self.namespaces:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def _set(self, owner, attr, value) -> None:
        self._undo.append((setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _set_item(self, table, key, value) -> None:
        self._undo.append((dict.__setitem__, table, key, table[key]))
        table[key] = value

    def uninstall(self) -> None:
        while self._undo:
            op, owner, key, value = self._undo.pop()
            op(owner, key, value)

    # -- figures ---------------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and ratios over every recorded span."""
        n = len(self.span_start)
        names, parents = self.span_name, self.span_parent
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
            total_s[k] += dur[i]
        by = {name: k for k, name in enumerate(self.names)}

        def count(name):
            return calls[by[name]] if name in by else 0

        def self_time(name):
            return self_s[by[name]] if name in by else 0.0

        def layer_self(layer):
            return sum(self_s[k] for name, k in by.items() if name.split(".", 1)[0] == layer)

        def ratio(num, den):
            return num / den if den else 0.0

        run_checks = by.get("cli.run_checks")
        checks_inside = 0.0
        if run_checks is not None:
            check_ids = {by[name] for name in self.check_names if name in by}
            checks_inside = sum(dur[i] for i in range(n) if names[i] in check_ids and parents[i] >= 0 and names[parents[i]] == run_checks)
        rank_calls, solve_calls = count("symalg.generic_rank"), count("symalg.solve_linear")
        dirac_calls = count("courant.check_dirac")
        return {
            "symalg.rank_calls": rank_calls,
            "symalg.solve_calls": solve_calls,
            "symalg.nullspace_calls": count("symalg.nullspace"),
            "symalg.elim_self_s": sum(self_time(name) for name in ELIMINATION),
            "symalg.elim_max_cells": self.elim_max_cells,
            "symalg.solve_const_share": ratio(self.solve_const, solve_calls),
            "symalg.rank_full_share": ratio(self.rank_full, rank_calls),
            "symalg.expr_init_calls": count("symalg.Expr.__init__"),
            "symalg.mul_calls": count("symalg.Expr.__mul__"),
            "symalg.mul_max_terms": self.mul_max_terms,
            "symalg.substitute_calls": count("symalg.Expr.substitute"),
            "symalg.substitute_self_s": self_time("symalg.Expr.substitute"),
            "symalg.self_s": layer_self("symalg"),
            "cartan.lie_bracket_calls": count("cartan.lie_bracket"),
            "cartan.exterior_derivative_calls": count("cartan.exterior_derivative"),
            "cartan.pullback_form_calls": count("cartan.pullback_form"),
            "cartan.self_s": layer_self("cartan"),
            "courant.check_dirac_calls": dirac_calls,
            "courant.bracket_calls": count("courant.courant_bracket"),
            "courant.pairing_calls": count("courant.pairing"),
            "courant.pairings_per_check": ratio(count("courant.pairing"), dirac_calls),
            "courant.self_s": layer_self("courant"),
            "tanlift.lift_calls": sum(count(f"tanlift.{f}") for f in ("lift_function", "lift_vector_field", "lift_one_form", "lift_section", "tangent_lift_dirac")),
            "tanlift.tangent_map_calls": count("tanlift.tangent_map"),
            "tanlift.self_s": layer_self("tanlift"),
            "algebroid.check_calls": sum(count(name) for name in by if name.startswith("algebroid.check_")),
            "algebroid.self_s": layer_self("algebroid"),
            "groupoid.chart_params_calls": count("groupoid.chart_params"),
            "groupoid.lie_algebroid_of_calls": count("groupoid.lie_algebroid_of"),
            "groupoid.cotangent_source_target_calls": count("groupoid.cotangent_source_target"),
            "groupoid.algebroid_frame_calls": count("groupoid.algebroid_frame"),
            "groupoid.rebuilds_per_groupoid": ratio(sum(self.rebuilds.values()), len(self.rebuilds)),
            "groupoid.self_s": layer_self("groupoid"),
            "cli.parse_s": total_s[by["cli.parse_checkfile"]] if "cli.parse_checkfile" in by else 0.0,
            "cli.eval_s": (total_s[run_checks] - checks_inside) if run_checks is not None else 0.0,
            "cli.emit_s": total_s[by["cli.emit_report"]] if "cli.emit_report" in by else 0.0,
            "trace.spans": n,
        }

    def write(self, path: Path) -> None:
        """Spans as a names line, then one packed (name, parent, item, start, end) record each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rec = struct.Struct("<Iiidd")
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode("utf-8"))
            for row in zip(self.span_name, self.span_parent, self.span_item, self.span_start, self.span_end):
                fh.write(rec.pack(*row))
