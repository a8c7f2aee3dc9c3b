"""Spans and counters recorded around the public functions of ``semiortho``.

The program itself carries no tracing.  ``Tracer.install`` replaces each
function or method named in ``LAYERS`` by a wrapper, in every loaded
``semiortho`` module that binds it (so re-exports and ``from .x import y``
names are covered), and the wrapper records one span per call: layer name,
start, end and the enclosing span.  Spans stay in flat arrays until
``summary``, which derives each layer's self time (span minus the time its
child spans cover) and returns per-layer calls, busy seconds and counters.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

ROOT = "request"


def _search_counts(args, kwargs, result):
    return dict(result.stats)


def _enumerate_counts(args, kwargs, result):
    space = args[0]
    if space.modulus:
        scanned = space.modulus**space.dimension - 1
    else:
        box = kwargs.get("box", args[2] if len(args) > 2 else None)
        scanned = (2 * box + 1) ** space.dimension
    return {"vectors_scanned": scanned, "candidates": len(result)}


def _det_counts(args, kwargs, result):
    return {"max_n": args[0].size}


def _render_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (layer, module, attribute path, counter function).  A layer may cover
# several functions; a method is named as "Class.method".
LAYERS = (
    ("intpoly.eval", "semiortho.intpoly", "IntValuedPolynomial.__call__", None),
    ("intpoly.construct", "semiortho.intpoly", "IntValuedPolynomial.from_binomial", None),
    ("intpoly.construct", "semiortho.intpoly", "IntValuedPolynomial.from_roots", None),
    ("exactmat.det", "semiortho.exactmat", "ExactMatrix.determinant", _det_counts),
    ("exactmat.inverse", "semiortho.exactmat", "ExactMatrix.inverse", None),
    ("exactmat.matrix_order", "semiortho.exactmat", "matrix_order", None),
    ("eulerform.gram", "semiortho.eulerform", "gram_from_twists", None),
    ("eulerform.gram", "semiortho.eulerform", "reduce_mod", None),
    ("eulerform.serre", "semiortho.eulerform", "serre_operator", None),
    ("sonb.search", "semiortho.sonb", "search", _search_counts),
    ("sonb.enumerate", "semiortho.sonb", "enumerate_candidates", _enumerate_counts),
    ("sonb.orbits", "semiortho.sonb", "serre_orbits", None),
    ("sonb.verify", "semiortho.sonb", "verify_semi_orthonormal", None),
    ("cyclotomic.mul", "semiortho.cyclotomic", "Cyclotomic.__mul__", None),
    ("cyclotomic.inverse", "semiortho.cyclotomic", "Cyclotomic.inverse", None),
    ("reptheory.character_table", "semiortho.reptheory", "character_table", None),
    ("reptheory.v3_matrix", "semiortho.reptheory", "v3_matrix", None),
    ("reptheory.inner_product", "semiortho.reptheory", "inner_product", None),
    ("lefschetz.solve_hlfp0", "semiortho.lefschetz", "solve_hlfp0", None),
    ("lefschetz.h0_trace", "semiortho.lefschetz", "h0_trace", None),
    ("atlas.load", "semiortho.atlas", "load_records", None),
    ("cli.main", "semiortho.cli", "main", None),
    ("cli.render", "semiortho.cli", "Report.render", _render_counts),
)

# Counters that keep their maximum instead of a sum.
MAX_COUNTERS = ("max_n",)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name):
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    def count(self, layer, counts):
        for key, value in counts.items():
            name = f"{layer}.{key}"
            if key in MAX_COUNTERS:
                self.counters[name] = max(self.counters.get(name, 0), value)
            else:
                self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, layer, fn, counter=None):
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if cache_info:
                self.count(layer, {"cache_hits": cache_info().hits - hits})
            if counter:
                self.count(layer, counter(args, kwargs, result))
            return result

        return traced

    def install(self):
        """Wrap every function in LAYERS wherever a loaded semiortho module binds it."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "semiortho"]
        for layer, module_name, path, counter in LAYERS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self.wrap(layer, raw.__func__, counter)))
                continue
            traced = self.wrap(layer, raw, counter)
            holders = [owner] if isinstance(owner, type) else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        setattr(holder, key, traced)

    def summary(self):
        """Per-layer calls, self time and counters, derived from the spans."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls, busy = out.get(name, (0, 0.0))
            busy += self.span_end[i] - self.span_start[i] - child[i]
            out[name] = (calls + 1, busy)
        return {
            "spans": n,
            "layers": {k: {"calls": c, "busy_s": b} for k, (c, b) in out.items()},
            "counters": dict(self.counters),
        }
