"""Span tracing of the program's layers, from outside the program.

`Tracer.install()` replaces every public function and method of the
program's layer modules with a wrapper that records a span (name, start,
end, parent span, check id) and counts calls; it changes nothing under
`src/`.  Spans live in flat arrays while the run lasts and are written
out when it ends.  A layer's self time is the time its spans cover minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layers in nesting order; `scalar` nests inside all of them.
LAYERS = ("suites", "embed", "periodic", "extended", "derived", "repcat", "linalg", "scalar")

# Dunder methods that are part of a class's public arithmetic interface.
_OPERATORS = {
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "__rtruediv__", "__eq__",
}
# Constructors wrapped on purpose: ConeCounter set-up is a layer step of its own.
_CONSTRUCTORS = {("derived", "ConeCounter")}


class Tracer:
    """Spans and counters of one traced run; install() starts recording."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_check = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list = []
        self.check = None  # id of the check in progress, set by the sweep
        self.paused = False
        self.counters: Counter = Counter()
        self._seen = weakref.WeakKeyDictionary()  # context -> keys already computed
        self._patched: list = []  # (owner, attribute, original)
        self._last_hom_basis = None

    # -- spans -------------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_check.append(-1 if self.check is None else self.check)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def pause(self):
        """Run program code without spans, e.g. to read results for a digest."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def first_call(self, ctx, key) -> bool:
        """True once per (context, key): the call a growing cache misses on."""
        seen = self._seen.get(ctx)
        if seen is None:
            seen = self._seen[ctx] = set()
        if key in seen:
            return False
        seen.add(key)
        return True

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook=None):
        nid = self._intern(name)
        tracer = self
        materialize = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            after = hook(tracer, args, kwargs) if hook else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
                if materialize:  # time the generator's work, not its creation
                    result = iter(list(result))
            finally:
                tracer._close(idx)
            if after:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"periodic_hall.{layer}") for layer in LAYERS}
        replaced = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, obj, HOOKS.get(name))
                    replaced[id(obj)] = (obj, wrapper)
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        # functions imported by name elsewhere are rebound in every module
        for mod in [importlib.import_module("periodic_hall"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_") or attr in _OPERATORS
            if attr == "__init__" and (layer, cls.__name__) in _CONSTRUCTORS:
                public = True
            if not public:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = HOOKS.get(name)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(name, raw.__func__, hook))
            elif inspect.isfunction(raw):
                new = self._wrap(name, raw, hook)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "check": np.frombuffer(self.span_check, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=n
        )
        own = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        selft = np.bincount(a["name"], weights=own, minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(selft[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def dump(self, path) -> None:
        """Spans as a compressed .npz: per span its name index (into `names`),
        start and end in seconds from the first span, parent span index (-1
        for a root) and check id (-1 outside a check)."""
        a = self.arrays()
        t0 = float(a["start"].min()) if len(a["start"]) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=a["name"],
            start=a["start"] - t0,
            end=a["end"] - t0,
            parent=a["parent"],
            check=a["check"],
        )


# -- counters read at layer boundaries ------------------------------------------
# A hook runs before the wrapped call and may return a callback that receives
# the call's result.


def _count_rref(tracer, args, kwargs):
    rows, cols = np.shape(args[0])
    tracer.counters["linalg.rref.cells"] += rows * cols


def _miss_counter(metric, key_of):
    def hook(tracer, args, kwargs):
        ctx = args[0]
        if tracer.first_call(ctx, key_of(args, kwargs)):
            tracer.counters[metric] += 1

    return hook


def _aut_count(tracer, args, kwargs):
    ctx, M = args[0], args[1]
    if not tracer.first_call(ctx, M.key):
        return None
    tracer.counters["repcat.aut_count.misses"] += 1
    tracer._last_hom_basis = None

    def after(result):
        # the brute force enumerates q^{dim End M} endomorphisms
        tracer.counters["repcat.endomorphisms"] += ctx.q ** tracer._last_hom_basis
        tracer.counters["repcat.automorphisms"] += result

    return after


def _hom_basis(tracer, args, kwargs):
    def after(result):
        tracer._last_hom_basis = len(result)

    return after


def _cone_counts(tracer, args, kwargs):
    counter = args[0]
    mode = args[1] if len(args) > 1 else kwargs["mode"]
    basis = counter.complement_rows if mode == "quotient" else counter.chain_basis
    tracer.counters["derived.cones"] += counter.q ** basis.shape[0]


def _fiber_key(args, kwargs):
    dctx, X, Y = args[:3]
    mode = args[3] if len(args) > 3 else kwargs.get("mode")
    return (X.entries, Y.entries, mode or dctx.count_mode)


HOOKS = {
    "linalg.rref": _count_rref,
    "repcat.RepContext.aut_count": _aut_count,
    "repcat.RepContext.hom_basis": _hom_basis,
    "repcat.RepContext.hom_dim": _miss_counter(
        "repcat.hom_dim.misses", lambda a, k: (a[1].key, a[2].key)
    ),
    "derived.ConeCounter.counts": _cone_counts,
    "derived.DerivedContext.fiber_counts": _miss_counter(
        "derived.fiber_counts.misses", _fiber_key
    ),
    "periodic.PeriodicAlgebra.basis_product": _miss_counter(
        "periodic.basis_product.misses", lambda a, k: (a[1].classes, a[2].classes)
    ),
    "extended.ExtendedAlgebra.basis_product": _miss_counter(
        "extended.basis_product.misses", lambda a, k: (a[1], a[2])
    ),
}


# -- per-layer metrics ------------------------------------------------------------


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_table(tracer: Tracer) -> dict:
    """Per layer: self seconds, and calls entering it from another layer."""
    a = tracer.arrays()
    layer_ids = np.array([LAYERS.index(layer_of(n)) for n in tracer.names], dtype=np.int32)
    span_layer = layer_ids[a["name"]] if len(a["name"]) else np.zeros(0, dtype=np.int32)
    parent_layer = np.where(a["parent"] >= 0, span_layer[a["parent"]], -1)
    entries = np.bincount(span_layer[span_layer != parent_layer], minlength=len(LAYERS))
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, row in tracer.summary().items():
        self_s[layer_of(name)] += row["self_s"]
    return {
        layer: {"self_s": self_s[layer], "calls": int(entries[i])}
        for i, layer in enumerate(LAYERS)
    }


# per_layer metric -> the spans whose calls it counts
_CALLS = {
    "linalg.rref.calls": ("linalg.rref",),
    "linalg.is_invertible.calls": ("linalg.is_invertible",),
    "repcat.classify_rep.calls": ("repcat.RepContext.classify_rep",),
    "repcat.aut_count.calls": ("repcat.RepContext.aut_count",),
    "repcat.submodule_hall_number.calls": ("repcat.RepContext.submodule_hall_number",),
    "repcat.euler.calls": ("repcat.Quiver.euler",),
    "repcat.hom_dim.calls": ("repcat.RepContext.hom_dim",),
    "derived.fiber_counts.calls": ("derived.DerivedContext.fiber_counts",),
    "derived.graded.calls": ("derived.DerivedContext.graded",),
    "derived.resolution.calls": ("derived.DerivedContext.resolution",),
    "periodic.basis_product.calls": ("periodic.PeriodicAlgebra.basis_product",),
    "extended.basis_product.calls": ("extended.ExtendedAlgebra.basis_product",),
    "embed.phi_basis.calls": ("embed.Embedding.phi_basis",),
}
# per_layer metric -> the spans whose inclusive seconds it sums
_SECONDS = {
    "repcat.iso_classes.s": (
        "repcat.RepContext.iso_classes_upto",
        "repcat.RepContext.iso_classes_with_dims",
    ),
    "repcat.aut_count.s": ("repcat.RepContext.aut_count",),
    "repcat.submodule_hall_number.s": ("repcat.RepContext.submodule_hall_number",),
    "derived.cone_setup.s": ("derived.ConeCounter.__init__",),
    "derived.cone_count.s": ("derived.ConeCounter.counts",),
}
# per_layer metrics read straight from the hooks' counters
_COUNTERS = (
    "repcat.aut_count.misses",
    "repcat.endomorphisms",
    "repcat.hom_dim.misses",
    "derived.cones",
    "derived.fiber_counts.misses",
    "periodic.basis_product.misses",
    "extended.basis_product.misses",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """The benchmark's per_layer metrics, as {name: (value, unit)}."""
    spans = tracer.summary()
    layers = layer_table(tracer)
    c = tracer.counters

    def total(names, key):
        return sum(spans.get(n, {}).get(key, 0) for n in names)

    out = {f"{layer}.self_s": (layers[layer]["self_s"], "s") for layer in LAYERS}
    out["linalg.calls"] = (layers["linalg"]["calls"], "count")
    out["scalar.ops"] = (
        sum(row["calls"] for n, row in spans.items() if layer_of(n) == "scalar"),
        "count",
    )
    out.update({m: (total(names, "calls"), "count") for m, names in _CALLS.items()})
    out.update({m: (total(names, "s"), "s") for m, names in _SECONDS.items()})
    out.update({m: (c[m], "count") for m in _COUNTERS})
    fiber_calls = out["derived.fiber_counts.calls"][0]
    out.update(
        {
            "linalg.rref.mean_cells": (
                _ratio(c["linalg.rref.cells"], out["linalg.rref.calls"][0]), "cells"
            ),
            "repcat.aut_yield": (
                _ratio(c["repcat.automorphisms"], c["repcat.endomorphisms"]), "ratio"
            ),
            "derived.cones_per_s": (
                _ratio(c["derived.cones"], out["derived.cone_count.s"][0]), "1/s"
            ),
            "derived.fiber_counts.hit_ratio": (
                1.0 - _ratio(c["derived.fiber_counts.misses"], fiber_calls)
                if fiber_calls
                else 0.0,
                "ratio",
            ),
            "trace.spans": (len(tracer.span_start), "count"),
            "trace.cold_s": (traced_s, "s"),
            "trace.untraced_cold_s": (untraced_s, "s"),
            "trace.overhead": (_ratio(traced_s, untraced_s), "ratio"),
            "trace.self_share": (
                _ratio(sum(v["self_s"] for v in layers.values()), traced_s), "ratio"
            ),
        }
    )
    return out


def write_layer_table(tracer: Tracer, traced_s: float, path) -> None:
    """Self time per layer and per span name, largest first."""
    layers = layer_table(tracer)
    spans = tracer.summary()
    lines = [f"traced cold pass: {traced_s:.4f} s, {len(tracer.span_start)} spans", ""]
    lines.append(f"{'layer':<10}{'self_s':>12}{'share':>9}{'entries':>12}")
    for layer, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / traced_s if traced_s else 0.0
        lines.append(f"{layer:<10}{row['self_s']:>12.4f}{share:>9.1%}{row['calls']:>12}")
    lines.append("")
    lines.append(f"{'span':<52}{'calls':>10}{'s':>12}{'self_s':>12}")
    for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:<52}{row['calls']:>10}{row['s']:>12.4f}{row['self_s']:>12.4f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
