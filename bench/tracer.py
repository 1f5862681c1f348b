"""Per-layer call tracing for the benchmark, installed from outside the package.

A :class:`Tracer` replaces selected ``coxsort`` functions and methods by
timing wrappers and puts the originals back on :meth:`Tracer.uninstall`.
Module-level functions are replaced at *every* binding site: a name that
another module imported with ``from .hecke import bruhat_leq`` is a
separate reference, and a wrapper on ``coxsort.hecke`` alone would miss
calls made through it.

Hot calls are aggregated into counters (about 1.6 x 10^5 ``canonical_word``
calls per default verification), never stored as individual spans.  For
each counter:

* ``calls``: completed calls, raised ones included;
* ``self_s``: span time minus the time of directly nested traced calls;
* ``total_s``: span time of the outermost call of the counter, so a call
  nested in another call of the same counter is not counted twice;
* ``raised``: calls that ended in an exception;
* ``items`` / ``given``: counter-specific work counts, kept by the hooks below.

Every layer (package module) gets the same four figures, summed over its
traced callables, with ``total_s`` taken over the outermost call into the
layer.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections.abc import Sized

_WRAPPED = "__bench_traced__"
_HUGE_BUDGET = 1 << 62


class Counter:
    __slots__ = ("calls", "self_s", "total_s", "raised", "items", "given", "active")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.raised = 0
        self.items = 0
        self.given = 0
        self.active = 0


# -------------------------------------------------------------- hooks
# A hook pair (before, after): ``before(args, kwargs)`` returns
# ``(args, kwargs, token)`` and runs untimed before the call;
# ``after(counter, args, kwargs, result, token)`` runs untimed after it.

def _elements_before(args, kwargs):
    return args, kwargs, args[0]._all_elements is None


def _elements_after(counter, args, kwargs, result, cold):
    if cold:
        counter.items += len(result)


def _len_result(counter, args, kwargs, result, token):
    counter.items += len(result)


def _poset_cells(counter, args, kwargs, result, token):
    counter.items += len(args[0].ground) ** 2


def _complex_before(args, kwargs):
    if "facets" in kwargs:
        facets = kwargs["facets"]
        if not isinstance(facets, Sized):
            kwargs = dict(kwargs, facets=list(facets))
        return args, kwargs, len(kwargs["facets"])
    facets = args[2]
    if not isinstance(facets, Sized):
        facets = list(facets)
        args = args[:2] + (facets,) + args[3:]
    return args, kwargs, len(facets)


def _complex_after(counter, args, kwargs, result, given):
    counter.items += len(args[0].facets)
    counter.given += given


def _betti_faces(counter, args, kwargs, result, token):
    counter.items += args[0].num_faces(_HUGE_BUDGET)


def _subword_facets(counter, args, kwargs, result, token):
    counter.items += len(result.facets)


def _betti_counter_name(args, kwargs):
    field = args[1] if len(args) > 1 else kwargs.get("coefficient_field", 2)
    return {2: "homology.reduced_betti.gf2", 0: "homology.reduced_betti.q"}.get(
        field, "homology.reduced_betti.modp")


# Traced methods: (module, class, method, counter, hooks).
_METHODS = (
    ("coxeter", "CoxeterSystem", "canonical_word", "coxeter.canonical_word", None),
    ("coxeter", "CoxeterSystem", "elements", "coxeter.elements",
     (_elements_before, _elements_after)),
    ("coxeter", "CoxeterSystem", "reduced_words_of", "coxeter.reduced_words",
     (None, _len_result)),
    *(("coxeter", "Element", name, "coxeter.element_ops", None)
      for name in ("mult_right", "mult_left", "__mul__", "inverse", "is_right_descent",
                   "is_left_descent", "right_descents", "left_descents")),
    ("posets", "Poset", "__init__", "posets.Poset", (None, _poset_cells)),
    ("posets", "Poset", "covers", "posets.covers", None),
    ("homology", "SimplicialComplex", "__init__", "homology.SimplicialComplex",
     (_complex_before, _complex_after)),
)

# Public functions of these modules are traced, one counter each, except
# where _FUNCTION_COUNTERS groups or renames them.
_FUNCTION_MODULES = ("hecke", "posets", "subword", "homology", "fibermap", "totalpos",
                     "oracles", "verify")
_FUNCTION_COUNTERS = {
    ("posets", "bruhat_interval"): "posets.interval",
    ("posets", "weak_interval"): "posets.interval",
    ("posets", "sorting_order"): "posets.interval",
}
_FUNCTION_HOOKS = {
    ("subword", "subword_complex"): (None, _subword_facets),
    ("homology", "reduced_betti"): (None, _betti_faces),
}
_COUNTER_PICKERS = {("homology", "reduced_betti"): _betti_counter_name}
# Counters a picker may choose, created at install so that they read 0,
# not missing, on a workload that never calls them.
_PICKED_COUNTERS = {("homology", "reduced_betti"): ("homology.reduced_betti.gf2",
                                                    "homology.reduced_betti.q")}

# Work-count metrics: metric name -> counter whose ``items`` it reports.
_ITEM_METRICS = {
    "coxeter.elements.items": "coxeter.elements",
    "coxeter.reduced_words.items": "coxeter.reduced_words",
    "posets.Poset.cells": "posets.Poset",
    "subword.subword_complex.facets": "subword.subword_complex",
    "homology.reduced_betti.gf2.faces": "homology.reduced_betti.gf2",
    "homology.reduced_betti.q.faces": "homology.reduced_betti.q",
}

LAYERS = ("coxeter", "hecke", "posets", "subword", "homology", "fibermap", "totalpos",
          "oracles", "verify")


class Tracer:
    """Counters for every traced callable of one ``coxsort`` import."""

    def __init__(self):
        self.counters: dict[str, Counter] = {}
        self.layers = {name: Counter() for name in LAYERS}
        # child-time accumulators; the bottom entry belongs to the caller
        # outside every traced call
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    # ---------------------------------------------------------- wrappers

    def wrap(self, fn, name: str, layer: str, hooks=None, pick=None):
        """A traced stand-in for ``fn``; ``pick(args, kwargs)`` may choose
        the counter name per call."""
        counter = self.counter(name)
        lay = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter
        before, after = hooks or (None, None)

        def traced(*args, **kwargs):
            c = counter if pick is None else self.counter(pick(args, kwargs))
            token = None
            if before is not None:
                args, kwargs, token = before(args, kwargs)
            stack.append(0.0)
            c.active += 1
            lay.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                c.raised += 1
                lay.raised += 1
                raise
            finally:
                span = clock() - t0
                own = span - stack.pop()
                stack[-1] += span
                c.calls += 1
                c.self_s += own
                lay.calls += 1
                lay.self_s += own
                c.active -= 1
                lay.active -= 1
                if not c.active:
                    c.total_s += span
                if not lay.active:
                    lay.total_s += span
            if after is not None:
                after(c, args, kwargs, result, token)
            return result

        setattr(traced, _WRAPPED, True)
        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = _package_modules()
        for mod_name, cls_name, meth, name, hooks in _METHODS:
            cls = getattr(modules[f"coxsort.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._patch(cls, meth, self.wrap(original, name, mod_name, hooks))
        for mod_name in _FUNCTION_MODULES:
            module = modules[f"coxsort.{mod_name}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                key = (mod_name, attr)
                name = _FUNCTION_COUNTERS.get(key, f"{mod_name}.{attr}")
                for picked in _PICKED_COUNTERS.get(key, ()):
                    self.counter(picked)
                wrapper = self.wrap(fn, name, mod_name, _FUNCTION_HOOKS.get(key),
                                    _COUNTER_PICKERS.get(key))
                for site in modules.values():
                    for bound, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, bound, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        modules = _package_modules()
        leftover = [f"{site.__name__}.{attr}" for site in modules.values()
                    for attr, value in vars(site).items() if getattr(value, _WRAPPED, False)]
        leftover += [f"{cls}.{meth}" for mod, cls, meth, _, _ in _METHODS
                     if getattr(vars(getattr(modules[f"coxsort.{mod}"], cls))[meth],
                                _WRAPPED, False)]
        if leftover:
            raise RuntimeError(f"traced wrappers left installed: {leftover}")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---------------------------------------------------------- results

    def metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Every installed counter and layer figure under its dotted metric
        name, with seconds multiplied by ``scale``.  A counter that was
        never installed is missing, not 0."""
        out: dict[str, float] = {}
        for name, c in (*self.counters.items(), *self.layers.items()):
            out[f"{name}.calls"] = c.calls
            out[f"{name}.self_s"] = c.self_s * scale
            out[f"{name}.total_s"] = c.total_s * scale
            out[f"{name}.raised"] = c.raised
        for metric, name in _ITEM_METRICS.items():
            if name in self.counters:
                out[metric] = self.counters[name].items
        complexes = self.counters.get("homology.SimplicialComplex")
        if complexes is not None:
            out["homology.SimplicialComplex.kept_ratio"] = (
                complexes.items / complexes.given if complexes.given else 0.0)
        return out


def _package_modules() -> dict:
    return {name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "coxsort" or name.startswith("coxsort."))}
