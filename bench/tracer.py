"""Outside-in tracing of the ggdim layers.

The tracer wraps public functions of the package from outside: it replaces
every module-level binding of each traced function (the defining module and
every module that imported it by name) and every class attribute that holds
a traced method, so a call reaches the wrapper whichever name it went
through.  Nothing in the package is edited.

Two kinds of wrapper exist:

* span wrappers record one span per call (name, start, end, parent span and
  instance id) in flat in-memory arrays; self time is computed after the run
  as span duration minus the durations of its direct children;
* count wrappers only count calls, for functions too hot to time
  (RatFunc arithmetic, polynomial gcd).

Per-layer counters (orbit sizes, module dimensions, kernel system sizes)
are taken from arguments and results at the same boundaries.
"""

from __future__ import annotations

import importlib
import json
from array import array
from math import factorial
from time import perf_counter

import numpy as np

MODULES = ("cli", "cover", "hecke_affine", "hecke_finite", "coeff",
           "_intmat", "symgroup", "cocycle")

# (metric prefix, module, class or None, attribute): one span per call
SPAN_TARGETS = (
    ("cover.x_lambda", "cover", None, "x_lambda"),
    ("cover.orbits", "cover", None, "orbits"),
    ("cover.QuotientGroup.perm_matrix", "cover", "QuotientGroup", "perm_matrix"),
    ("cover.whittaker_dim_closed", "cover", None, "whittaker_dim_closed"),
    ("intmat.smith_normal_form", "_intmat", None, "smith_normal_form"),
    ("intmat.hermite_row_basis", "_intmat", None, "hermite_row_basis"),
    ("intmat.mat_mul", "_intmat", None, "mat_mul"),
    ("symgroup.all_permutations", "symgroup", None, "all_permutations"),
    ("symgroup.min_coset_reps", "symgroup", None, "min_coset_reps"),
    ("symgroup.parabolic_decompose", "symgroup", None, "parabolic_decompose"),
    ("hecke_finite.InducedSignModule", "hecke_finite", "InducedSignModule",
     "__init__"),
    ("hecke_finite.hom_to_sign_dim", "hecke_finite", None, "hom_to_sign_dim"),
    ("hecke_finite.action_matrix", "hecke_finite", None, "action_matrix"),
    ("hecke_finite.h0_multiply", "hecke_finite", None, "h0_multiply"),
    ("coeff.kernel_basis", "coeff", None, "kernel_basis"),
    ("hecke_affine.whittaker_dim_hecke", "hecke_affine", None,
     "whittaker_dim_hecke"),
    ("hecke_affine.gg_module", "hecke_affine", None, "gg_module"),
    ("hecke_affine.ah_multiply", "hecke_affine", None, "ah_multiply"),
    ("hecke_affine.bernstein_cross", "hecke_affine", None, "bernstein_cross"),
    ("cocycle.hilbert", "cocycle", None, "hilbert"),
    ("cocycle.sigma_cover_torus", "cocycle", None, "sigma_cover_torus"),
    ("cli.dim_report", "cli", None, "dim_report"),
    ("cli.main", "cli", None, "main"),
)

# (metric prefix, module, class or None, attribute): calls counted only
COUNT_TARGETS = (
    ("coeff.RatFunc.add", "coeff", "RatFunc", "__add__"),
    ("coeff.RatFunc.sub", "coeff", "RatFunc", "__sub__"),
    ("coeff.RatFunc.mul", "coeff", "RatFunc", "__mul__"),
    ("coeff.RatFunc.div", "coeff", "RatFunc", "__truediv__"),
    ("coeff.poly_gcd", "coeff", None, "poly_gcd"),
)

# counters beyond calls/self_s: name -> (unit, better)
COUNTERS = {
    "cover.orbits.elements": ("count", "lower"),
    "cover.orbits.perm_images": ("count", "lower"),
    "cover.orbits.records": ("count", "lower"),
    "cover.orbits.nonfree": ("count", "lower"),
    "cover.orbits.calls_per_instance": ("ratio", "lower"),
    "hecke_finite.InducedSignModule.distinct": ("count", "lower"),
    "hecke_finite.InducedSignModule.reuse_ratio": ("ratio", "higher"),
    "hecke_finite.hom_to_sign_dim.distinct": ("count", "lower"),
    "hecke_finite.module_dim.max": ("count", "lower"),
    "coeff.kernel_basis.cells": ("count", "lower"),
    "coeff.kernel_basis.rank": ("count", "lower"),
    "coeff.kernel_basis.max_cols": ("count", "lower"),
    "hecke_affine.whittaker_dim_hecke.total_s": ("s", "lower"),
}


def metric_specs() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for prefix, *_ in SPAN_TARGETS:
        out.append((prefix + ".calls", "count", "lower"))
        out.append((prefix + ".self_s", "s", "lower"))
    for prefix, *_ in COUNT_TARGETS:
        out.append((prefix + ".calls", "count", "lower"))
    out.extend((name, unit, better) for name, (unit, better) in COUNTERS.items())
    out.extend([
        ("trace.instances", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ])
    return out


class Tracer:
    """Span and counter store; install() patches the package, uninstall() undoes it."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_instance = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.instance = -1
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self._modules_built: set = set()
        self._hom_keys: set = set()
        self._patched: list = []     # (owner, attribute, original)
        self.bindings: dict[str, int] = {}

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name: str, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        s_name, s_parent, s_inst = self.span_name, self.span_parent, self.span_instance
        s_start, s_end, stack = self.span_start, self.span_end, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_inst.append(tracer.instance)
            s_end.append(0.0)
            stack.append(idx)
            s_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                s_end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn):
        calls = self.calls
        calls[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the boundaries -------------------------------------

    def _add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _after_orbits(self, args, kwargs, records) -> None:
        xg = args[0]
        self._add("cover.orbits.elements", xg.order)
        self._add("cover.orbits.perm_images", factorial(xg.k) * xg.order)
        self._add("cover.orbits.records", len(records))
        self._add("cover.orbits.nonfree",
                  sum(1 for rec in records if rec.stabilizer_order > 1))

    def _after_module(self, args, kwargs, _result) -> None:
        mod = args[0]
        self._modules_built.add((mod.k, mod.J))
        self._max("hecke_finite.module_dim.max", mod.dim)

    def _after_hom(self, args, kwargs, _result) -> None:
        mod = args[0]
        q0 = args[1] if len(args) > 1 else kwargs.get("q0")
        self._hom_keys.add((mod.k, mod.J, str(q0)))

    def _after_kernel(self, args, kwargs, basis) -> None:
        m = args[0]
        if hasattr(m, "ncols"):
            nrows, ncols = m.nrows, m.ncols
        else:
            nrows, ncols = len(m), (len(m[0]) if m else 0)
        self._add("coeff.kernel_basis.cells", nrows * ncols)
        self._add("coeff.kernel_basis.rank", ncols - len(basis))
        self._max("coeff.kernel_basis.max_cols", ncols)

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module("ggdim." + name) for name in MODULES}
        after = {"cover.orbits": self._after_orbits,
                 "hecke_finite.InducedSignModule": self._after_module,
                 "hecke_finite.hom_to_sign_dim": self._after_hom,
                 "coeff.kernel_basis": self._after_kernel}
        for prefix, modname, clsname, attr in SPAN_TARGETS:
            self._patch(mods, prefix, modname, clsname, attr,
                        lambda fn, p=prefix: self._span_wrapper(p, fn, after.get(p)))
        for prefix, modname, clsname, attr in COUNT_TARGETS:
            self._patch(mods, prefix, modname, clsname, attr,
                        lambda fn, p=prefix: self._count_wrapper(p, fn))

    def _patch(self, mods, prefix, modname, clsname, attr, make) -> None:
        owner = mods[modname] if clsname is None else getattr(mods[modname], clsname)
        original = vars(owner)[attr]
        wrapper = make(original)
        found = 0
        if clsname is None:
            owners = mods.values()
        else:
            owners = [owner]
        for holder in owners:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self._patched.append((holder, name, original))
                    found += 1
        self.bindings[prefix] = found

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._patched):
            setattr(holder, name, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Spans as one JSON document of parallel columns."""
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist(),
                       "parent": self.span_parent.tolist(),
                       "instance": self.span_instance.tolist()}, fh)

    def summary(self, instances: int) -> dict:
        """calls, self_s and counters per metric name (counts are exact)."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        nnames = len(self.names)
        calls = np.bincount(name, minlength=nnames)
        self_s = np.bincount(name, weights=self_time, minlength=nnames)
        total_s = np.bincount(name, weights=dur, minlength=nnames)
        out = {}
        for nid, prefix in enumerate(self.names):
            out[prefix + ".calls"] = int(calls[nid])
            out[prefix + ".self_s"] = float(self_s[nid])
        for prefix, count in self.calls.items():
            out[prefix + ".calls"] = count
        out.update(self.counters)
        builds = out["hecke_finite.InducedSignModule.calls"]
        out["hecke_finite.InducedSignModule.distinct"] = len(self._modules_built)
        out["hecke_finite.InducedSignModule.reuse_ratio"] = (
            len(self._modules_built) / builds if builds else 0.0)
        out["hecke_finite.hom_to_sign_dim.distinct"] = len(self._hom_keys)
        out["cover.orbits.calls_per_instance"] = (
            out["cover.orbits.calls"] / instances if instances else 0.0)
        hecke = self.names.index("hecke_affine.whittaker_dim_hecke")
        out["hecke_affine.whittaker_dim_hecke.total_s"] = float(total_s[hecke])
        for key in COUNTERS:
            out.setdefault(key, 0)
        out["trace.instances"] = instances
        out["trace.spans"] = int(len(name))
        return out
