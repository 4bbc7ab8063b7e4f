"""Spans and counters around reebcut's layers, recorded from outside.

``Tracer.install()`` replaces the public functions of each library module
with timing wrappers, at every module namespace that binds them (so
``reebcut.pseudorotations.return_map`` is wrapped as well as
``reebcut.flows.return_map``).  It also wraps the oracle methods of every
``Hamiltonian`` subclass, the ``DiscDiffeo`` flow methods and the scipy
bivariate-spline base class.  No file of the library changes.
``uninstall()`` puts every original object back.

A span is (name, parent, start, end).  Spans are kept in flat arrays in
memory and written out once, by ``dump``; ``summarize`` turns a dump into
per-name call counts, total and self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from array import array

import numpy as np

# Modules whose public functions are wrapped, each a layer of the report.
LAYER_MODULES = ("reports", "hamiltonians", "flows", "pseudorotations",
                 "binding", "invariants", "moser", "svgplots")
ORACLES = ("value", "grad", "hessian", "velocity", "velocity_jacobian")
DIFFEO_METHODS = ("__call__", "inverse", "jacobian", "inverse_jacobian")


def _n_points(xy):
    """Number of 2-vectors in a point or a batch of points."""
    shape = np.shape(xy)
    return math.prod(shape[:-1]) if shape else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._oracle_depth = 0

    # -- recording --------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n=1):
        self.counters[key] = self.counters.get(key, 0) + n

    def wrap(self, name, fn, hook=None):
        """Return ``fn`` wrapped in a span; ``hook(tracer, args, kwargs,
        result)`` updates counters after each call that returns."""
        nid = self._name_id(name)
        name_append, parent_append = self.name_of.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            name_append(nid)
            parent_append(stack[-1] if stack else -1)
            end_append(0.0)
            stack.append(idx)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def wrap_oracle(self, name, fn):
        """Span and count only top-level oracle calls: an oracle evaluated
        inside another oracle (``velocity`` calling ``grad``) is part of
        the outer call's work."""
        spanned = self.wrap(name, fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(obj, s, xy, *args, **kwargs):
            if tracer._oracle_depth:
                return fn(obj, s, xy, *args, **kwargs)
            tracer.count("hamiltonians.oracle_calls")
            tracer.count("hamiltonians.oracle_points", _n_points(xy))
            tracer._oracle_depth += 1
            try:
                return spanned(obj, s, xy, *args, **kwargs)
            finally:
                tracer._oracle_depth -= 1

        return wrapper

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        import sys

        from scipy.interpolate import _fitpack2

        mods = {m: importlib.import_module(f"reebcut.{m}") for m in LAYER_MODULES}
        hooks = _counter_hooks(mods["flows"])
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj,
                                                 hooks.get(f"{layer}.{attr}"))
        for modname, mod in list(sys.modules.items()):
            if modname == "reebcut" or modname.startswith("reebcut."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in wrapped:
                        self._patch(mod, attr, wrapped[id(obj)])

        for cls in _all_subclasses(mods["hamiltonians"].Hamiltonian):
            for attr in ORACLES:
                if inspect.isfunction(cls.__dict__.get(attr)):
                    self._patch(cls, attr, self.wrap_oracle(
                        f"hamiltonians.oracle.{cls.__name__}.{attr}",
                        cls.__dict__[attr]))

        diffeo = mods["pseudorotations"].DiscDiffeo
        for attr in DIFFEO_METHODS:
            self._patch(diffeo, attr, self.wrap(
                f"pseudorotations.DiscDiffeo.{attr}", diffeo.__dict__[attr],
                _count_conjugator_points))

        base = _fitpack2._BivariateSplineBase
        self._patch(base, "__call__",
                    self.wrap("splines.eval", base.__dict__["__call__"],
                              _count_spline_points))
        self._patch(base, "partial_derivative",
                    self.wrap("splines.partial_derivative",
                              base.__dict__["partial_derivative"]))
        rect = _fitpack2.RectBivariateSpline
        self._patch(rect, "__init__",
                    self.wrap("splines.fit", rect.__dict__["__init__"]))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def dump(self, path):
        """Write the spans, their names and the counters to one .npz file."""
        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 name_of=np.frombuffer(self.name_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 counters=np.array(json.dumps(self.counters)))


def load(path):
    """Read a ``Tracer.dump`` file back into plain arrays."""
    with np.load(path) as z:
        out = {k: z[k] for k in ("names", "name_of", "parent", "start", "end")}
        out["counters"] = json.loads(str(z["counters"]))
    return out


def _all_subclasses(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _rk4_steps(s0, s1, settings, flow_settings):
    """Step count of the fixed-step integrator (rounded up to even)."""
    settings = settings or flow_settings()
    if settings.integrator != "rk4":
        return 0
    n = max(1, int(math.ceil(abs(s1 - s0) / settings.step - 1e-12)))
    return n + (n % 2)


def _bound(fn, hook):
    """Adapt ``hook(tracer, arguments, result)`` to named arguments of ``fn``."""
    sig = inspect.signature(fn)

    def adapted(tr, args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        hook(tr, bound.arguments, result)

    return adapted


def _counter_hooks(flows):
    """Counters computed from the call arguments and results of flows."""
    settings = flows.FlowSettings

    def integrate(tr, a, result):
        tr.count("flows.point_steps", _n_points(a["p0"]) * _rk4_steps(
            a["s0"], a["s1"], a["settings"], settings))

    def return_map(tr, a, result):
        tr.count("flows.single_point_calls", int(_n_points(a["p"]) == 1))

    def linearized(tr, a, result):
        n = _n_points(a["p"])
        tr.count("flows.single_point_calls", int(n == 1))
        tr.count("flows.point_steps",
                 n * _rk4_steps(0.0, a["s1"], a["settings"], settings))

    def scan(tr, a, result):
        tr.count("flows.periodic_found", len(result))
        tr.count("flows.newton_converged", sum(r.converged for r in result))

    return {
        "flows.integrate_isotopy": _bound(flows.integrate_isotopy, integrate),
        "flows.return_map": _bound(flows.return_map, return_map),
        "flows.linearized_return": _bound(flows.linearized_return, linearized),
        "flows.periodic_point_scan": _bound(flows.periodic_point_scan, scan),
    }


def _count_conjugator_points(tr, args, kwargs, result):
    tr.count("pseudorotations.conjugator_points",
             _n_points(args[1] if len(args) > 1 else kwargs["pts"]))


def _count_spline_points(tr, args, kwargs, result):
    tr.count("splines.eval_points", int(np.size(result)))


def summarize(dump, root="reports.run"):
    """Per-name calls, total and self seconds, and the root's coverage.

    Self time is a span's duration minus the time its direct children
    cover; the children of one span never overlap because the library
    runs serially in these invocations.
    """
    name_of = dump["name_of"].astype(np.int64)
    parent = dump["parent"].astype(np.int64)
    dur = dump["end"] - dump["start"]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    self_s = dur - child
    n = len(dump["names"])
    calls = np.bincount(name_of, minlength=n)
    total = np.bincount(name_of, weights=dur, minlength=n)
    selfs = np.bincount(name_of, weights=self_s, minlength=n)
    spans = {
        str(name): {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(selfs[i])}
        for i, name in enumerate(dump["names"]) if calls[i]
    }
    is_root = np.isin(name_of, np.flatnonzero(dump["names"] == root))
    return {
        "spans": spans,
        "root_s": float(dur[is_root].sum()),
        "root_self_s": float(self_s[is_root].sum()),
        "n_spans": len(dur),
        "min_self_s": float(self_s.min()) if len(dur) else 0.0,
        "counters": dump["counters"],
    }
