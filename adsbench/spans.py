"""Outside-in span recorder for the traced run.

The recorder replaces public functions of `adsmax` with timing wrappers at
run time; nothing in `src/` knows about it.  A span is (name, parent, start,
end).  Self time is a span's duration minus the durations of its direct
children, so nested layers are not double counted.

A function bound under several names (``from .mesh import vertex_neighbors``
in `surface`, module-qualified ``MS.vertex_neighbors`` in `solver`) is
patched in every namespace that holds it.  `lorentz` kernels are not wrapped:
they are called too often for per-call timing to be cheap.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict

import numpy as np


class Recorder:
    """Keeps spans in memory; counters are filled by per-function hooks."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index, start, end]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._patches: list[tuple] = []

    def reset(self):
        self.spans.clear()
        self.counters.clear()

    def wrap(self, name, fn, on_return=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else -1, clock(), 0.0])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][3] = clock()
            if on_return is not None:
                on_return(self, args, out)
            return out

        return traced

    def patch(self, owner, attr, name, namespaces, on_return=None):
        """Wrap owner.attr and rebind the wrapper wherever the original
        function object is bound in `namespaces` (modules or classes)."""
        orig = getattr(owner, attr)
        wrapped = self.wrap(name, orig, on_return)
        for ns in {id(n): n for n in (owner, *namespaces)}.values():
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, wrapped)
                    self._patches.append((ns, key, orig))

    def patch_value(self, ns, attr, value):
        self._patches.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def restore(self):
        for ns, key, orig in reversed(self._patches):
            setattr(ns, key, orig)
        self._patches.clear()

    def aggregate(self):
        """Per name: calls, self seconds; plus calls keyed by (parent, child)."""
        n = len(self.spans)
        child = np.zeros(n)
        dur = np.empty(n)
        for i, (_, parent, t0, t1) in enumerate(self.spans):
            dur[i] = t1 - t0
            if parent >= 0:
                child[parent] += dur[i]
        calls = Counter()
        self_s = defaultdict(float)
        nested = Counter()
        for i, (name, parent, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
            if parent >= 0:
                nested[(self.spans[parent][0], name)] += 1
        return calls, self_s, nested


class _ModuleProxy(types.ModuleType):
    """Stands in for a module inside one namespace, overriding some names."""

    def __init__(self, module, **overrides):
        super().__init__(module.__name__)
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _on_newton(rec, args, out):
    rec.counters["solver.newton_solve.iterations"] += int(out[1]["iterations"])


def _on_hull_heights(rec, args, out):
    hull = args[0]
    if not hull.planar:
        t_lo, t_hi = out
        rec.counters["hull.hull_heights.collapsed"] += int(
            np.count_nonzero(t_hi - t_lo <= 0.0))


def _on_convex_hull(rec, args, out):
    if out.planar and not out.curve.is_planar():
        rec.counters["hull.convex_hull.planar_fallback"] += 1


def install(rec: Recorder, extra_namespaces=()):
    """Patch every traced layer function; `extra_namespaces` are the
    benchmark's own modules, which may hold references too."""
    from adsmax import boundary as BD
    from adsmax import hull as HU
    from adsmax import mesh as MS
    from adsmax import solver as SV
    from adsmax import surface as SF

    spaces = (BD, HU, MS, SF, SV, *extra_namespaces)
    targets = [
        (BD, "lift_graph", "boundary.lift_graph", None),
        (BD.BoundaryCurve, "resample", "boundary.resample", None),
        (HU, "convex_hull", "hull.convex_hull", _on_convex_hull),
        (HU, "width", "hull.width", None),
        (HU, "hull_heights", "hull.hull_heights", _on_hull_heights),
        (HU, "graph_margins", "hull.graph_margins", None),
        (MS, "make_mesh", "mesh.make_mesh", None),
        (MS, "vertex_neighbors", "mesh.vertex_neighbors", None),
        (MS, "interpolate_polar", "mesh.interpolate_polar", None),
        (SF, "residual", "surface.residual", None),
        (SF, "tangent_stiffness", "surface.tangent_stiffness", None),
        (SF, "graph_area", "surface.graph_area", None),
        (SF, "triangle_margins", "surface.triangle_margins", None),
        (SF, "fit_derivatives", "surface.fit_derivatives", None),
        (SF, "shape_data", "surface.shape_data", None),
        (SF, "chi_residual", "surface.chi_residual", None),
        (SV, "solve_maximal", "solver.solve_maximal", None),
        (SV, "slope_limit", "solver.slope_limit", None),
        (SV, "newton_solve", "solver.newton_solve", _on_newton),
        (SV, "initial_graph", "solver.initial_graph", None),
        (SV, "warm_start", "solver.warm_start", None),
        (SV, "flow_step", "solver.flow_step", None),
    ]
    for owner, attr, name, hook in targets:
        rec.patch(owner, attr, name, spaces, hook)
    splu = rec.wrap("solver.splu", SV.spla.splu)
    rec.patch_value(SV, "spla", _ModuleProxy(SV.spla, splu=splu))


def layer_metrics(rec: Recorder, pass_walls, setup_self_s: dict):
    """Per-layer metrics as {name: (value, unit)}, per pass.  Set-up spans
    were recorded separately; their self times are `setup_self_s`."""
    calls, self_s, nested = rec.aggregate()
    per = 1.0 / len(pass_walls)

    def c(name):
        return calls[name] * per

    def s(name):
        return self_s[name] * per

    return {
        "hull.hull_heights.calls": (c("hull.hull_heights"), "count"),
        "hull.hull_heights.self_s": (s("hull.hull_heights"), "s"),
        "hull.hull_heights.collapsed": (
            rec.counters["hull.hull_heights.collapsed"] * per, "count"),
        "hull.width.self_s": (s("hull.width"), "s"),
        "hull.convex_hull.self_s": (s("hull.convex_hull"), "s"),
        "hull.convex_hull.planar_fallback": (
            rec.counters["hull.convex_hull.planar_fallback"] * per, "count"),
        "hull.graph_margins.calls": (c("hull.graph_margins"), "count"),
        "hull.graph_margins.self_s": (s("hull.graph_margins"), "s"),
        "solver.slope_limit.self_s": (s("solver.slope_limit"), "s"),
        "solver.slope_limit.rounds": (
            nested[("solver.slope_limit", "surface.triangle_margins")] * per,
            "count"),
        "solver.newton_solve.self_s": (s("solver.newton_solve"), "s"),
        "solver.newton_solve.iterations": (
            rec.counters["solver.newton_solve.iterations"] * per, "count"),
        "solver.newton_solve.line_search_trials": (
            nested[("solver.newton_solve", "surface.triangle_margins")] * per,
            "count"),
        "solver.splu.calls": (c("solver.splu"), "count"),
        "solver.splu.self_s": (s("solver.splu"), "s"),
        "solver.initial_graph.self_s": (s("solver.initial_graph"), "s"),
        "solver.warm_start.self_s": (s("solver.warm_start"), "s"),
        "solver.flow_step.calls": (c("solver.flow_step"), "count"),
        "surface.residual.self_s": (s("surface.residual"), "s"),
        "surface.tangent_stiffness.self_s": (
            s("surface.tangent_stiffness"), "s"),
        "surface.graph_area.self_s": (s("surface.graph_area"), "s"),
        "surface.triangle_margins.self_s": (
            s("surface.triangle_margins"), "s"),
        "surface.fit_derivatives.self_s": (s("surface.fit_derivatives"), "s"),
        "surface.shape_data.self_s": (s("surface.shape_data"), "s"),
        "surface.chi_residual.self_s": (s("surface.chi_residual"), "s"),
        "mesh.vertex_neighbors.calls": (c("mesh.vertex_neighbors"), "count"),
        "mesh.vertex_neighbors.self_s": (s("mesh.vertex_neighbors"), "s"),
        "mesh.make_mesh.self_s": (s("mesh.make_mesh"), "s"),
        "mesh.interpolate_polar.self_s": (s("mesh.interpolate_polar"), "s"),
        "boundary.lift_graph.self_s": (
            setup_self_s.get("boundary.lift_graph", 0.0), "s"),
        "boundary.resample.calls": (c("boundary.resample"), "count"),
        "trace.spans": (len(rec.spans) * per, "count"),
        "trace.overhead_frac": (
            len(rec.spans) * span_cost_s() / sum(pass_walls), "frac"),
    }


def span_cost_s(n=20000):
    """Measured cost of one wrapped call of a no-op, minus the bare call."""
    rec = Recorder()

    def noop():
        return None

    traced = rec.wrap("noop", noop)
    best = np.inf
    for _ in range(3):
        rec.reset()
        t0 = time.perf_counter()
        for _ in range(n):
            traced()
        t1 = time.perf_counter()
        for _ in range(n):
            noop()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / n)
    return max(best, 0.0)
