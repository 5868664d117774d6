"""Span tracing of spinsurf's public functions from outside the package.

Each traced function is replaced, at every name a caller looks it up by (the
class attribute, or the module global in every spinsurf module that imported
it), with a wrapper that records a span (name, start, end, parent).  Spans stay
in memory and are written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute); "Class.attr" names a class attribute.
TARGETS = [
    ("cli.main", "spinsurf.cli", "main"),
    ("evolve.step", "spinsurf.evolve", "DsiiEvolver.step"),
    ("evolve.grid_norm_sq", "spinsurf.evolve", "grid_norm_sq"),
    ("evolve.write_trajectory", "spinsurf.evolve", "write_trajectory"),
    ("dsii.re_v_from_u", "spinsurf.dsii", "re_v_from_u"),
    ("dsii.field", "spinsurf.dsii", "ExactSolution.U_field"),
    ("dsii.field", "spinsurf.dsii", "ExactSolution.V_field"),
    ("dsii.l2_norm_sq", "spinsurf.dsii", "l2_norm_sq"),
    ("dsii.singular_times", "spinsurf.dsii", "singular_times"),
    ("exactpoly.eval", "spinsurf.exactpoly", "BiPoly.eval"),
    ("exactpoly.symbolic", "spinsurf.dsii", "catalog"),
    ("exactpoly.symbolic", "spinsurf.dsii", "exact_solution"),
    ("exactpoly.symbolic", "spinsurf.moutard", "moutard_exact"),
    ("grid.antiderivative", "spinsurf.grid", "antiderivative"),
    ("grid.wirtinger_derivative", "spinsurf.grid", "wirtinger_derivative"),
    ("grid.save_complexfield_csv", "spinsurf.grid", "save_complexfield_csv"),
    ("surface.integrate", "spinsurf.surface", "integrate_surface_r3"),
    ("surface.integrate", "spinsurf.surface", "integrate_surface_r4"),
    ("surface.gauss_map", "spinsurf.surface", "gauss_map"),
    ("surface.discrete_mean_curvature", "spinsurf.surface", "discrete_mean_curvature"),
    ("surface.invert_surface", "spinsurf.surface", "invert_surface"),
    # one public writer for both formats; the span is named by its fmt argument
    ("meshio.export_", "spinsurf.meshio", "export_mesh"),
    ("dirac.dirac_residual_norm", "spinsurf.dirac", "dirac_residual_norm"),
    ("dirac.mat2_matmul", "spinsurf.dirac", "Mat2Field.__matmul__"),
    ("dirac.mat2_inv", "spinsurf.dirac", "Mat2Field.inv"),
    ("moutard.build_S", "spinsurf.moutard", "build_S"),
    ("moutard.k_matrix", "spinsurf.moutard", "k_matrix"),
    ("moutard.from_background", "spinsurf.moutard", "MoutardTransform.from_background"),
    ("moutard.transform", "spinsurf.moutard", "MoutardTransform.transform"),
]

# Per-layer metrics: self time (ms) or call count for one set-up plus one round.
SELF_MS = ["cli.main", "evolve.grid_norm_sq", "evolve.write_trajectory",
           "dsii.re_v_from_u", "dsii.field", "dsii.l2_norm_sq", "dsii.singular_times",
           "exactpoly.eval", "exactpoly.symbolic", "grid.antiderivative",
           "grid.save_complexfield_csv", "surface.integrate", "surface.gauss_map",
           "surface.discrete_mean_curvature", "surface.invert_surface",
           "meshio.export_obj", "meshio.export_ply", "dirac.dirac_residual_norm",
           "dirac.mat2_matmul", "dirac.mat2_inv", "moutard.build_S",
           "moutard.k_matrix", "moutard.from_background", "moutard.transform"]
CALLS = ["evolve.step", "exactpoly.eval", "grid.antiderivative",
         "grid.wirtinger_derivative", "dirac.mat2_matmul", "moutard.build_S"]


def _export_name(args, kwargs):
    return "meshio.export_" + kwargs.get("fmt", args[2] if len(args) > 2 else "obj")


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans = []          # [name, start, end, parent index or -1]
        self._stack = []
        self.setup_end = None

    def wrap(self, name, fn):
        namer = _export_name if name == "meshio.export_" else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, 0.0, 0.0,
                    stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self):
        """Patch every target in the currently imported spinsurf modules."""
        mods = [m for n, m in list(sys.modules.items())
                if n == "spinsurf" or n.startswith("spinsurf.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(name, raw))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def mark_setup_end(self):
        self.setup_end = time.perf_counter()

    def metrics(self, rounds: int, run_s: float, scale) -> dict:
        """Per-layer figures for one set-up plus one round (round totals / rounds),
        each span's time multiplied by scale(its start)."""
        n = len(self.spans)
        child = np.zeros(n)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ms = defaultdict(float)
        calls = defaultdict(float)
        step_ms = []
        for i, (name, start, end, _) in enumerate(self.spans):
            w = 1.0 if start < self.setup_end else 1.0 / rounds
            s = (end - start - child[i]) * 1e3 * scale(start)
            self_ms[name] += w * s
            calls[name] += w
            if name == "evolve.step" and start >= self.setup_end:
                step_ms.append(s)
        out = {f"{k}_ms": (self_ms[k], "ms") for k in SELF_MS}
        out.update({f"{k}_calls": (calls[k], "count") for k in CALLS})
        step = np.asarray(step_ms) if step_ms else np.zeros(1)
        out["evolve.step_ms"] = (float(np.median(step)), "ms")
        out["evolve.step_p90_ms"] = (float(np.percentile(step, 90)), "ms")
        spans_per = sum(calls.values())
        out["trace.spans"] = (spans_per, "count")
        out["trace.overhead_ms"] = (spans_per * span_cost_s() * 1e3, "ms")
        out["trace.run_s"] = (run_s, "s")
        return {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(out.items())}

    def dump(self, path, **meta):
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.t0
        payload = dict(meta, setup_end=(self.setup_end or t0) - t0,
                       fields=["name", "start_s", "end_s", "parent"],
                       spans=[[s[0], s[1] - t0, s[2] - t0, s[3]] for s in self.spans])
        with open(path, "w") as fh:
            json.dump(payload, fh)


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    def noop():
        return None
    traced = Tracer().wrap("noop", noop)
    best = []
    for fn in (noop, traced):
        t = time.perf_counter()
        for _ in range(n):
            fn()
        best.append(time.perf_counter() - t)
    return max(best[1] - best[0], 0.0) / n
