"""Spans around the public functions of each bhk layer, recorded from outside.

The tracer wraps functions after import and leaves the library's source
untouched.  A function imported into other modules with `from ... import`
is bound there under its own name (or an alias), so patching only its
defining module would miss those calls; `install` therefore replaces every
binding of the original object in every loaded `bhk` module.  Methods are
wrapped on their class, and the verification suites through the
`bhk.report.SUITES` table that `run_suite` looks them up in.

Each span is `[name, start, end, parent, op]` with times from
`time.perf_counter`, `parent` the index of the enclosing span (-1 at top
level) and `op` the identifier of the benchmark operation it belongs to.
Spans stay in memory until `write` is called at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module, function) pairs wrapped wherever they are bound
FUNCTIONS = (
    ("special", "normalized_j"),
    ("grids", "build_tensor_grid"),
    ("grids", "build_sphere_rule"),
    ("polys", "b_harmonic_basis"),
    ("polys", "apply_bessel"),
    ("shift", "build_shift_plan"),
    ("shift", "shift"),
    ("shift", "shift_grid"),
    ("shift", "b_convolve"),
    ("transform", "build_fb_plan"),
    ("transform", "fb_forward"),
    ("transform", "fb_inverse"),
    ("transform", "fb_forward_at"),
    ("meanvalue", "shifted_mean_value_check"),
    ("meanvalue", "v_sequence"),
    ("riesz", "riesz_spatial"),
    ("riesz", "riesz_spectral"),
)
METHODS = (("grids", "GridInterpolator", ("axis_stencil", "dense_axis_matrix")),)
SUITE_NAMES = ("special", "shift", "transform", "mean-value", "pizzetti", "riesz",
               "estimates")
LAYERS = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + tuple(
    f"{m}.{c}.{meth}" for m, c, meths in METHODS for meth in meths)
SUITE_SPANS = tuple(f"report.suite.{s}" for s in SUITE_NAMES)
CALLS_REPORTED = ("special.normalized_j", "shift.shift", "shift.shift_grid",
                  "shift.build_shift_plan", "polys.b_harmonic_basis", "polys.apply_bessel")


def _normalized_j_counts(args, kwargs, result):
    r = args[1] if len(args) > 1 else kwargs["r"]
    return {"args": np.size(r)}


def _fb_forward_at_counts(args, kwargs, result):
    plan = args[0]
    pts = args[2] if len(args) > 2 else kwargs["points"]
    return {"points": np.size(pts) // plan.gamma.n}


def _b_convolve_counts(args, kwargs, result):
    # computed, not observed: N_x * N_y * prod_i A_i evaluations of phi
    plan, f = args[0], args[1]
    nodes = int(np.prod(f.grid.shape))
    return {"phi_evals": nodes * nodes * int(np.prod([len(c) for c in plan.cos_nodes]))}


def _axis_stencil_counts(args, kwargs, result):
    # same clamping rule as GridInterpolator.axis_stencil
    interp = args[0]
    z = np.asarray(args[2] if len(args) > 2 else kwargs["z"], dtype=float)
    return {"queries": z.size,
            "clipped": int(np.count_nonzero(z > interp.grid.x_max))}


def _riesz_spatial_counts(args, kwargs, result):
    return {"converged": int(bool(result.converged))}


COUNTERS = {
    "special.normalized_j": _normalized_j_counts,
    "transform.fb_forward_at": _fb_forward_at_counts,
    "shift.b_convolve": _b_convolve_counts,
    "grids.GridInterpolator.axis_stencil": _axis_stencil_counts,
    "riesz.riesz_spatial": _riesz_spatial_counts,
}
# spans whose peak traced allocation (tracemalloc) is recorded
ALLOC_TRACED = ("riesz.riesz_spatial",)


class Tracer:
    """Records spans and counters for the wrapped bhk functions."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.peak_alloc = defaultdict(float)
        self.op = "setup"
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        traced_alloc = name in ALLOC_TRACED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            if traced_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if traced_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peak_alloc[name] = max(self.peak_alloc[name], peak / 2**20)
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _patch(self, owner, key, value, setter):
        self._patches.append((owner, key, owner[key] if isinstance(owner, dict)
                              else getattr(owner, key), setter))
        setter(owner, key, value)

    def install(self):
        """Wrap every target; import bhk.report first so all modules are loaded."""
        report = importlib.import_module("bhk.report")
        modules = [m for name, m in list(sys.modules.items())
                   if name == "bhk" or name.startswith("bhk.")]
        for mod_name, fn_name in FUNCTIONS:
            original = getattr(importlib.import_module(f"bhk.{mod_name}"), fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper, setattr)
        for mod_name, cls_name, methods in METHODS:
            cls = getattr(importlib.import_module(f"bhk.{mod_name}"), cls_name)
            for meth in methods:
                wrapper = self._wrap(f"{mod_name}.{cls_name}.{meth}", vars(cls)[meth])
                self._patch(cls, meth, wrapper, setattr)
        for suite in SUITE_NAMES:
            wrapper = self._wrap(f"report.suite.{suite}", report.SUITES[suite])
            self._patch(report.SUITES, suite, wrapper, dict.__setitem__)

    def uninstall(self):
        while self._patches:
            owner, key, original, setter = self._patches.pop()
            setter(owner, key, original)

    def metrics(self):
        """Per-layer totals: calls, self time, counters and suite wall times.

        A span's self time is its duration minus that of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = defaultdict(int)
        wall = defaultdict(float)
        self_s = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, child_time):
            calls[name] += 1
            wall[name] += end - start
            self_s[name] += end - start - child
        out = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = self_s[name]
        for name in CALLS_REPORTED:
            out[f"{name}.calls"] = calls[name]
        out["special.normalized_j.args"] = self.counts["special.normalized_j.args"]
        out["transform.fb_forward_at.points"] = self.counts["transform.fb_forward_at.points"]
        out["shift.b_convolve.phi_evals"] = self.counts["shift.b_convolve.phi_evals"]
        queries = self.counts["grids.GridInterpolator.axis_stencil.queries"]
        out["grids.GridInterpolator.queries"] = queries
        out["grids.GridInterpolator.clip_frac"] = (
            self.counts["grids.GridInterpolator.axis_stencil.clipped"] / queries
            if queries else 0.0)
        out["riesz.riesz_spatial.peak_alloc_mb"] = self.peak_alloc["riesz.riesz_spatial"]
        spatial = calls["riesz.riesz_spatial"]
        out["riesz.riesz_spatial.converged_frac"] = (
            self.counts["riesz.riesz_spatial.converged"] / spatial if spatial else 0.0)
        for suite in SUITE_NAMES:
            out[f"report.suite.{suite}.wall_s"] = wall[f"report.suite.{suite}"]
        return out, sorted(calls)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
