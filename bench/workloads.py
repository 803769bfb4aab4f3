"""Seeded inputs, operations and checks of the two in-process workloads.

Each workload builds its plans once (`__init__`, the set-up that `setup_s`
times), then runs a closed loop of operations on inputs drawn from the
benchmark seed.  `op(inputs)` returns one `Check` per verified identity.
Tolerances are the library's own pinned values from
`bhk.report.DEFAULT_TOLERANCES`, looked up by the name of the check they
pin there; no check here is looser than its counterpart in the report.

The library is called through its module attributes (`transform.fb_forward`
and so on) at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn, ive

grids = importlib.import_module("bhk.grids")
meanvalue = importlib.import_module("bhk.meanvalue")
polys = importlib.import_module("bhk.polys")
report = importlib.import_module("bhk.report")
riesz = importlib.import_module("bhk.riesz")
shift = importlib.import_module("bhk.shift")
transform = importlib.import_module("bhk.transform")

TOL = report.DEFAULT_TOLERANCES


@dataclass
class Check:
    """One verified identity: the layer it feeds and abs_err / (tol * scale)."""

    layer: str
    name: str
    ratio: float

    @property
    def ok(self) -> bool:
        return self.ratio <= 1.0


def _check(layer, name, abs_err, scale, tol_key):
    return Check(layer, name, float(abs_err) / (TOL[tol_key] * float(scale)))


def _stream_rng(seed: int, workload: str):
    return np.random.default_rng([seed, sum(map(ord, workload))])


class SpectralN3:
    """Fourier-Bessel pair and spectral Riesz transform at n = 3.

    Inputs are anisotropic Gaussians exp(-sum a_i x_i^2).  The widths stay
    in [0.5, 1]: 0.5 is the widest Gaussian the transform suite checks
    (wider ones feel the x_max = 8 truncation); above 1, the
    transform tail exp(-y^2 / 4a) reaches past the plan's frequency grid
    (|y| <= 10) and the documented 1e-6 round trip no longer applies.
    Probe frequencies stay within the reach 3.2 that the transform suite
    probes at n = 2.
    """

    name = "spectral-n3"
    gamma = (0.5, 1.0, 1.5)
    points = 48
    probes = 8
    layers = ("special.normalized_j", "grids.build_tensor_grid",
              "polys.b_harmonic_basis", "polys.apply_bessel",
              "transform.build_fb_plan", "transform.fb_forward",
              "transform.fb_inverse", "transform.fb_forward_at",
              "riesz.riesz_spectral")

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = grids.build_tensor_grid(self.gamma, 8.0, self.points)
        self.plan = transform.build_fb_plan(self.grid)
        p2 = polys.b_harmonic_basis(3, 2, self.gamma)[0]
        self.kernel = riesz.build_riesz_kernel(p2, self.gamma)
        # P_2 = sum_i c_i x_i^2 (the even degree-2 monomials are the squares)
        self.p2_coeffs = np.zeros(3)
        for alpha, c in p2.as_dict().items():
            self.p2_coeffs[alpha.index(2)] = c

    def inputs(self):
        rng = _stream_rng(self.seed, self.name)
        while True:
            yield {"a": rng.uniform(0.5, 1.0, 3),
                   "probes": rng.uniform(0.0, 3.2, (self.probes, 3))}

    def op(self, inp):
        a, probes, g = inp["a"], inp["probes"], np.asarray(self.gamma)
        pts = self.grid.points()
        gauss = np.exp(-np.sum(a * pts * pts, axis=-1))
        f = grids.GridFunction(self.grid, gauss)

        got = transform.fb_forward_at(self.plan, f, probes)
        ref = np.prod((2.0 * a) ** (-(g + 0.5)) * np.exp(-probes**2 / (4.0 * a)),
                      axis=-1)
        checks = [_check("transform", "fb-gaussian",
                         np.max(np.abs(got - ref) / np.abs(ref)), 1.0, "fb-gaussian")]

        back = transform.fb_inverse(self.plan, transform.fb_forward(self.plan, f))
        checks.append(_check("transform", "fb-roundtrip",
                             np.max(np.abs(back.values - gauss)), 1.0, "fb-roundtrip"))

        # B_i e^{-a_i x_i^2} = (4 a_i^2 x_i^2 - 2 a_i (1 + 2 g_i)) e^{-a_i x_i^2}; the
        # multiplier -P_2(xi)/|xi|^2 turns F[B f] = -|xi|^2 F f into P_2(xi) F f,
        # so R(B f) = -sum_i c_i B_i f with no principal value left to resolve.
        b_axes = (4.0 * a**2 * pts**2 - 2.0 * a * (1.0 + 2.0 * g)) * gauss[..., None]
        rf = riesz.riesz_spectral(self.kernel,
                                  grids.GridFunction(self.grid, b_axes.sum(axis=-1)),
                                  self.plan)
        expected = -(b_axes @ self.p2_coeffs)
        checks.append(_check("riesz", "riesz-spectral-value",
                             np.max(np.abs(rf.values - expected)),
                             np.max(np.abs(expected)), "riesz-spectral-value"))
        return checks


def _gauss_shift(gamma, a, x, y):
    """Closed form T^y e^{-a|.|^2}(x) = prod_i e^{-a(x_i^2+y_i^2)} i_{g_i-1/2}(2 a x_i y_i).

    i_nu(z) = Gamma(nu+1) (z/2)^{-nu} I_nu(z) is the normalized modified
    Bessel function (Poisson integral of e^{z cos t} against sin^{2g-1} t);
    scipy's exponentially scaled `ive` keeps the product finite.
    """
    out = 1.0
    for gi, xi, yi in zip(gamma, x, y):
        nu, z = gi - 0.5, 2.0 * a * xi * yi
        out *= (math.exp(-a * (xi - yi) ** 2) * gamma_fn(gi + 0.5)
                * (0.5 * z) ** (-nu) * ive(nu, z))
    return out


class ShiftPointwise:
    """Many small generalized shifts over a seeded pool of gamma vectors.

    The pool holds 8 gamma vectors at n = 2 and 8 at n = 3.  Each operation
    takes the next entry of each dimension (a seeded order that visits every
    entry once per round, so every run does the same mix of work and one
    operation's latency does not depend on its dimension) and, per entry,
    runs: T^y 1 = 1 and T^y of two Gaussians against their closed form, all
    with the adaptive angle rule; one `shift_grid` of a seeded sum of squares
    against T^y x_i^2 = x_i^2 + y_i^2; and one shifted mean-value check (64
    pointwise shifts).  n = 3 entries use 16 angles per axis so one of their
    shifts costs about what an n = 2 shift with 48 does.
    """

    name = "shift-pointwise"
    pool_per_dim = 8
    angles = {2: 48, 3: 16}
    sphere_points = {2: 64, 3: 8}   # 64 hemisphere nodes either way
    grid_points = 48
    x_max = 8.0
    layers = ("grids.build_tensor_grid", "grids.build_sphere_rule",
              "polys.b_harmonic_basis", "shift.build_shift_plan", "shift.shift",
              "shift.shift_grid", "grids.GridInterpolator.axis_stencil",
              "grids.GridInterpolator.dense_axis_matrix",
              "meanvalue.shifted_mean_value_check")

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.pool = {}
        for n in self.angles:
            self.pool[n] = []
            for _ in range(self.pool_per_dim):
                g = tuple(float(v) for v in rng.uniform(0.05, 5.0, n))
                self.pool[n].append({
                    "gamma": g,
                    "plan": shift.build_shift_plan(g, self.angles[n]),
                    "grid": grids.build_tensor_grid(g, self.x_max, self.grid_points),
                    "rule": grids.build_sphere_rule(g, self.sphere_points[n]),
                    "u": polys.b_harmonic_basis(n, 2, g)[0],
                })

    def inputs(self):
        rng = _stream_rng(self.seed, self.name)
        while True:
            orders = [rng.permutation(self.pool_per_dim) for _ in self.pool]
            for picks in zip(*orders):
                yield [self._draw(rng, n, int(e)) for n, e in zip(self.pool, picks)]

    @staticmethod
    def _draw(rng, n, entry):
        return {
            "n": n,
            "entry": entry,
            "xy_one": rng.uniform(0.1, 1.5, (2, n)),
            "gauss": [(float(rng.uniform(0.3, 1.0)), rng.uniform(0.1, 1.5, (2, n)))
                      for _ in range(2)],
            "grid_c": rng.uniform(0.5, 2.0, n),
            "grid_y": rng.uniform(0.2, 1.5, n),
            "mvt_R": float(rng.uniform(0.5, 1.5)),
            "mvt_y": rng.uniform(0.2, 1.5, n),
        }

    def op(self, inp):
        return [c for part in inp for c in self._entry_checks(part)]

    def _entry_checks(self, inp):
        entry = self.pool[inp["n"]][inp["entry"]]
        g, plan, grid = entry["gamma"], entry["plan"], entry["grid"]
        x, y = inp["xy_one"]
        t1 = shift.shift(plan, lambda p: np.ones(p.shape[:-1]), x, y)
        checks = [_check("shift", "shift-normalization", abs(t1 - 1.0), 1.0,
                         "shift-normalization")]
        for a, (x, y) in inp["gauss"]:
            got = shift.shift(plan, lambda p: np.exp(-a * np.sum(p * p, axis=-1)), x, y)
            checks.append(_check("shift", "shift-gaussian",
                                 abs(got - _gauss_shift(g, a, x, y)), 1.0,
                                 "shift-product-formula"))

        # The stencil interpolant reproduces even polynomials of low degree,
        # so T^y sum c_i x_i^2 = sum c_i (x_i^2 + y_i^2) holds at every node
        # whose law-of-cosines points stay within x_max (no clamping).
        c, y = inp["grid_c"], inp["grid_y"]
        pts = grid.points()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", shift.ShiftTruncationWarning)
            sf = shift.shift_grid(plan, grid.sample(lambda p: (p * p) @ c), y)
        inside = np.all(pts + y <= self.x_max, axis=-1)
        expected = (pts[inside] ** 2 + y**2) @ c
        checks.append(_check("shift", "shift-grid-square",
                             np.max(np.abs(sf.values[inside] - expected) / expected), 1.0,
                             "shift-square"))

        row = meanvalue.shifted_mean_value_check(entry["u"], entry["rule"], inp["mvt_R"],
                                                 plan, inp["mvt_y"])
        checks.append(_check("meanvalue", "mvt-shifted", row["abs_err"], row["scale"],
                             "mvt-shifted"))
        return checks


WORKLOADS = {w.name: w for w in (SpectralN3, ShiftPointwise)}
