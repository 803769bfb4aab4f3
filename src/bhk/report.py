"""Verification suites and machine-readable reports.

Each suite runs a family of numeric identity checks and emits one row per
check:

    {check, inputs, computed, expected, abs_err, rel_err, pass, tol, scale}

rel_err is abs_err / max(|expected|, 1e-300); the pass decision uses
abs_err <= tol * scale with scale defaulting to |expected| and set to the
natural magnitude of the quantity for identities whose exact value is 0
(otherwise a zero right-hand side would demand absolute perfection); tol = 0
demands abs_err == 0 (yes/no requirements such as convergence).  Only
`_info_row` rows, which check nothing, skip this rule.  Rows may carry extra
keys (gamma, R, lhs, rhs, point, k, ...) for specific checks.

Reports serialize deterministically (sorted keys, repr-exact floats, no
timestamps), so consecutive runs with one config are byte-identical.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from . import corpus
from .grids import (
    GammaIndex,
    GridInterpolator,
    as_gamma,
    build_sphere_rule,
    build_tensor_grid,
    hemisphere_measure,
    integrate,
)
from .meanvalue import (
    mean_value_check,
    pizzetti_coeffs,
    pizzetti_mean,
    sphere_mean,
    shifted_mean_value_check,
    v_sequence,
)
from .polys import EvenPoly, b_harmonic_basis, eval_poly
from .riesz import (
    build_riesz_kernel,
    lp_boundedness_probe,
    priori_bound_probe,
    riesz_spatial,
    riesz_spectral,
)
from .shift import ShiftTruncationWarning, build_shift_plan, shift, shift_grid, b_convolve
from .special import gamma as gamma_fn, normalized_j, poisson_representation
from .transform import (
    build_fb_plan,
    fb_forward,
    fb_forward_at,
    fb_inverse,
    gaussian_transform,
    harmonic_gaussian_transform,
    pv_kernel_transform,
    pv_regularized_limit,
    spectral_convolution_factor,
)

__all__ = ["RunConfig", "SUITES", "DEFAULT_TOLERANCES", "run_suite", "emit_grid", "REPORT_SCHEMA"]

_SEED = 0x5EED

DEFAULT_TOLERANCES: Dict[str, float] = {
    "special-gamma": 1e-13,
    "special-closed-form": 1e-12,
    "special-poisson": 1e-10,
    "special-ode": 1e-7,
    "sphere-measure": 1e-10,
    "shift-identity": 0.0,
    "shift-normalization": 1e-12,
    "shift-square": 1e-10,
    "shift-symmetry": 1e-10,
    "shift-preservation": 1e-8,
    "shift-product-formula": 1e-8,
    "fb-gaussian": 1e-6,
    "fb-roundtrip": 1e-6,
    "fb-scaling": 1e-6,
    "fb-convolution": 1e-4,
    "fb-eigenrelation": 1e-5,
    "harmonic-gaussian": 1e-5,
    "pv-lemma": 1e-4,
    "pv-homogeneity": 1e-12,
    "pv-worked-value": 1e-12,
    "mvt": 1e-8,
    "mvt-shifted": 1e-5,
    "pizzetti-exact": 1e-9,
    "pizzetti-ratio": 1e-13,
    "pizzetti-decay": 0.0,
    "v-boundary": 1e-8,
    "v-consistency": 1e-5,
    "v-moment": 1e-10,
    "riesz-mean-zero": 1e-10,
    "riesz-multiplier": 1e-2,
    "riesz-converged": 0.0,
    "riesz-spectral-value": 1e-6,
    "riesz-homogeneity": 1e-12,
    "riesz-constant": 0.0,
    "estimates-dilation": 0.1,
    "estimates-p2-margin": 1e-6,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed verification configuration (single JSON file, no env vars)."""

    n: int = 2
    gamma: tuple = (0.5, 1.5)
    x_max: float = 8.0
    points: int = 96
    angles: int = 48
    sphere_points: int = 96
    eps_seq: tuple = (0.4, 0.2, 0.1, 0.05)
    tolerances: tuple = ()
    output: str = "report.json"

    def __post_init__(self):
        if self.n != len(self.gamma):
            raise ValueError(f"n = {self.n} but gamma has {len(self.gamma)} entries")
        as_gamma(self.gamma)  # validates positivity
        if self.x_max <= 0 or self.points < 8 or self.angles < 4 or self.sphere_points < 4:
            raise ValueError("grid/angle sizes out of range")
        if any(t <= 0 for _, t in self.tolerances):
            raise ValueError("tolerances must be positive")

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        known = {"n", "gamma", "grid", "angles", "sphere_points", "eps_seq",
                 "tolerances", "output"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        grid = obj.get("grid", {})
        return cls(
            n=int(obj.get("n", 2)),
            gamma=tuple(float(v) for v in obj.get("gamma", (0.5, 1.5))),
            x_max=float(grid.get("x_max", 8.0)),
            points=int(grid.get("points", 96)),
            angles=int(obj.get("angles", 48)),
            sphere_points=int(obj.get("sphere_points", 96)),
            eps_seq=tuple(float(e) for e in obj.get("eps_seq", (0.4, 0.2, 0.1, 0.05))),
            tolerances=tuple(sorted(
                (str(k), float(v)) for k, v in obj.get("tolerances", {}).items()
            )),
            output=str(obj.get("output", "report.json")),
        )

    @classmethod
    def from_json(cls, path) -> "RunConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def tol(self, check: str) -> float:
        for k, v in self.tolerances:
            if k == check:
                return v
        return DEFAULT_TOLERANCES[check]

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "gamma": list(self.gamma),
            "grid": {"x_max": self.x_max, "points": self.points},
            "angles": self.angles,
            "sphere_points": self.sphere_points,
            "eps_seq": list(self.eps_seq),
            "tolerances": {k: v for k, v in self.tolerances},
            "output": self.output,
        }


def _row(cfg: RunConfig, check: str, computed: float, expected: float,
         scale: Optional[float] = None, inputs: Optional[dict] = None,
         **extra) -> dict:
    tol = cfg.tol(check)
    abs_err = abs(computed - expected)
    scale = abs(expected) if scale is None else max(abs(scale), abs(expected))
    ok = abs_err <= tol * scale if tol > 0 else abs_err == 0.0
    out = {
        "check": check,
        "inputs": inputs or {},
        "computed": float(computed),
        "expected": float(expected),
        "abs_err": float(abs_err),
        "rel_err": float(abs_err / max(abs(expected), 1e-300)),
        "scale": float(scale),
        "tol": float(tol),
        "pass": bool(ok),
    }
    out.update(extra)
    return out


def _info_row(check: str, inputs: dict, **extra) -> dict:
    out = {
        "check": check,
        "inputs": inputs,
        "computed": extra.pop("computed", 0.0),
        "expected": extra.pop("expected", 0.0),
        "abs_err": 0.0,
        "rel_err": 0.0,
        "scale": 1.0,
        "tol": 0.0,
        "pass": True,
    }
    out.update(extra)
    return out


def _gauss(p):
    return np.exp(-np.sum(p * p, axis=-1))


def _first_basis(g: GammaIndex, k: int) -> EvenPoly:
    return b_harmonic_basis(g.n, k, g)[0]


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_special(cfg: RunConfig) -> List[dict]:
    rows = []
    rows.append(_row(cfg, "special-gamma", gamma_fn(1.0), 1.0))
    rows.append(_row(cfg, "special-gamma", gamma_fn(0.5), math.sqrt(math.pi)))
    rows.append(_row(cfg, "special-gamma", gamma_fn(1.5), 0.5 * math.sqrt(math.pi)))
    r = np.linspace(0.0, 50.0, 1000)
    sinc = np.where(r > 0, np.sin(r) / np.where(r > 0, r, 1.0), 1.0)
    rows.append(_row(cfg, "special-closed-form",
                     float(np.max(np.abs(normalized_j(0.5, r) - sinc))), 0.0,
                     scale=1.0, inputs={"nu": 0.5, "points": 1000}))
    rows.append(_row(cfg, "special-closed-form",
                     float(np.max(np.abs(normalized_j(-0.5, r) - np.cos(r)))), 0.0,
                     scale=1.0, inputs={"nu": -0.5, "points": 1000}))
    for g_ax in (0.5, 1.0, 2.5):
        rr = np.linspace(0.0, 20.0, 81)
        diff = max(
            abs(poisson_representation(g_ax, float(t), 64) - normalized_j(g_ax - 0.5, float(t)))
            for t in rr
        )
        rows.append(_row(cfg, "special-poisson", diff, 0.0, scale=1.0,
                         inputs={"gamma_axis": g_ax, "quad_points": 64}))
    h = 1e-4
    for g_ax in (0.5, 1.5, 3.0):
        nu = g_ax - 0.5
        rr = np.linspace(0.5, 20.0, 391)
        u0 = normalized_j(nu, rr)
        up = normalized_j(nu, rr + h)
        um = normalized_j(nu, rr - h)
        res = np.abs((up - 2 * u0 + um) / h**2 + (2 * g_ax / rr) * (up - um) / (2 * h) + u0)
        rows.append(_row(cfg, "special-ode", float(np.max(res)), 0.0, scale=1.0,
                         inputs={"gamma_axis": g_ax, "h": h}))
    for nu in (-0.5, 0.0, 2.3):
        rows.append(_row(cfg, "special-closed-form", normalized_j(nu, 0.0), 1.0,
                         inputs={"nu": nu, "at": 0.0}))
    return rows


def suite_shift(cfg: RunConfig) -> List[dict]:
    rows = []
    g = as_gamma(cfg.gamma)
    plan = build_shift_plan(g, cfg.angles)
    rng = np.random.default_rng(_SEED)
    x0 = rng.uniform(0.3, 2.0, g.n)
    rows.append(_row(cfg, "shift-identity",
                     shift(plan, _gauss, x0, np.zeros(g.n)) - float(_gauss(x0[None, :])[0]),
                     0.0, scale=1.0, inputs={"x": list(x0)}))
    one = lambda p: np.ones(p.shape[:-1])
    worst = max(
        abs(shift(plan, one, rng.uniform(0.1, 3.0, g.n), rng.uniform(0.1, 3.0, g.n),
                  adaptive=False) - 1.0)
        for _ in range(20)
    )
    rows.append(_row(cfg, "shift-normalization", worst, 0.0, scale=1.0))
    plan1 = build_shift_plan((g[0],), cfg.angles)
    sq = lambda p: p[..., 0] ** 2
    worst = 0.0
    for _ in range(25):
        x, y = rng.uniform(0.1, 3.0, 2)
        got = shift(plan1, sq, [x], [y])
        worst = max(worst, abs(got - (x * x + y * y)) / (x * x + y * y))
    rows.append(_row(cfg, "shift-square", worst, 0.0, scale=1.0,
                     inputs={"gamma_axis": g[0], "pairs": 25}))
    xa, ya = rng.uniform(0.2, 2.0, g.n), rng.uniform(0.2, 2.0, g.n)
    rows.append(_row(cfg, "shift-symmetry",
                     shift(plan, _gauss, xa, ya) - shift(plan, _gauss, ya, xa),
                     0.0, scale=1.0))
    grid = build_tensor_grid(g, cfg.x_max, cfg.points)
    f = grid.sample(_gauss)
    y_shift = np.full(g.n, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftTruncationWarning)
        sf = shift_grid(plan, f, y_shift)
    rows.append(_row(cfg, "shift-preservation", integrate(sf), integrate(f),
                     inputs={"y": list(y_shift)}))
    t = rng.uniform(0.5, 2.0, g.n)
    x, y = rng.uniform(0.3, 1.8, g.n), rng.uniform(0.3, 1.8, g.n)

    def kern(p):
        out = np.ones(p.shape[:-1])
        for i in range(g.n):
            out = out * normalized_j(g[i] - 0.5, p[..., i] * t[i])
        return out

    lhs = shift(plan, kern, x, y)
    rhs = float(kern(x[None, :])[0]) * float(kern(y[None, :])[0])
    rows.append(_row(cfg, "shift-product-formula", lhs, rhs, scale=1.0,
                     inputs={"t": list(t), "x": list(x), "y": list(y)}))
    return rows


def _freq_probe_nodes(plan, count: int = 5, reach: float = 3.2):
    """Per-axis frequency nodes nearest to a spread of targets within reach."""
    targets = np.linspace(reach / count, reach, count)
    out = []
    for ax_nodes in plan.freq_grid.nodes:
        idx = sorted({int(np.argmin(np.abs(ax_nodes - t))) for t in targets})
        out.append(ax_nodes[idx])
    mesh = np.meshgrid(*out, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(out))


def suite_transform(cfg: RunConfig) -> List[dict]:
    rows = []
    g = as_gamma(cfg.gamma)
    grid = build_tensor_grid(g, cfg.x_max, cfg.points)
    plan = build_fb_plan(grid)
    probes = _freq_probe_nodes(plan)
    for a in (0.5, 1.0, 2.0):
        fa = grid.sample(lambda p: np.exp(-a * np.sum(p * p, axis=-1)))
        got = fb_forward_at(plan, fa, probes)
        ref = gaussian_transform(g, a, probes)
        rel = float(np.max(np.abs(got - ref) / np.abs(ref)))
        rows.append(_row(cfg, "fb-gaussian", rel, 0.0, scale=1.0,
                         inputs={"alpha": a, "probe_points": len(probes)}))
    f = grid.sample(_gauss)
    back = fb_inverse(plan, fb_forward(plan, f))
    rows.append(_row(cfg, "fb-roundtrip", float(np.max(np.abs(back.values - f.values))),
                     0.0, scale=1.0))
    # scaling identity: base Gaussian narrow enough that f(alpha x) stays
    # resolved by the truncated grid for both alpha values
    f_base = grid.sample(lambda p: np.exp(-2.0 * np.sum(p * p, axis=-1)))
    for a in (0.5, 2.0):
        fa = grid.sample(lambda p: np.exp(-2.0 * np.sum((a * p) ** 2, axis=-1)))
        lhs = fb_forward_at(plan, fa, probes)
        rhs = a ** (-g.n - 2.0 * g.abs) * fb_forward_at(plan, f_base, probes / a)
        rel = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
        rows.append(_row(cfg, "fb-scaling", rel, 0.0, scale=1.0, inputs={"alpha": a}))
    bf = grid.sample(
        lambda p: (4.0 * np.sum(p * p, axis=-1) - 2.0 * g.n - 4.0 * g.abs) * _gauss(p)
    )
    lhs = fb_forward_at(plan, bf, probes)
    rhs = -np.sum(probes * probes, axis=-1) * fb_forward_at(plan, f, probes)
    rows.append(_row(cfg, "fb-eigenrelation",
                     float(np.max(np.abs(lhs - rhs) / np.abs(rhs))), 0.0, scale=1.0))
    # Theorem 2.1 for the k=2 and k=4 kernels
    if g.n >= 2:
        for k in (2, 4):
            p_k = _first_basis(g, k)
            fk = grid.sample(lambda p: eval_poly(p_k, p) * _gauss(p))
            got = fb_forward_at(plan, fk, probes)
            ref = harmonic_gaussian_transform(p_k, g, probes)
            keep = np.abs(ref) > 1e-3 * np.max(np.abs(ref))
            rel = float(np.max(np.abs(got[keep] - ref[keep]) / np.abs(ref[keep])))
            rows.append(_row(cfg, "harmonic-gaussian", rel, 0.0, scale=1.0,
                             inputs={"k": k, "probe_points": int(np.sum(keep))}))
    # convolution theorem on a reduced grid (cost O(N^2 A^n)); 24 points on
    # (0, 5] still resolve the frequency reach the plan self-test needs
    conv_grid = build_tensor_grid(g, min(cfg.x_max, 5.0), min(cfg.points, 24))
    conv_plan = build_fb_plan(conv_grid)
    splan = build_shift_plan(g, min(cfg.angles, 24))
    fc = conv_grid.sample(_gauss)
    phi = lambda p: np.exp(-1.5 * np.sum(p * p, axis=-1))
    conv = b_convolve(splan, fc, phi)
    lhs = fb_forward(conv_plan, conv).values
    rhs = (spectral_convolution_factor(g)
           * fb_forward(conv_plan, fc).values
           * fb_forward(conv_plan, conv_grid.sample(phi)).values)
    rel = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    rows.append(_row(cfg, "fb-convolution", rel, 0.0, scale=1.0,
                     inputs={"points": conv_grid.shape[0],
                             "factor": spectral_convolution_factor(g)}))
    # Lemma 2.2 with a mean-zero angular part and a non-radial even phi
    if g.n >= 2:
        p2 = _first_basis(g, 2)
        rule = build_sphere_rule(g, cfg.sphere_points)
        phi_nr = lambda p: p[..., 0] ** 2 * _gauss(p)
        res = pv_regularized_limit(lambda th: eval_poly(p2, th), phi_nr, rule,
                                   cfg.eps_seq, r_max=cfg.x_max)
        scale = max(abs(res.lhs_limit), abs(res.rhs_limit), 1e-12)
        rows.append(_row(cfg, "pv-lemma", res.lhs_limit, res.rhs_limit, scale=scale,
                         lhs_values=list(res.lhs_values), rhs_values=list(res.rhs_values)))
        # principal-value kernel transform: degree-0 homogeneity + worked value
        y0 = np.array([1.0] + [0.5] * (g.n - 1))
        v1 = pv_kernel_transform(p2, g, y0)
        v2 = pv_kernel_transform(p2, g, 3.0 * y0)
        rows.append(_row(cfg, "pv-homogeneity", v1, v2, scale=max(abs(v1), 1e-12)))
        if tuple(g.values) == (0.5, 1.5):
            spec_poly = EvenPoly.from_terms(2, {(2, 0): 4.0, (0, 2): -2.0})
            rows.append(_row(cfg, "pv-worked-value",
                             pv_kernel_transform(spec_poly, g, [1.0, 0.0]),
                             -4.0 / 48.0))
    return rows


def suite_mean_value(cfg: RunConfig) -> List[dict]:
    rows = []
    for gam, expected in (((0.5, 0.5), 0.5), ((0.5, 1.5), 0.25),
                          ((1.0, 1.0), math.pi / 16.0)):
        rule = build_sphere_rule(gam, cfg.sphere_points)
        rows.append(_row(cfg, "sphere-measure", float(np.sum(rule.weights)), expected,
                         inputs={"gamma": list(gam)}))
    g = as_gamma(cfg.gamma)
    rule = build_sphere_rule(g, cfg.sphere_points)
    rows.append(_row(cfg, "sphere-measure", float(np.sum(rule.weights)),
                     hemisphere_measure(g), inputs={"gamma": list(g.values)}))
    candidates: List = [("constant", lambda p: np.ones(p.shape[:-1]))]
    if g.n >= 2:
        candidates.append(("b-harmonic-k2", _first_basis(g, 2)))
        candidates.append(("b-harmonic-k4", _first_basis(g, 4)))
    for label, u in candidates:
        for R in (0.7, 1.0, 1.6):
            row = mean_value_check(u, rule, R)
            rows.append(_row(cfg, "mvt", row["lhs"], row["rhs"], scale=row["scale"],
                             inputs={"u": label, "R": R},
                             gamma=row["gamma"], R=R, lhs=row["lhs"], rhs=row["rhs"],
                             residual=row["residual"], residual_ok=row["residual_ok"]))
    if g.n >= 2:
        plan = build_shift_plan(g, cfg.angles)
        p2 = _first_basis(g, 2)
        rng = np.random.default_rng(_SEED)
        for _ in range(5):
            y = rng.uniform(0.2, 1.5, g.n)
            row = shifted_mean_value_check(p2, rule, 1.0, plan, y)
            rows.append(_row(cfg, "mvt-shifted", row["lhs"], row["rhs"],
                             scale=row["scale"], inputs={"y": list(map(float, y))},
                             gamma=row["gamma"], R=1.0, lhs=row["lhs"], rhs=row["rhs"]))
    return rows


def suite_pizzetti(cfg: RunConfig) -> List[dict]:
    rows = []
    # normalized sphere mean of |x|^2 at R=1 equals 1 (exact series termination)
    for gam in dict.fromkeys([(0.5, 1.5), tuple(cfg.gamma)]):
        g = as_gamma(gam)
        rule = build_sphere_rule(g, cfg.sphere_points)
        r2 = EvenPoly.from_terms(g.n, {tuple(2 if j == i else 0 for j in range(g.n)): 1.0
                                       for i in range(g.n)})
        normalized = sphere_mean(r2, rule, 1.0) / hemisphere_measure(g)
        series = pizzetti_mean(r2, g, 1.0, 1)
        rows.append(_row(cfg, "pizzetti-exact", normalized, series,
                         inputs={"gamma": list(g.values), "u": "|x|^2", "R": 1.0}))
    for gam in ((0.5, 0.5), tuple(cfg.gamma), (1.0, 1.0)):
        g = as_gamma(gam)
        s = g.abs + 0.5 * g.n
        for R in (0.5, 1.0, 2.0):
            c = pizzetti_coeffs(g, R, 10).c
            worst = max(
                abs(c[e + 1] / c[e] - (0.5 * R) ** 2 / ((e + 1) * (e + s)))
                / ((0.5 * R) ** 2 / ((e + 1) * (e + s)))
                for e in range(10)
            )
            rows.append(_row(cfg, "pizzetti-ratio", worst, 0.0, scale=1.0,
                             inputs={"gamma": list(g.values), "R": R}))
    # remainder decay for the Gaussian
    g = as_gamma(cfg.gamma)
    rule = build_sphere_rule(g, cfg.sphere_points)
    nm = sphere_mean(_gauss, rule, 1.0) / hemisphere_measure(g)
    rem = [abs(nm - pizzetti_mean(_gauss, g, 1.0, m)) for m in (0, 1, 2)]
    rows.append(_row(cfg, "pizzetti-decay", 1.0 if rem[0] > rem[1] > rem[2] else 0.0,
                     1.0, inputs={"R": 1.0, "remainders": rem}))
    # v recursion: boundary conditions, FD consistency, moment identity
    q = g.n + 2.0 * g.abs - 2.0
    R = 1.0
    vs = v_sequence(g, R, 4)
    c = pizzetti_coeffs(g, R, 5).c
    for eta in (1, 2, 3):
        bnd = max(abs(vs[eta](R)), abs(vs[eta].derivative(R)))
        rows.append(_row(cfg, "v-boundary", bnd, 0.0, scale=1.0, inputs={"eta": eta}))
    h = 1e-3 * R
    r = np.linspace(0.2 * R, 0.9 * R, 15)
    for eta in (0, 1, 2):
        vp = vs[eta + 1]
        d2 = (-vp(r + 2 * h) + 16 * vp(r + h) - 30 * vp(r) + 16 * vp(r - h)
              - vp(r - 2 * h)) / (12 * h * h)
        d1 = (-vp(r + 2 * h) + 8 * vp(r + h) - 8 * vp(r - h) + vp(r - 2 * h)) / (12 * h)
        rel = float(np.max(np.abs(d2 + (q + 1.0) / r * d1 - vs[eta](r))
                           / np.abs(vs[eta](r))))
        rows.append(_row(cfg, "v-consistency", rel, 0.0, scale=1.0, inputs={"eta": eta}))
    for eta in range(4):
        rows.append(_row(cfg, "v-moment", vs[eta].mu_moment, c[eta + 1],
                         inputs={"eta": eta}))
    return rows


def suite_riesz(cfg: RunConfig) -> List[dict]:
    rows = []
    g = as_gamma(cfg.gamma)
    if g.n < 2:
        return [_info_row("riesz-skipped", {"reason": "no B-harmonic kernels for n=1"})]
    p2 = _first_basis(g, 2)
    kernel = build_riesz_kernel(p2, g)
    rule = build_sphere_rule(g, cfg.sphere_points)
    mean = float(np.dot(rule.weights, eval_poly(p2, rule.nodes)))
    scale = float(np.dot(rule.weights, np.abs(eval_poly(p2, rule.nodes))))
    rows.append(_row(cfg, "riesz-mean-zero", mean, 0.0, scale=scale))
    grid = build_tensor_grid(g, cfg.x_max, cfg.points)
    plan_f = build_fb_plan(grid)
    plan_s = build_shift_plan(g, cfg.angles)
    srule = build_sphere_rule(g, min(cfg.sphere_points, 64))
    f = grid.sample(_gauss)
    rf = riesz_spectral(kernel, f, plan_f)
    interp = GridInterpolator(rf, width=8)
    rng = np.random.default_rng(_SEED)
    converged = 0
    for _ in range(5):
        x = rng.uniform(0.5, 1.8, g.n)
        res = riesz_spatial(kernel, f, x, cfg.eps_seq, plan=plan_s, rule=srule)
        spec_val = float(interp(x[None, :])[0])
        rows.append(_row(cfg, "riesz-multiplier", res.limit, spec_val,
                         scale=max(abs(spec_val), 1e-3),
                         inputs={"point": [float(v) for v in x]},
                         k=kernel.degree, gamma=list(g.values),
                         point=[float(v) for v in x],
                         spatial=res.limit, spectral=spec_val,
                         converged=res.converged))
        converged += res.converged
    # numeric non-convergence of any eps ladder fails regardless of error
    rows.append(_row(cfg, "riesz-converged", converged / 5, 1.0,
                     inputs={"points": 5}))
    # spectral worked value: multiplier times transform at a fixed point
    xi = np.ones(g.n)
    mult_xi = ((-1.0) ** (kernel.degree // 2) * eval_poly(p2, xi)
               / float(np.sum(xi * xi)) ** (kernel.degree / 2))
    got = mult_xi * float(fb_forward_at(plan_f, f, xi))
    expected = mult_xi * gaussian_transform(g, 1.0, xi)
    rows.append(_row(cfg, "riesz-spectral-value", got, expected,
                     inputs={"xi": list(map(float, xi)),
                             "closed_form": expected}))
    # degree-0 homogeneity of the multiplier along rays
    ray = np.array([0.6, 1.3][: g.n] + [0.9] * max(0, g.n - 2))
    vals = [float(
        (-1.0) ** (kernel.degree // 2) * eval_poly(p2, t * ray)
        / float(np.sum((t * ray) ** 2)) ** (kernel.degree / 2))
        for t in (0.5, 1.0, 2.0, 7.5)]
    rows.append(_row(cfg, "riesz-homogeneity",
                     max(vals) - min(vals), 0.0, scale=max(abs(v) for v in vals)))
    rows.append(_info_row("riesz-constant",
                          {"printed_c_k": kernel.c_k_printed, "fitted_c_k": kernel.c_k,
                           "ratio": kernel.c_k / kernel.c_k_printed},
                          computed=kernel.c_k, expected=kernel.c_k))
    return rows


def suite_estimates(cfg: RunConfig) -> List[dict]:
    rows = []
    g = as_gamma(cfg.gamma)
    if g.n < 2:
        return [_info_row("estimates-skipped", {"reason": "probes need n >= 2"})]
    grid = build_tensor_grid(g, cfg.x_max, cfg.points)
    plan = build_fb_plan(grid)

    def member(s):
        fs = grid.sample(lambda p: np.exp(-s * np.sum(p * p, axis=-1)))
        bfs = grid.sample(
            lambda p: (4 * s * s * np.sum(p * p, axis=-1) - 2 * s * (g.n + 2 * g.abs))
            * np.exp(-s * np.sum(p * p, axis=-1))
        )
        return (f"gaussian-s{s}", fs, bfs)

    family = [member(s) for s in (0.5, 1.0, 2.0)]
    probe_rows = priori_bound_probe(plan, 2.0, family)
    by_check: Dict[str, List[float]] = {}
    for r in probe_rows:
        by_check.setdefault(r["check"], []).append(r["ratio"])
        rows.append(_info_row(r["check"], {"label": r["label"], "p": r["p"]},
                              computed=r["ratio"], expected=r["ratio"],
                              lhs=r["lhs"], rhs=r["rhs"]))
    for check, ratios in sorted(by_check.items()):
        spread = (max(ratios) - min(ratios)) / max(ratios)
        rows.append(_row(cfg, "estimates-dilation", spread, 0.0, scale=1.0,
                         inputs={"probe": check, "ratios": ratios}))
    kernel = build_riesz_kernel(_first_basis(g, 2), g)
    lp_rows = lp_boundedness_probe(kernel, (2.0, 4.0), [(l, f) for l, f, _ in family], plan)
    ratios_by_p: Dict[float, List[float]] = {}
    for r in lp_rows:
        ratios_by_p.setdefault(r["p"], []).append(r["ratio"])
        rows.append(_info_row(r["check"], {"label": r["label"], "p": r["p"]},
                              computed=r["ratio"], expected=r["ratio"],
                              max_multiplier=r["max_multiplier"]))
    for p, ratios in sorted(ratios_by_p.items()):
        spread = (max(ratios) - min(ratios)) / max(ratios)
        rows.append(_row(cfg, "estimates-dilation", spread, 0.0, scale=1.0,
                         inputs={"probe": "riesz-lp", "p": p, "ratios": ratios}))
    # at p = 2 the ratio may not exceed the multiplier's sup; only the excess
    # counts, against an absolute margin
    max_mult = lp_rows[0]["max_multiplier"]
    worst_p2 = max(r["ratio"] for r in lp_rows if r["p"] == 2.0)
    rows.append(_row(cfg, "estimates-p2-margin", max(worst_p2 - max_mult, 0.0), 0.0,
                     scale=1.0, inputs={"max_multiplier": max_mult, "worst_p2": worst_p2}))
    return rows


SUITES: Dict[str, Callable[[RunConfig], List[dict]]] = {
    "special": suite_special,
    "shift": suite_shift,
    "transform": suite_transform,
    "mean-value": suite_mean_value,
    "pizzetti": suite_pizzetti,
    "riesz": suite_riesz,
    "estimates": suite_estimates,
}


REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["config", "suite", "rows", "summary"],
    "properties": {
        "config": {"type": "object"},
        "suite": {"type": "string"},
        "rows": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["check", "inputs", "computed", "expected",
                             "abs_err", "rel_err", "pass"],
                "properties": {
                    "check": {"type": "string"},
                    "inputs": {"type": "object"},
                    "computed": {"type": "number"},
                    "expected": {"type": "number"},
                    "abs_err": {"type": "number", "minimum": 0},
                    "rel_err": {"type": "number", "minimum": 0},
                    "pass": {"type": "boolean"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["total", "passed", "failed"],
            "properties": {
                "total": {"type": "integer", "minimum": 0},
                "passed": {"type": "integer", "minimum": 0},
                "failed": {"type": "integer", "minimum": 0},
            },
        },
    },
}


def run_suite(config: RunConfig, suite: str) -> dict:
    """Execute one suite (or 'all') and return the report dictionary."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join([*SUITES, 'all'])}")
    rows = []
    for name in names:
        part = SUITES[name](config)
        for r in part:
            r["suite"] = name
        rows.extend(part)
    passed = sum(1 for r in rows if r["pass"])
    report = {
        "config": config.as_dict(),
        "suite": suite,
        "rows": rows,
        "summary": {"total": len(rows), "passed": passed,
                    "failed": len(rows) - passed},
    }
    try:
        import jsonschema

        jsonschema.validate(report, REPORT_SCHEMA)
    except ImportError:  # pragma: no cover
        pass
    return report


def write_report(report: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_grid(config: RunConfig, function_name: str, out_path, *,
              transform: bool = False) -> None:
    """Sample a registered corpus function on the config grid and write CSV.

    With transform=True a second file (same stem, `.transform.csv` suffix)
    carries the forward Fourier-Bessel transform on the frequency grid.
    """
    fn = corpus.corpus_function(function_name, config.gamma)
    grid = build_tensor_grid(config.gamma, config.x_max, config.points)
    f = grid.sample(fn)
    f.to_csv(out_path)
    if transform:
        plan = build_fb_plan(grid)
        g_hat = fb_forward(plan, f)
        stem = str(out_path)
        stem = stem[: -4] if stem.endswith(".csv") else stem
        g_hat.to_csv(stem + ".transform.csv")
