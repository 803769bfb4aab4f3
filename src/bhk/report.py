"""Verification suites and machine-readable reports.

Each suite runs a family of numeric identity checks and emits one row per
check:

    {check, inputs, computed, expected, abs_err, rel_err, pass, tol, scale}

The pass decision uses abs_err <= tol * scale with scale defaulting to
|expected| and set to the natural magnitude of the quantity for identities
whose exact value is 0 (otherwise a zero right-hand side would demand
absolute perfection); tol = 0 demands abs_err == 0 (yes/no requirements such
as convergence).  rel_err is abs_err / max(scale, 1e-300), the error on the
same scale, so pass <=> rel_err <= tol.  Only
`_info_row` rows, which check nothing, and the failing `suite-error` row that
stands for a suite that raised (its inputs carry the exception type and
message) skip this rule.  Rows may carry extra keys (gamma, R, lhs, rhs,
point, k, ...) for specific checks.

The shift, mean-value and riesz suites check at seeded points: each suite
seeds its own standard-library `random.Random(_SEED)` and draws coordinates
through `_uniform`.  The generator's `random()` stream is the same on every
platform and Python version, and numpy.random, whose import alone adds about
6.5 MB to a report's peak RSS, is never loaded.

Reports serialize deterministically (sorted keys, repr-exact floats, no
timestamps), so consecutive runs with one config are byte-identical.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

import numpy as np

from . import corpus
from .grids import (
    GammaIndex,
    _point_array,
    as_gamma,
    build_sphere_rule,
    build_tensor_grid,
    hemisphere_measure,
    integrate,
)
from .meanvalue import (
    _eval_terms,
    _radial_bessel,
    mean_value_check,
    pizzetti_coeffs,
    pizzetti_mean,
    sphere_mean,
    shifted_mean_value_check,
    v_sequence,
)
from .polys import EvenPoly, _monomials, eval_poly
from .riesz import (
    _multiplier,
    build_riesz_kernel,
    lp_boundedness_probe,
    pv_kernel_transform,
    priori_bound_probe,
    riesz_spatial,
    riesz_spectral,
)
from .shift import ShiftTruncationWarning, build_shift_plan, shift, shift_grid, b_convolve
from .special import gamma as gamma_fn, normalized_j, poisson_representation
from .transform import (
    _check_eps_seq,
    build_fb_plan,
    fb_forward,
    fb_forward_at,
    gaussian_transform,
    harmonic_gaussian_transform,
    pv_regularized_limit,
    spectral_convolution_factor,
)

__all__ = ["RunConfig", "SUITES", "DEFAULT_TOLERANCES", "run_suite", "emit_grid", "REPORT_SCHEMA"]

_SEED = 0x5EED


def _uniform(rng: random.Random, lo: float, hi: float, size: int) -> np.ndarray:
    """size check-point coordinates lo + (hi - lo) * rng.random(), drawn in
    order from a suite's own random.Random(_SEED)."""
    return np.array([rng.uniform(lo, hi) for _ in range(size)])


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


def _whole(value, key: str) -> int:
    """A config size: an int, or a float with an integral value (96.0 reads
    as 96).  96.7, strings and booleans are refused rather than truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return int(value)


def _number(value, key: str) -> float:
    """A config number: an int or a float.  Strings and booleans are refused
    rather than converted ("15" would read as 15.0, true as 1.0)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _text(value, key: str) -> str:
    """A config string.  Anything else is refused rather than converted
    (true would name the report "True")."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


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
        if not 0 < self.x_max < math.inf:
            raise ValueError(f"grid x_max must be positive and finite, got {self.x_max}")
        if self.points < 8 or self.angles < 4 or self.sphere_points < 4:
            raise ValueError("grid/angle sizes out of range")
        _check_eps_seq(self.eps_seq, 1.0)  # pv-lemma's truncation radii
        unknown = sorted({k for k, _ in self.tolerances} - set(DEFAULT_TOLERANCES))
        if unknown:
            raise ValueError(f"tolerances name no check: {unknown}")
        if any(not t > 0 for _, t in self.tolerances):
            raise ValueError("tolerances must be positive")

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        known = {"n", "gamma", "grid", "angles", "sphere_points", "eps_seq",
                 "tolerances", "output"}
        if not isinstance(obj, dict):
            raise ValueError("config must be a JSON object")
        for key in ("grid", "tolerances"):
            if not isinstance(obj.get(key, {}), dict):
                raise ValueError(f"config {key!r} must be a JSON object")
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        grid = obj.get("grid", {})
        unknown = set(grid) - {"x_max", "points"}
        if unknown:
            raise ValueError(f"unknown grid keys: {sorted(unknown)}")
        d = cls()
        return cls(
            n=_whole(obj.get("n", d.n), "n"),
            gamma=tuple(_number(v, "gamma") for v in obj.get("gamma", d.gamma)),
            x_max=_number(grid.get("x_max", d.x_max), "x_max"),
            points=_whole(grid.get("points", d.points), "points"),
            angles=_whole(obj.get("angles", d.angles), "angles"),
            sphere_points=_whole(obj.get("sphere_points", d.sphere_points), "sphere_points"),
            eps_seq=tuple(_number(e, "eps_seq") for e in obj.get("eps_seq", d.eps_seq)),
            tolerances=tuple(sorted((str(k), _number(v, f"tolerance {k}"))
                                    for k, v in obj.get("tolerances", {}).items())),
            output=_text(obj.get("output", d.output), "output"),
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
        "rel_err": float(abs_err / max(scale, 1e-300)),
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


def _error_row(exc: Exception) -> dict:
    out = _info_row("suite-error", {"error": type(exc).__name__, "message": str(exc)})
    out["pass"] = False
    return out


_gauss = corpus._gaussian(1.0)


def _b_gauss(g: GammaIndex, s: float):
    """B e^{-s|x|^2} = (4 s^2 |x|^2 - 2 s (n + 2|g|)) e^{-s|x|^2}, as a callable."""
    def bf(p):
        r2 = np.sum(p * p, axis=-1)
        return (4 * s * s * r2 - 2 * s * (g.n + 2 * g.abs)) * np.exp(-s * r2)
    return bf


def _radius_power(n: int, k: int) -> EvenPoly:
    """|x|^{2k} = sum_{|beta| = k} k!/prod beta_i! x^{2 beta} as an EvenPoly."""
    return EvenPoly.from_terms(n, {
        a: math.factorial(k) // math.prod(math.factorial(ai // 2) for ai in a)
        for a in _monomials(n, 2 * k)})


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
    # the fixed orders, then each distinct config gamma_i not among them
    for g_ax in dict.fromkeys((0.5, 1.0, 2.5) + as_gamma(cfg.gamma).values):
        rr = np.linspace(0.0, 20.0, 81)
        diff = float(np.max(np.abs(
            poisson_representation(g_ax, rr, 64) - normalized_j(g_ax - 0.5, rr))))
        rows.append(_row(cfg, "special-poisson", diff, 0.0, scale=1.0,
                         inputs={"gamma_axis": g_ax, "quad_points": 64}))
    h = 1e-4
    for g_ax in dict.fromkeys((0.5, 1.5, 3.0) + as_gamma(cfg.gamma).values):
        nu = g_ax - 0.5
        rr = np.linspace(0.5, 20.0, 391)
        # one call; normalized_j evaluates each argument on its own
        u0, up, um = normalized_j(nu, np.stack([rr, rr + h, rr - h]))
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
    rng = random.Random(_SEED)
    x0 = _uniform(rng, 0.3, 2.0, g.n)
    rows.append(_row(cfg, "shift-identity",
                     shift(plan, _gauss, x0, np.zeros(g.n)) - float(_gauss(x0[None, :])[0]),
                     0.0, scale=1.0, inputs={"x": list(x0)}))
    one = lambda p: np.ones(p.shape[:-1])
    worst = max(
        abs(shift(plan, one, _uniform(rng, 0.1, 3.0, g.n), _uniform(rng, 0.1, 3.0, g.n),
                  adaptive=False) - 1.0)
        for _ in range(20)
    )
    rows.append(_row(cfg, "shift-normalization", worst, 0.0, scale=1.0))
    plan1 = build_shift_plan((g[0],), cfg.angles)
    sq = lambda p: p[..., 0] ** 2
    worst = 0.0
    for _ in range(25):
        x, y = _uniform(rng, 0.1, 3.0, 2)
        got = shift(plan1, sq, [x], [y])
        worst = max(worst, abs(got - (x * x + y * y)) / (x * x + y * y))
    rows.append(_row(cfg, "shift-square", worst, 0.0, scale=1.0,
                     inputs={"gamma_axis": g[0], "pairs": 25}))
    xa, ya = _uniform(rng, 0.2, 2.0, g.n), _uniform(rng, 0.2, 2.0, g.n)
    rows.append(_row(cfg, "shift-symmetry",
                     shift(plan, _gauss, xa, ya) - shift(plan, _gauss, ya, xa),
                     0.0, scale=1.0))
    grid = _tensor_grid(g.values, cfg.x_max, cfg.points)
    f = grid.sample(_gauss)
    y_shift = np.full(g.n, 1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftTruncationWarning)
        sf = shift_grid(plan, f, y_shift)
    rows.append(_row(cfg, "shift-preservation", integrate(sf), integrate(f),
                     inputs={"y": list(y_shift)}))
    t = _uniform(rng, 0.5, 2.0, g.n)
    x, y = _uniform(rng, 0.3, 1.8, g.n), _uniform(rng, 0.3, 1.8, g.n)

    # the kernel prod_i j_{g_i-1/2}(t_i x_i) as its n 1-D factors (per-axis route)
    factors = [lambda z, i=i: normalized_j(g[i] - 0.5, z * t[i]) for i in range(g.n)]

    def kern(p):
        return math.prod(float(h(p[i : i + 1])[0]) for i, h in enumerate(factors))

    lhs = shift(plan, factors, x, y)
    rhs = kern(x) * kern(y)
    rows.append(_row(cfg, "shift-product-formula", lhs, rhs, scale=1.0,
                     inputs={"t": list(t), "x": list(x), "y": list(y)}))
    return rows


# Grids, rules and plans built once per report and shared between suites,
# which only read their arrays; run_suite empties these caches before and
# after each report.
@functools.lru_cache(maxsize=1)
def _tensor_grid(gamma: tuple, x_max: float, points: int):
    """The config grid: the shift suite samples on it, the FB plan holds it."""
    return build_tensor_grid(gamma, x_max, points)


@functools.lru_cache(maxsize=1)
def _fb_plan(gamma: tuple, x_max: float, points: int):
    """FB plan on the config grid: the transform, riesz and estimates suites
    share it."""
    return build_fb_plan(_tensor_grid(gamma, x_max, points))


@functools.lru_cache(maxsize=None)
def _sphere_rule(gamma: tuple, points: int):
    """Hemisphere rule: the mean-value, pizzetti, transform and riesz suites
    share the config gamma's."""
    return build_sphere_rule(gamma, points)


_REPORT_CACHES = (_tensor_grid, _fb_plan, _sphere_rule)


def _freq_probe_nodes(plan, count: int = 5, reach: float = 3.2):
    """Per-axis frequency nodes nearest to a spread of targets within reach."""
    targets = np.linspace(reach / count, reach, count)
    out = []
    for ax_nodes in plan.freq_grid.nodes:
        idx = sorted({int(np.argmin(np.abs(ax_nodes - t))) for t in targets})
        out.append(ax_nodes[idx])
    return _point_array(out).reshape(-1, len(out))


def suite_transform(cfg: RunConfig) -> List[dict]:
    rows = []
    g = as_gamma(cfg.gamma)
    plan = _fb_plan(g.values, cfg.x_max, cfg.points)
    grid = plan.grid
    probes = _freq_probe_nodes(plan)
    for a in (0.5, 1.0, 2.0):
        got = fb_forward_at(plan, grid.sample(corpus._gaussian(a)), probes)
        ref = gaussian_transform(g, a, probes)
        rel = float(np.max(np.abs(got - ref) / np.abs(ref)))
        rows.append(_row(cfg, "fb-gaussian", rel, 0.0, scale=1.0,
                         inputs={"alpha": a, "probe_points": len(probes)}))
    rows.append(_row(cfg, "fb-roundtrip", plan.self_test_error, 0.0, scale=1.0))
    # scaling identity: base Gaussian narrow enough that f(alpha x) stays
    # resolved by the truncated grid for both alpha values
    f_base = grid.sample(corpus._gaussian(2.0))
    for a in (0.5, 2.0):
        fa = grid.sample(lambda p: np.exp(-2.0 * np.sum((a * p) ** 2, axis=-1)))
        lhs = fb_forward_at(plan, fa, probes)
        rhs = a ** (-g.n - 2.0 * g.abs) * fb_forward_at(plan, f_base, probes / a)
        rel = float(np.max(np.abs(lhs - rhs) / np.abs(rhs)))
        rows.append(_row(cfg, "fb-scaling", rel, 0.0, scale=1.0, inputs={"alpha": a}))
    del f_base, fa
    lhs = fb_forward_at(plan, grid.sample(_b_gauss(g, 1.0)), probes)
    f = grid.sample(_gauss)
    rhs = -np.sum(probes * probes, axis=-1) * fb_forward_at(plan, f, probes)
    rows.append(_row(cfg, "fb-eigenrelation",
                     float(np.max(np.abs(lhs - rhs) / np.abs(rhs))), 0.0, scale=1.0))
    # Theorem 2.1 for the k=2 and k=4 kernels
    if g.n >= 2:
        for k in (2, 4):
            p_k = corpus.b_harmonic(g, k)
            got = fb_forward_at(plan, grid.sample(lambda p: eval_poly(p_k, p) * _gauss(p)),
                                probes)
            ref = harmonic_gaussian_transform(p_k, g, probes)
            keep = np.abs(ref) > 1e-3 * np.max(np.abs(ref))
            rel = float(np.max(np.abs(got[keep] - ref[keep]) / np.abs(ref[keep])))
            rows.append(_row(cfg, "harmonic-gaussian", rel, 0.0, scale=1.0,
                             inputs={"k": k, "probe_points": int(np.sum(keep))}))
    # convolution theorem for the product Gaussian phi = prod_i exp(-1.5 x_i^2)
    splan = build_shift_plan(g, cfg.angles)
    conv = b_convolve(splan, f, [lambda z: np.exp(-1.5 * z * z)] * g.n)
    lhs = fb_forward(plan, conv).values
    rhs = spectral_convolution_factor(g) * fb_forward(plan, f).values
    del conv, f
    rhs *= fb_forward(plan, grid.sample(corpus._gaussian(1.5))).values
    rel = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
    rows.append(_row(cfg, "fb-convolution", rel, 0.0, scale=1.0,
                     inputs={"points": grid.shape[0],
                             "factor": spectral_convolution_factor(g)}))
    # Lemma 2.2 with a mean-zero angular part and a non-radial even phi
    if g.n >= 2:
        p2 = corpus.b_harmonic(g, 2)
        rule = _sphere_rule(g.values, cfg.sphere_points)
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
        rule = _sphere_rule(gam, cfg.sphere_points)
        rows.append(_row(cfg, "sphere-measure", float(np.sum(rule.weights)), expected,
                         inputs={"gamma": list(gam)}))
    g = as_gamma(cfg.gamma)
    rule = _sphere_rule(g.values, cfg.sphere_points)
    rows.append(_row(cfg, "sphere-measure", float(np.sum(rule.weights)),
                     hemisphere_measure(g), inputs={"gamma": list(g.values)}))
    candidates = [("constant", _radius_power(g.n, 0))]
    if g.n >= 2:
        candidates.append(("b-harmonic-k2", corpus.b_harmonic(g, 2)))
        candidates.append(("b-harmonic-k4", corpus.b_harmonic(g, 4)))
    for label, u in candidates:
        for R in (0.7, 1.0, 1.6):
            row = mean_value_check(u, rule, R)
            rows.append(_row(cfg, "mvt", row["lhs"], row["rhs"], scale=row["scale"],
                             inputs={"u": label, "R": R},
                             gamma=row["gamma"], R=R, lhs=row["lhs"], rhs=row["rhs"],
                             residual=row["residual"], residual_ok=row["residual_ok"]))
    if g.n >= 2:
        plan = build_shift_plan(g, cfg.angles)
        p2 = corpus.b_harmonic(g, 2)
        rng = random.Random(_SEED)
        for _ in range(5):
            y = _uniform(rng, 0.2, 1.5, g.n)
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
        rule = _sphere_rule(g.values, cfg.sphere_points)
        r2 = _radius_power(g.n, 1)
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
    # remainder decay for the Gaussian: its Taylor terms (-1)^k |x|^{2k} / k!
    # have (B^eta |x|^{2k})(0) = 0 unless eta = k, so terms k > m add nothing
    g = as_gamma(cfg.gamma)
    rule = _sphere_rule(g.values, cfg.sphere_points)
    nm = sphere_mean(_gauss, rule, 1.0) / hemisphere_measure(g)
    rem = [abs(nm - math.fsum((-1) ** k / math.factorial(k)
                              * pizzetti_mean(_radius_power(g.n, k), g, 1.0, m)
                              for k in range(m + 1)))
           for m in (0, 1, 2)]
    rows.append(_row(cfg, "pizzetti-decay", 1.0 if rem[0] > rem[1] > rem[2] else 0.0,
                     1.0, inputs={"R": 1.0, "remainders": rem}))
    # v recursion: boundary conditions, B v_{eta+1} = v_eta, moment identity
    R = 1.0
    vs = v_sequence(g, R, 4)
    c = pizzetti_coeffs(g, R, 5).c
    for eta in (1, 2, 3):
        bnd = max(abs(vs[eta](R)), abs(vs[eta].derivative(R)))
        rows.append(_row(cfg, "v-boundary", bnd, 0.0, scale=1.0, inputs={"eta": eta}))
    # radial B v = v'' + (q + 1)/r v', applied exactly to the power-log terms
    q = g.n + 2 * sum(map(Fraction, g)) - 2  # v_sequence's exact q
    r = np.linspace(0.2 * R, 0.9 * R, 15)
    for eta in (0, 1, 2):
        bv = _eval_terms(_radial_bessel(vs[eta + 1].terms, q), r)
        rel = float(np.max(np.abs(bv - vs[eta](r)) / np.abs(vs[eta](r))))
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
    p2 = corpus.b_harmonic(g, 2)
    kernel = build_riesz_kernel(p2, g)
    rule = _sphere_rule(g.values, cfg.sphere_points)
    mean = float(np.dot(rule.weights, eval_poly(p2, rule.nodes)))
    scale = float(np.dot(rule.weights, np.abs(eval_poly(p2, rule.nodes))))
    rows.append(_row(cfg, "riesz-mean-zero", mean, 0.0, scale=scale))
    plan_f = _fb_plan(g.values, cfg.x_max, cfg.points)
    grid = plan_f.grid
    plan_s = build_shift_plan(g, cfg.angles)
    srule = _sphere_rule(g.values, min(cfg.sphere_points, 64))
    f = grid.sample(_gauss)
    factors = [lambda z: np.exp(-z * z)] * g.n  # _gauss, one axis at a time
    rf = riesz_spectral(kernel, f, plan_f)
    # the points are grid nodes, so the spectral side is read without interpolation
    inner = [np.flatnonzero((x >= 0.5) & (x <= 1.8)) for x in grid.nodes]
    empty = [i for i, idx in enumerate(inner) if idx.size == 0]
    if empty:
        rows.append(_error_row(ValueError(
            f"no grid node in [0.5, 1.8] on axes {empty}: "
            "riesz-multiplier and riesz-converged not run")))
    else:
        rng = random.Random(_SEED)
        converged = 0
        for _ in range(5):
            # one node per axis, uniformly among that axis's inner nodes
            idx = tuple(int(i[int(u * i.size)])
                        for i, u in zip(inner, _uniform(rng, 0.0, 1.0, g.n)))
            x = np.array([nodes[k] for nodes, k in zip(grid.nodes, idx)])
            res = riesz_spatial(kernel, factors, x, plan_s, srule, cfg.x_max)
            spec_val = float(rf.values[idx])
            rows.append(_row(cfg, "riesz-multiplier", res.limit, spec_val,
                             scale=max(abs(spec_val), 1e-3),
                             inputs={"point": [float(v) for v in x]},
                             k=kernel.degree, gamma=list(g.values),
                             point=[float(v) for v in x],
                             spatial=res.limit, spectral=spec_val,
                             converged=res.converged))
            converged += res.converged
        # a kernel whose quadrature-level angular mean is not zero leaves the
        # subtracted integrand singular; that fails regardless of error
        rows.append(_row(cfg, "riesz-converged", converged / 5, 1.0,
                         inputs={"points": 5}))
    # spectral worked value: multiplier times transform at a fixed point
    xi = np.ones(g.n)
    mult_xi = float(_multiplier(kernel, xi))
    got = mult_xi * float(fb_forward_at(plan_f, f, xi))
    expected = mult_xi * gaussian_transform(g, 1.0, xi)
    rows.append(_row(cfg, "riesz-spectral-value", got, expected,
                     inputs={"xi": list(map(float, xi)),
                             "closed_form": expected}))
    # degree-0 homogeneity of the multiplier along rays
    ray = np.array([0.6, 1.3][: g.n] + [0.9] * max(0, g.n - 2))
    vals = [float(_multiplier(kernel, t * ray)) for t in (0.5, 1.0, 2.0, 7.5)]
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
    plan = _fb_plan(g.values, cfg.x_max, cfg.points)
    grid = plan.grid
    kernel = build_riesz_kernel(corpus.b_harmonic(g, 2), g)
    # one member at a time, transformed once for all three multipliers; f is
    # freed before B f is sampled, the transform before the next member
    probe_rows, lp_rows = [], []
    for s in (0.5, 1.0, 2.0):
        label, f = f"gaussian-s{s}", grid.sample(corpus._gaussian(s))
        f_hat = fb_forward(plan, f)
        lp_rows += lp_boundedness_probe(kernel, (2.0, 4.0), [(label, f, f_hat)], plan)
        del f
        probe_rows += priori_bound_probe(plan, 2.0, [(label, f_hat, grid.sample(_b_gauss(g, s)))])
        del f_hat
    by_check: Dict[str, List[float]] = {}
    for r in probe_rows:
        by_check.setdefault(r["check"], []).append(r["ratio"])
        rows.append(_info_row(r["check"], {"label": r["label"], "p": r["p"]},
                              computed=r["ratio"], expected=r["ratio"],
                              lhs=r["lhs"], rhs=r["rhs"]))
    for check, ratios in sorted(by_check.items()):
        rows.append(_row(cfg, "estimates-dilation", (max(ratios) - min(ratios)) / max(ratios),
                         0.0, scale=1.0, inputs={"probe": check, "ratios": ratios}))
    ratios_by_p: Dict[float, List[float]] = {}
    for r in lp_rows:
        ratios_by_p.setdefault(r["p"], []).append(r["ratio"])
        rows.append(_info_row(r["check"], {"label": r["label"], "p": r["p"]},
                              computed=r["ratio"], expected=r["ratio"],
                              max_multiplier=r["max_multiplier"]))
    for p, ratios in sorted(ratios_by_p.items()):
        rows.append(_row(cfg, "estimates-dilation", (max(ratios) - min(ratios)) / max(ratios),
                         0.0, scale=1.0, inputs={"probe": "riesz-lp", "p": p, "ratios": ratios}))
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


_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool) and (
        isinstance(v, int) or (isinstance(v, float) and v.is_integer())),
}


def _validate(instance, schema: dict, path: str = "report") -> None:
    """Raise ValueError unless instance matches schema.

    Interprets the keywords REPORT_SCHEMA uses (type, required, properties,
    items, minimum) with JSON Schema 2020-12 semantics: a bool is no number,
    3.0 is an integer, any numbers.Number is a number and NaN passes minimum.
    """
    kind = schema.get("type")
    if kind is not None and not _JSON_TYPES[kind](instance):
        raise ValueError(f"{path}: {instance!r} is not of type {kind!r}")
    if "minimum" in schema and _JSON_TYPES["number"](instance) \
            and instance < schema["minimum"]:
        raise ValueError(f"{path}: {instance!r} is less than {schema['minimum']!r}")
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                raise ValueError(f"{path}: missing required {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                _validate(instance[key], sub, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            _validate(item, schema["items"], f"{path}[{i}]")


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
    for cache in _REPORT_CACHES:
        cache.cache_clear()
    for name in names:
        try:
            part = SUITES[name](config)
        except Exception as exc:  # reported as a failing row, not a traceback
            part = [_error_row(exc)]
        for r in part:
            r["suite"] = name
        rows.extend(part)
    for cache in _REPORT_CACHES:
        cache.cache_clear()
    passed = sum(1 for r in rows if r.get("pass"))  # a row without one fails _validate
    report = {
        "config": config.as_dict(),
        "suite": suite,
        "rows": rows,
        "summary": {"total": len(rows), "passed": passed,
                    "failed": len(rows) - passed},
    }
    _validate(report, REPORT_SCHEMA)
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
