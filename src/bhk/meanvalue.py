"""Weighted-hemisphere mean value formula for B-harmonic functions, its
shifted form under the generalized translation, the Pizzetti-type expansion,
and the radial v_eta recursion behind its coefficients.

Mean value formula: for even regular u with B u = 0,

    int_{S_+^{n-1}} u(R theta) prod theta_i^{2 gamma_i} dS = m(S_+) u(0),
    m(S_+) = prod Gamma(gamma_i+1/2) / (2^{n-1} Gamma(|gamma|+n/2)),

and with T^y u in place of u the right side becomes m(S_+) u(y).  For general
smooth u the normalized mean expands as sum_eta c_eta (B^eta u)(0) with

    c_eta = (R/2)^{2 eta} Gamma(s) / (eta! Gamma(eta+s)),   s = |gamma| + n/2.

The radial functions v_eta solve B v_{eta+1} = v_eta (radial form, with
q = n + 2|gamma| - 2):

    v_0      = (1/(m(S_+) q)) [r^-q - R^-q],
    v_{eta+1}(r) = (q r^q)^{-1} int_r^R rho v_eta(rho) [rho^q - r^q] d rho,

with v_eta(R) = v_eta'(R) = 0 for eta >= 1.  Every v_eta is a finite sum of
c * r^p * (ln r)^l terms (logs appear exactly when q = 2), so the recursion
integrals are evaluated in closed form by a small power-log term algebra; the
tie to the Pizzetti coefficients is the moment identity

    m(S_+) * int_0^R v_eta(r) r^{q+1} dr = c_{eta+1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from .grids import GammaIndex, SphereRule, as_gamma, hemisphere_measure
from .polys import EvenPoly, apply_bessel, eval_poly

__all__ = [
    "RadialProfile",
    "PizzettiCoefficients",
    "sphere_mean",
    "mean_value_check",
    "shifted_mean_value_check",
    "pizzetti_coeffs",
    "pizzetti_mean",
    "bessel_laplacian_fd",
    "v_sequence",
    "v_recursion",
]

_AXIS_FLOOR = 1e-9  # below this a coordinate counts as on-axis for the FD limit
# B u = 0 probe of mean_value_check: largest FD residual that still counts
# as B-harmonic, FD step, and number of sphere directions probed
RESIDUAL_TOL = 1e-6
RESIDUAL_H = 1e-4
RESIDUAL_POINTS = 5


def _as_callable(u) -> Callable:
    if isinstance(u, EvenPoly):
        return lambda pts: eval_poly(u, pts)
    return u


def sphere_mean(u, rule: SphereRule, R: float) -> float:
    """int_{S_+^{n-1}} u(R theta) prod theta_i^{2 gamma_i} dS via the rule."""
    if R <= 0:
        raise ValueError("R must be positive")
    fn = _as_callable(u)
    vals = np.asarray(fn(R * rule.nodes), dtype=float)
    return float(np.dot(rule.weights, vals))


def bessel_laplacian_fd(u, gamma, x, h: float = 1e-4) -> float:
    """Finite-difference Laplace-Bessel operator at a point (4th-order stencils).

    For coordinates on the axis (x_i ~ 0) the singular term is replaced by its
    even limit, B_i u -> (1 + 2 gamma_i) d_i^2 u; stencil arguments that cross
    zero are reflected (u is assumed even in each variable, as everywhere in
    this theory).
    """
    g = as_gamma(gamma)
    fn = _as_callable(u)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != g.n:
        raise ValueError(f"x must have {g.n} components")
    offsets = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    pts = np.repeat(x[None, :], 4 * g.n + 1, axis=0)
    for i in range(g.n):
        pts[4 * i : 4 * i + 4, i] = np.abs(x[i] + offsets)
    vals = np.asarray(fn(pts), dtype=float)
    u0 = vals[-1]
    total = 0.0
    for i in range(g.n):
        um2, um1, up1, up2 = vals[4 * i : 4 * i + 4]
        d2 = (-up2 + 16.0 * up1 - 30.0 * u0 + 16.0 * um1 - um2) / (12.0 * h * h)
        if x[i] > _AXIS_FLOOR:
            d1 = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * h)
            total += d2 + 2.0 * g[i] / x[i] * d1
        else:
            total += (1.0 + 2.0 * g[i]) * d2
    return float(total)


def mean_value_check(u, rule: SphereRule, R: float) -> dict:
    """Compare the weighted sphere mean of u against m(S_+) u(0).

    The B u = 0 precondition is probed by finite differences at a few interior
    points; a failing residual is reported in the row, not raised.
    """
    g = rule.gamma
    fn = _as_callable(u)
    step = max(1, rule.nodes.shape[0] // RESIDUAL_POINTS)
    radii = (0.35, 0.55, 0.75)
    residual = 0.0
    for q in range(0, rule.nodes.shape[0], step):
        for t in radii:
            residual = max(
                residual, abs(bessel_laplacian_fd(fn, g, t * R * rule.nodes[q], RESIDUAL_H))
            )
    u0 = float(np.asarray(fn(np.zeros((1, g.n))), dtype=float).reshape(()))
    lhs = sphere_mean(fn, rule, R)
    rhs = hemisphere_measure(g) * u0
    scale = hemisphere_measure(g) * max(
        1e-300, float(np.max(np.abs(fn(R * rule.nodes)))), abs(u0)
    )
    return {
        "check": "mvt",
        "gamma": list(g.values),
        "R": float(R),
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs(lhs - rhs),
        "scale": scale,
        "residual": residual,
        "residual_ok": bool(residual < RESIDUAL_TOL),
    }


def shifted_mean_value_check(u, rule: SphereRule, R: float, plan, y) -> dict:
    """Shifted mean value: sphere mean of x -> T^y u(x) against m(S_+) u(y)."""
    from .shift import shift

    g = rule.gamma
    fn = _as_callable(u)
    y = np.asarray(y, dtype=float).reshape(-1)
    vals = np.array(
        [shift(plan, fn, R * node, y, adaptive=False) for node in rule.nodes]
    )
    lhs = float(np.dot(rule.weights, vals))
    uy = float(np.asarray(fn(y.reshape(1, -1)), dtype=float).reshape(()))
    rhs = hemisphere_measure(g) * uy
    scale = hemisphere_measure(g) * max(1e-300, float(np.max(np.abs(vals))), abs(uy))
    return {
        "check": "mvt-shifted",
        "gamma": list(g.values),
        "R": float(R),
        "y": [float(v) for v in y],
        "lhs": lhs,
        "rhs": rhs,
        "abs_err": abs(lhs - rhs),
        "scale": scale,
    }


@dataclass(frozen=True)
class PizzettiCoefficients:
    """c_0..c_m for radius R; c_{eta+1}/c_eta = (R/2)^2 / ((eta+1)(eta+s))."""

    R: float
    gamma: GammaIndex
    c: tuple

    def __post_init__(self):
        s = self.gamma.abs + 0.5 * self.gamma.n
        if self.c[0] != 1.0:
            raise ValueError("c_0 must equal 1")
        ratio = (0.5 * self.R) ** 2
        for eta in range(len(self.c) - 1):
            expected = ratio / ((eta + 1.0) * (eta + s))
            got = self.c[eta + 1] / self.c[eta]
            if abs(got - expected) > 1e-13 * expected:
                raise ValueError(f"coefficient ratio broken at eta={eta}")
        if any(ci <= 0.0 for ci in self.c):
            raise ValueError("all c_eta must be positive")


def pizzetti_coeffs(gamma, R: float, m: int) -> PizzettiCoefficients:
    """c_eta = (R/2)^{2 eta} Gamma(s)/(eta! Gamma(eta+s)) by the ratio recurrence."""
    g = as_gamma(gamma)
    if m < 0:
        raise ValueError("m must be >= 0")
    s = g.abs + 0.5 * g.n
    c = [1.0]
    for eta in range(m):
        c.append(c[-1] * (0.5 * R) ** 2 / ((eta + 1.0) * (eta + s)))
    return PizzettiCoefficients(float(R), g, tuple(c))


def _poly_b_power_at_zero(p: EvenPoly, gamma, eta: int) -> float:
    for _ in range(eta):
        if p.is_zero:
            return 0.0
        p = apply_bessel(p, gamma)
    return float(eval_poly(p, np.zeros(p.n)))


def pizzetti_mean(u, gamma, R: float, m: int, *, h: float | None = None) -> float:
    """Truncated Pizzetti sum sum_{eta<=m} c_eta (B^eta u)(0).

    For EvenPoly input the powers B^eta come from repeated apply_bessel and
    the series terminates exactly once 2m >= deg u.  For callables the powers
    are nested finite differences (limited to m <= 2; roundoff dominates
    beyond that), with h defaulting to 1e-2 R.
    """
    g = as_gamma(gamma)
    coeffs = pizzetti_coeffs(g, R, m).c
    if isinstance(u, EvenPoly):
        return math.fsum(
            coeffs[eta] * _poly_b_power_at_zero(u, g, eta) for eta in range(m + 1)
        )
    if m > 2:
        raise ValueError("callable inputs support m <= 2 (nested FD roundoff)")
    h = 1e-2 * R if h is None else h
    fn = _as_callable(u)
    origin = np.zeros(g.n)
    terms = [float(np.asarray(fn(origin[None, :]), dtype=float).reshape(()))]
    if m >= 1:
        terms.append(bessel_laplacian_fd(fn, g, origin, h))
    if m >= 2:
        def bu(pts):
            pts = np.asarray(pts, dtype=float)
            flat = pts.reshape(-1, g.n)
            return np.array(
                [bessel_laplacian_fd(fn, g, p, h) for p in flat]
            ).reshape(pts.shape[:-1])

        terms.append(bessel_laplacian_fd(bu, g, origin, h))
    return math.fsum(c * t for c, t in zip(coeffs, terms))


# ---------------------------------------------------------------------------
# radial v_eta recursion: closed-form power-log term algebra
# ---------------------------------------------------------------------------

_Terms = Dict[Tuple[float, int], float]


def _add_term(terms: _Terms, p: float, l: int, c: float) -> None:
    if c != 0.0:
        key = (p, l)
        terms[key] = terms.get(key, 0.0) + c


def _antiderivative(terms: _Terms) -> _Terms:
    """Termwise antiderivative of sum c rho^p (ln rho)^l."""
    out: _Terms = {}
    for (p, l), c in terms.items():
        if p == -1.0:
            _add_term(out, 0.0, l + 1, c / (l + 1.0))
        else:
            coef = c / (p + 1.0)
            for j in range(l, -1, -1):
                _add_term(out, p + 1.0, j, coef)
                coef *= -j / (p + 1.0)
    return out


def _eval_terms(terms: _Terms, r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    lr = np.log(r)
    for (p, l), c in terms.items():
        out += c * r**p * (lr**l if l else 1.0)
    return out


class VRadial:
    """Finite sum of c * r^p * (ln r)^l terms with exact calculus.

    mu_moment holds m(S_+) * int_0^R v(r) r^{n+2|gamma|-1} dr, which ties the
    recursion to the Pizzetti coefficients: it must equal c_{eta+1}.
    """

    def __init__(self, terms: _Terms, mu_moment: float):
        self.terms = {k: v for k, v in terms.items() if v != 0.0}
        self.mu_moment = mu_moment

    def __call__(self, r):
        out = _eval_terms(self.terms, r)
        return float(out) if out.ndim == 0 else out

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        lr = np.log(r)
        for (p, l), c in self.terms.items():
            out += c * p * r ** (p - 1.0) * (lr**l if l else 1.0)
            if l:
                out += c * l * r ** (p - 1.0) * lr ** (l - 1)
        return float(out) if out.ndim == 0 else out

    def shifted(self, dp: float) -> _Terms:
        return {(p + dp, l): c for (p, l), c in self.terms.items()}


def v_sequence(gamma, R: float, eta_max: int) -> List[VRadial]:
    """Closed-form v_0..v_{eta_max} as power-log callables.

    Each element supports __call__(r) and .derivative(r) and carries its
    measure moment (see VRadial).
    """
    g = as_gamma(gamma)
    R = float(R)
    q = g.n + 2.0 * g.abs - 2.0
    if q <= 0.0:
        raise ValueError("v recursion requires n + 2|gamma| > 2")
    if eta_max < 0:
        raise ValueError("eta_max must be >= 0")
    m_s = hemisphere_measure(g)
    a0 = 1.0 / (m_s * q)
    seq = []
    terms: _Terms = {(-q, 0): a0, (0.0, 0): -a0 * R ** (-q)}
    r_end = np.asarray(R)
    for _ in range(eta_max + 1):
        anti_s = _antiderivative({(p + q + 1.0, l): c for (p, l), c in terms.items()})
        anti_t = _antiderivative({(p + 1.0, l): c for (p, l), c in terms.items()})
        moment = m_s * float(_eval_terms(anti_s, r_end))
        seq.append(VRadial(terms, moment))
        # v_{eta+1}(r) = (1/q) [ r^-q int_r^R rho^{q+1} v - int_r^R rho v ]
        s_at_r = float(_eval_terms(anti_s, r_end))
        t_at_r = float(_eval_terms(anti_t, r_end))
        nxt: _Terms = {}
        _add_term(nxt, -q, 0, s_at_r / q)
        for (p, l), c in anti_s.items():
            _add_term(nxt, p - q, l, -c / q)
        _add_term(nxt, 0.0, 0, -t_at_r / q)
        for (p, l), c in anti_t.items():
            _add_term(nxt, p, l, c / q)
        terms = nxt
    return seq


@dataclass(frozen=True)
class RadialProfile:
    """Sampled radial function on (0, R]."""

    radii: np.ndarray
    values: np.ndarray
    R: float

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        if np.any(np.diff(r) <= 0) or r[-1] > self.R + 1e-12:
            raise ValueError("radii must be strictly increasing with last <= R")


def v_recursion(gamma, R: float, eta_max: int, radial_points: int = 256) -> List[RadialProfile]:
    """v_0..v_{eta_max} sampled on a Chebyshev grid on [1e-3 R, R].

    The r -> 0 singularity of v_0 is never evaluated below the floor (the
    construction excises a ball around the origin as well).
    """
    seq = v_sequence(gamma, R, eta_max)
    lo, hi = 1e-3 * R, R
    j = np.arange(radial_points)
    radii = lo + (hi - lo) * 0.5 * (1.0 - np.cos(np.pi * j / (radial_points - 1)))
    return [RadialProfile(radii, v(radii), float(R)) for v in seq]
