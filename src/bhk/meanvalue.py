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
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .grids import GammaIndex, SphereRule, as_gamma, hemisphere_measure
from .polys import EvenPoly, _axis_exponents, _sum_terms, apply_bessel, eval_poly
from .shift import _axis_shift

__all__ = [
    "PizzettiCoefficients",
    "sphere_mean",
    "mean_value_check",
    "shifted_mean_value_check",
    "pizzetti_coeffs",
    "pizzetti_mean",
    "v_sequence",
]


def sphere_mean(u, rule: SphereRule, R: float) -> float:
    """int_{S_+^{n-1}} u(R theta) prod theta_i^{2 gamma_i} dS via the rule,
    for an EvenPoly or a callable u."""
    if R <= 0:
        raise ValueError("R must be positive")
    x = R * rule.nodes
    vals = eval_poly(u, x) if isinstance(u, EvenPoly) else np.asarray(u(x), dtype=float)
    return float(np.dot(rule.weights, vals))


def _mean_row(check: str, rule: SphereRule, R: float, values, u_at: float,
              **extra) -> dict:
    """Row comparing the weighted sphere mean of values(R theta), a callable
    on the rule's scaled nodes, against m(S_+) u_at; ValueError unless R > 0."""
    if R <= 0:
        raise ValueError("R must be positive")
    g = rule.gamma
    vals = values(R * rule.nodes)
    lhs = float(np.dot(rule.weights, vals))
    rhs = hemisphere_measure(g) * u_at
    scale = hemisphere_measure(g) * max(1e-300, float(np.max(np.abs(vals))), abs(u_at))
    return {"check": check, "gamma": list(g.values), "R": float(R), **extra,
            "lhs": lhs, "rhs": rhs, "abs_err": abs(lhs - rhs), "scale": scale}


def mean_value_check(u: EvenPoly, rule: SphereRule, R: float) -> dict:
    """Compare the weighted sphere mean of an EvenPoly u (ValueError for
    anything else) against m(S_+) u(0).

    The B u = 0 precondition is checked exactly on apply_bessel(u): residual
    is its largest |coefficient| (0.0 for B-harmonic u); a failing residual
    is reported in the row, not raised.
    """
    if not isinstance(u, EvenPoly):
        raise ValueError("mean_value_check takes u as an EvenPoly")
    bu = apply_bessel(u, rule.gamma)
    u0 = float(eval_poly(u, np.zeros(rule.gamma.n)))
    return _mean_row("mvt", rule, R, lambda x: eval_poly(u, x), u0,
                     residual=float(max((abs(c) for _, c in bu.coeffs), default=0)),
                     residual_ok=bu.is_zero)


def shifted_mean_value_check(u: EvenPoly, rule: SphereRule, R: float, plan, y) -> dict:
    """Shifted mean value: sphere mean of x -> T^y u(x) against m(S_+) u(y)
    for an EvenPoly u (ValueError for anything else, and unless R > 0).

    T^y u at the nodes R theta comes from the callable route with the plan's
    angle rules (those of shift(..., adaptive=False)), one axis at a time:
    per axis i and distinct exponent a, the 1-D T^{y_i} z^a at every node's
    x_i (A_i points per node), then sum_alpha c_alpha prod_i T^{y_i}
    z^{alpha_i} in eval_poly's term order (T^{y_i} z^0 = 1 exactly).  y = 0
    takes u itself (T^0 u = u exactly).
    """
    g = rule.gamma
    if not isinstance(u, EvenPoly):
        raise ValueError("shifted_mean_value_check takes u as an EvenPoly")
    if u.n != g.n:
        raise ValueError(f"polynomial has {u.n} axes, rule has {g.n}")
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != g.n:
        raise ValueError(f"y must have {g.n} components")

    def shifted(x):
        if np.all(y == 0.0):
            return eval_poly(u, x)
        powers = []
        for xi, yi, c, w, exps in zip(x.T, y, plan.cos_nodes, plan.weights,
                                      _axis_exponents(u)):
            powers.append({a: _axis_shift(lambda z, a=a: z**a, xi, yi, c, w)
                           for a in exps})
        return _sum_terms(u, powers, x.shape[:1])

    uy = float(eval_poly(u, y.reshape(1, -1)).reshape(()))
    return _mean_row("mvt-shifted", rule, R, shifted, uy, y=[float(v) for v in y])


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
        p = apply_bessel(p, gamma)
    return float(p.as_dict().get((0,) * p.n, 0))


def pizzetti_mean(u: EvenPoly, gamma, R: float, m: int) -> float:
    """Truncated Pizzetti sum sum_{eta<=m} c_eta (B^eta u)(0) for an EvenPoly
    u (ValueError for anything else).

    The powers B^eta come from repeated apply_bessel, so every term is exact
    and the series terminates once 2m >= deg u.
    """
    if not isinstance(u, EvenPoly):
        raise ValueError("pizzetti_mean takes u as an EvenPoly")
    g = as_gamma(gamma)
    coeffs = pizzetti_coeffs(g, R, m).c
    return math.fsum(
        coeffs[eta] * _poly_b_power_at_zero(u, g, eta) for eta in range(m + 1)
    )


# ---------------------------------------------------------------------------
# radial v_eta recursion: closed-form power-log term algebra
# ---------------------------------------------------------------------------

# exponents are exact (integers plus multiples of q); floats only in evaluation
_Terms = Dict[Tuple[Fraction, int], float]


def _add_term(terms: _Terms, p: Fraction, l: int, c: float) -> None:
    if c != 0.0:
        key = (p, l)
        terms[key] = terms.get(key, 0.0) + c


def _antiderivative(terms: _Terms) -> _Terms:
    """Termwise antiderivative of sum c rho^p (ln rho)^l."""
    out: _Terms = {}
    for (p, l), c in terms.items():
        if p == -1:
            _add_term(out, Fraction(0), l + 1, c / (l + 1.0))
        else:
            coef = c / float(p + 1)
            for j in range(l, -1, -1):
                _add_term(out, p + 1, j, coef)
                coef *= -j / float(p + 1)
    return out


def _radial_bessel(terms: _Terms, q: Fraction) -> _Terms:
    """Termwise radial B = d^2/dr^2 + (q + 1)/r d/dr of sum c r^p (ln r)^l:

        B(r^p ln^l r) = r^{p-2} [p(p+q) ln^l r + l(2p+q) ln^{l-1} r
                                 + l(l-1) ln^{l-2} r].
    """
    out: _Terms = {}
    for (p, l), c in terms.items():
        _add_term(out, p - 2, l, c * float(p * (p + q)))
        if l:
            _add_term(out, p - 2, l - 1, c * l * float(2 * p + q))
        if l > 1:
            _add_term(out, p - 2, l - 2, c * l * (l - 1.0))
    return out


def _eval_terms(terms: _Terms, r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    lr = np.log(r)
    for (p, l), c in terms.items():
        out += c * r ** float(p) * (lr**l if l else 1.0)
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
            out += c * float(p) * r ** float(p - 1) * (lr**l if l else 1.0)
            if l:
                out += c * l * r ** float(p - 1) * lr ** (l - 1)
        return float(out) if out.ndim == 0 else out


def v_sequence(gamma, R: float, eta_max: int) -> List[VRadial]:
    """Closed-form v_0..v_{eta_max} as power-log callables.

    Each element supports __call__(r) and .derivative(r) and carries its
    measure moment (see VRadial).
    """
    g = as_gamma(gamma)
    R = float(R)
    q = g.n + 2 * sum(map(Fraction, g)) - 2
    if q <= 0:
        raise ValueError("v recursion requires n + 2|gamma| > 2")
    if eta_max < 0:
        raise ValueError("eta_max must be >= 0")
    m_s = hemisphere_measure(g)
    qf = float(q)
    a0 = 1.0 / (m_s * qf)
    seq = []
    terms: _Terms = {(-q, 0): a0, (Fraction(0), 0): -a0 * R ** (-qf)}
    r_end = np.asarray(R)
    for _ in range(eta_max + 1):
        anti_s = _antiderivative({(p + q + 1, l): c for (p, l), c in terms.items()})
        anti_t = _antiderivative({(p + 1, l): c for (p, l), c in terms.items()})
        s_at_r = float(_eval_terms(anti_s, r_end))
        seq.append(VRadial(terms, m_s * s_at_r))
        # v_{eta+1}(r) = (1/q) [ r^-q int_r^R rho^{q+1} v - int_r^R rho v ]
        t_at_r = float(_eval_terms(anti_t, r_end))
        nxt: _Terms = {}
        _add_term(nxt, -q, 0, s_at_r / qf)
        for (p, l), c in anti_s.items():
            _add_term(nxt, p - q, l, -c / qf)
        _add_term(nxt, Fraction(0), 0, -t_at_r / qf)
        for (p, l), c in anti_t.items():
            _add_term(nxt, p, l, c / qf)
        terms = nxt
    return seq
