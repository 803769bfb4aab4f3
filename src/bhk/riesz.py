"""High-order Riesz-Bessel transforms: principal-value spatial evaluation
through the generalized shift, the equivalent Fourier multiplier route, and
empirical probes of the norm inequalities they mediate.

For a B-harmonic homogeneous P_k (k even) the transform is

    R^(k) f(x) = c_k * lim_{eps->0} int_{|y|>eps}
                   P_k(y) |y|^{-(k+n+2|gamma|)} T^y f(x) dmu_gamma(y),

acting on the Fourier-Bessel side as multiplication by
(-1)^{k/2} P_k(xi)/|xi|^k (bounded, homogeneous of degree 0).  The artifact's
kernel constant is c_k = c_fb * c_k_printed with c_k_printed =
2^{(n+2|gamma|)/2} Gamma((n+k+2|gamma|)/2)/Gamma(k/2): the extra c_fb is the
same convolution-theorem constant verified in the transform module, fixed so
the spatial and spectral routes agree; reports carry both values.  The
closed-form transform of the principal-value kernel P_k(y)/|y|^{k+n+2|gamma|}
is `pv_kernel_transform`, the multiplier over c_k_printed, so c_k_printed is
by construction the ratio of the multiplier to that transform.  Every
spectral multiplier m is applied as fb_inverse(m * F f); the probes' share
one transform F f per function (`_apply_multiplier`).  The Riesz multiplier
field depends only on the kernel and the frequency grid, so the kernel holds
it: one slot, the (grid, field) pair of the last grid asked for, the field
read-only (`riesz_multiplier`).

Spatial quadrature splits the radial integral at |y| = 1: on (0, 1] the
integrand is P_k(theta) [T^{r theta} f(x) - f(x)] / r, on (1, r_max] it is
P_k(theta) T^{r theta} f(x) / r.  P_k has zero weighted mean on the
hemisphere, so subtracting f(x) leaves the integral unchanged, and
T^{r theta} f(x) is even in each y_i, so T^{r theta} f(x) - f(x) = O(r^2):
the subtracted integrand is O(r) at r = 0 and the principal value is an
ordinary integral, taken on Gauss-Legendre nodes that never touch 0 (the
classical treatment of mean-zero singular kernels): RADIAL_INNER and
RADIAL_OUTER points of `special.legendre_rule`.  f is a product of
1-D factors, so T^{r theta} f(x) is the product of the per-axis shifts
T^{r theta_i} f_i(x_i), each from the callable route of `bhk.shift`: no
sampling, no interpolation and no clamping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grids import GammaIndex, GridFunction, SphereRule, as_gamma, lp_norm
from .polys import EvenPoly, _eval_axes, _require_b_harmonic, eval_poly
from .shift import ShiftOperatorPlan, _axis_factors, _axis_shift
from .special import gamma as _gamma, legendre_rule
from .transform import PV_MEAN_TOL, FBPlan, fb_constant, fb_forward, fb_inverse

__all__ = [
    "RieszKernel",
    "RieszSpatialResult",
    "build_riesz_kernel",
    "pv_kernel_transform",
    "riesz_multiplier",
    "riesz_spatial",
    "riesz_spectral",
    "priori_bound_probe",
    "lp_boundedness_probe",
]

# riesz_spatial: radial nodes on (0, 1] and (1, r_max]
RADIAL_INNER = 24
RADIAL_OUTER = 48


@dataclass(frozen=True)
class RieszKernel:
    """Kernel data P_k(y)/|y|^{k+n+2|gamma|} with its normalizing constants,
    and the (grid, field) slot of `riesz_multiplier` (not compared or hashed)."""

    poly: EvenPoly
    gamma: GammaIndex
    degree: int
    c_k_printed: float
    c_k: float
    _held: tuple = field(default=(None, None), init=False, compare=False, repr=False)


def build_riesz_kernel(p: EvenPoly, gamma) -> RieszKernel:
    """Validate P_k (B-harmonic, even degree k >= 2) and assemble the kernel
    constants."""
    g = as_gamma(gamma)
    k = p.degree
    if k % 2 or k < 2:
        raise ValueError("Riesz-Bessel kernels require even degree k >= 2")
    _require_b_harmonic(p, g)
    q = g.n + 2.0 * g.abs
    printed = 2.0 ** (0.5 * q) * _gamma(0.5 * (q + k)) / _gamma(0.5 * k)
    return RieszKernel(p, g, k, printed, fb_constant(g) * printed)


def _multiplier(kernel: RieszKernel, xs) -> np.ndarray:
    """(-1)^{k/2} P_k(xi)/|xi|^k (0 at xi = 0) on per-axis coordinates xs
    that broadcast together: an open mesh, or the n entries of one point."""
    r2 = sum(x * x for x in xs)
    sign = -1.0 if (kernel.degree // 2) % 2 else 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sign * _eval_axes(kernel.poly, xs) / r2 ** (0.5 * kernel.degree)
    return np.where(r2 == 0.0, 0.0, out)


def riesz_multiplier(kernel: RieszKernel, grid) -> np.ndarray:
    """Multiplier field (-1)^{k/2} P_k(xi)/|xi|^k on a grid (0 at xi = 0).

    The kernel holds one field, read-only, with the grid it was built on:
    a call on that same grid object returns it, a call on any other grid
    builds the field on the grid's open mesh and replaces the held pair.
    kernel and grid must share one gamma (ValueError otherwise).
    """
    if kernel.gamma.values != grid.gamma.values:
        raise ValueError("kernel and grid gamma indices differ")
    held_grid, mult = kernel._held
    if held_grid is not grid:
        mult = _multiplier(kernel, np.meshgrid(*grid.nodes, indexing="ij", sparse=True))
        mult.flags.writeable = False
        object.__setattr__(kernel, "_held", (grid, mult))
    return mult


def pv_kernel_transform(p: EvenPoly, gamma, y) -> float:
    """Closed-form transform of the principal-value kernel P_k(x)/|x|^{k+n+2|g|},
    the multiplier over c_k_printed:

    F[pv K](y) = 2^{-(n+2|g|)/2} (-1)^{k/2} Gamma(k/2)/Gamma((k+n+2|g|)/2)
                 * P_k(y)/|y|^k, homogeneous of degree 0; |y|^2 = 0 is singular.
    """
    kernel = build_riesz_kernel(p, gamma)
    y = np.asarray(y, dtype=float).reshape(-1)
    if float(np.sum(y * y)) == 0.0:
        raise ValueError("pv kernel transform is singular at y = 0")
    return float(_multiplier(kernel, y)) / kernel.c_k_printed


def _apply_multiplier(plan: FBPlan, mult: np.ndarray, f_hat: GridFunction) -> GridFunction:
    """fb_inverse(mult * f_hat) for f_hat = fb_forward(plan, f), left unchanged."""
    return fb_inverse(plan, GridFunction(f_hat.grid, mult * f_hat.values))


def riesz_spectral(kernel: RieszKernel, f: GridFunction, plan: FBPlan) -> GridFunction:
    """Multiplier route: fb_inverse of (-1)^{k/2} P_k(xi)/|xi|^k * fb_forward(f)."""
    mult = riesz_multiplier(kernel, plan.freq_grid)
    f_hat = fb_forward(plan, f)
    f_hat.values *= mult
    return fb_inverse(plan, f_hat)


@dataclass(frozen=True)
class RieszSpatialResult:
    limit: float
    converged: bool


def riesz_spatial(
    kernel: RieszKernel,
    f,
    x,
    plan: ShiftOperatorPlan,
    rule: SphereRule,
    x_max: float,
) -> RieszSpatialResult:
    """Principal-value evaluation of R^(k) f(x) with the c_k constant.

    f is the product f(x) = prod_i f_i(x_i) given as the sequence of its n
    1-D callables f_i, each taking an array of coordinates (anything else is
    refused with ValueError), and negligible beyond x_max on every axis, so
    the radial integral stops at x_max + |x|.  At each polar node y = r
    theta, T^y f(x) = prod_i T^{y_i} f_i(x_i) comes from the callable route
    one axis at a time on the plan's angle rules, sum_i A_i evaluations of
    the f_i per node.  kernel, plan and rule must share one gamma.

    The converged flag is the regularity condition of the subtracted
    integrand: |sum w P_k| <= PV_MEAN_TOL * sum w |P_k| over the rule.
    """
    g = kernel.gamma
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != g.n:
        raise ValueError(f"x must have {g.n} components")
    if any(h.values != g.values for h in (plan.gamma, rule.gamma)):
        raise ValueError("kernel, plan and rule gamma indices differ")
    fs = _axis_factors(f, g.n)
    if fs is None:
        raise ValueError(f"riesz_spatial takes f as {g.n} 1-D callables")
    r_max = x_max + float(np.linalg.norm(x))

    ti_t, ti_w = legendre_rule(RADIAL_INNER)
    r_in, w_in = 0.5 * (ti_t + 1.0), 0.5 * ti_w
    to_t, to_w = legendre_rule(RADIAL_OUTER)
    r_out = 1.0 + 0.5 * (r_max - 1.0) * (to_t + 1.0)
    w_out = 0.5 * (r_max - 1.0) * to_w

    all_r = np.concatenate([r_in, r_out])
    tvals = math.prod(_axis_shift(fi, xi, np.multiply.outer(all_r, th), c, w)
                      for fi, xi, th, c, w in zip(fs, x, rule.nodes.T, plan.cos_nodes,
                                                  plan.weights))

    pw = rule.weights * eval_poly(kernel.poly, rule.nodes)
    mean_hat = float(np.sum(pw))          # quadrature-level angular mean (~0)
    fx = math.prod(float(np.asarray(fi(x[i : i + 1])).reshape(()))
                   for i, fi in enumerate(fs))  # T^0 f(x) = f(x)
    g_of_r = tvals @ pw

    inner = float(np.sum(w_in * (g_of_r[: r_in.size] - fx * mean_hat) / r_in))
    outer = float(np.sum(w_out * g_of_r[r_in.size :] / r_out))
    converged = abs(mean_hat) <= PV_MEAN_TOL * float(np.sum(np.abs(pw)))
    return RieszSpatialResult(kernel.c_k * (inner + outer), converged)


def priori_bound_probe(plan: FBPlan, p: float, family: Sequence) -> list:
    """Empirical a-priori-bound ratios (no pass/fail: the constants are unknown).

    family entries are (label, fb_forward(plan, f), Bf) with Bf the analytic
    Laplace-Bessel image as a GridFunction.  Two ratio tables per entry:

      * mixed second derivative on axes (0, 1), realized spectrally via the
        composition identity (multiplier xi_0 xi_1):  ||d_0 d_1 f||_p / ||B f||_p;
      * elliptic control: ||B f||_p / ||sum a_i B_i f||_p with the positive
        coefficients a = (1, 2, 1, ..., 1) (degree-1 elliptic combination; the
        only degree for which the multiplier ratio is homogeneous of degree
        zero).
    """
    g = plan.gamma
    if g.n < 2:
        raise ValueError("priori_bound_probe needs n >= 2")
    a = (1.0, 2.0) + (1.0,) * (g.n - 2)
    xs = np.meshgrid(*plan.freq_grid.nodes, indexing="ij", sparse=True)
    mult_mixed = xs[0] * xs[1]
    mult_elliptic = -sum(a[j] * xs[j] ** 2 for j in range(g.n))
    rows = []
    for label, f_hat, bf in family:
        norm_dd = lp_norm(_apply_multiplier(plan, mult_mixed, f_hat), p)
        norm_pf = lp_norm(_apply_multiplier(plan, mult_elliptic, f_hat), p)
        norm_bf = lp_norm(bf, p)
        rows += [
            {"check": "apriori-mixed-derivative", "label": label, "p": p,
             "lhs": norm_dd, "rhs": norm_bf, "ratio": norm_dd / norm_bf},
            {"check": "apriori-elliptic", "label": label, "p": p,
             "lhs": norm_bf, "rhs": norm_pf, "ratio": norm_bf / norm_pf},
        ]
    return rows


def lp_boundedness_probe(
    kernel: RieszKernel, p_values: Sequence[float], family: Sequence, plan: FBPlan
) -> list:
    """||R^(k) f||_{p,gamma} / ||f||_{p,gamma} tables (empirical only).

    family entries are (label, f, fb_forward(plan, f)); at p = 2 the ratio is
    bounded by the multiplier's sup on the grid (the transform pair is unitary).
    """
    mult = riesz_multiplier(kernel, plan.freq_grid)
    max_mult = float(np.max(np.abs(mult)))
    rows = []
    for label, f, f_hat in family:
        rf = _apply_multiplier(plan, mult, f_hat)
        rows += [{"check": "riesz-lp", "label": label, "p": float(p),
                  "ratio": lp_norm(rf, p) / lp_norm(f, p), "max_multiplier": max_mult}
                 for p in p_values]
    return rows
