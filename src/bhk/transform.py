"""Fourier-Bessel transforms on tensor grids and the closed-form transform
identities they are checked against.

Convention (fixed after cross-validation by independent quadrature):

    F[f](y)   = c_fb * int f(x) prod_i j_{g_i-1/2}(x_i y_i) dmu_gamma(x),
    c_fb      = prod_i [2^{g_i-1/2} Gamma(g_i+1/2)]^{-1},

with the *same* constant on the inverse, which makes F an involution
(F o F = id) -- verified by the plan self-test.  Under this convention:

  * Gaussian pair: F[e^{-a|x|^2}](y) = (2a)^{-(|g|+n/2)} e^{-|y|^2/(4a)};
  * B-harmonic Gaussian: F[P_k e^{-|x|^2}](y)
        = 2^{-(|g|+k+n/2)} (-1)^{k/2} P_k(y) e^{-|y|^2/4}  (k even);
  * principal-value kernel: F[pv P_k(x)/|x|^{k+n+2|g|}](y)
        = 2^{-(n+2|g|)/2} (-1)^{k/2} Gamma(k/2)/Gamma((k+n+2|g|)/2)
          * P_k(y)/|y|^k;
  * convolution: F(f * phi) = S * F f * F phi with
        S = prod_i 2^{g_i-1/2} Gamma(g_i+1/2) = 1/c_fb
    (the constant-free identity holds only when S = 1, e.g. all g_i = 1/2).

The kernel is a product of 1-D kernels: fb_forward/fb_inverse apply one
kernel matrix per axis (`grids.contract_axes`, O(n N^{n+1})), fb_forward_at
one kernel row per axis and point (`grids.contract_rows`).  The frequency
grid keeps the spatial point count but extends x_max slightly so the inverse
quadrature captures the transform's tail; round-trip accuracy on the unit
Gaussian is verified at plan construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import (
    GammaIndex,
    GridFunction,
    SphereRule,
    TensorGrid,
    as_gamma,
    build_tensor_grid,
    contract_axes,
    contract_rows,
)
from .polys import EvenPoly, apply_bessel, eval_poly
from .special import gamma as _gamma, normalized_j

__all__ = [
    "FBPlan",
    "build_fb_plan",
    "fb_forward",
    "fb_inverse",
    "fb_forward_at",
    "gaussian_transform",
    "harmonic_gaussian_transform",
    "spectral_convolution_factor",
    "PVLimitResult",
    "pv_regularized_limit",
    "pv_kernel_transform",
]

FREQ_MARGIN = 2.0  # the frequency grid reaches max(x_max + FREQ_MARGIN, 10)
SELF_TEST_TOL = 1e-6  # max abs round-trip error on the unit Gaussian per plan
PV_RADIAL_POINTS = 240  # Gauss-Legendre radial nodes of pv_regularized_limit
PV_MEAN_TOL = 1e-8  # its relative zero-mean tolerance on f_angular


def fb_constant(gamma) -> float:
    """c_fb = prod_i [2^{gamma_i - 1/2} Gamma(gamma_i + 1/2)]^{-1}."""
    out = 1.0
    for gi in as_gamma(gamma):
        out /= 2.0 ** (gi - 0.5) * _gamma(gi + 0.5)
    return out


def spectral_convolution_factor(gamma) -> float:
    """S with F(f * phi) = S * F f * F phi; equals 1/c_fb."""
    return 1.0 / fb_constant(gamma)


@dataclass(frozen=True)
class FBPlan:
    """Precomputed kernel matrices for the transform pair on a grid.

    kernels[i][a, b] = j_{g_i-1/2}(x_a y_b) on (spatial node a, frequency
    node b); both directions contract against their side's measure weights
    and multiply by c_fb.
    """

    gamma: GammaIndex
    grid: TensorGrid
    freq_grid: TensorGrid
    c_fb: float
    kernels: tuple


def build_fb_plan(grid: TensorGrid) -> FBPlan:
    """Kernel matrices of the transform pair; ValueError if the round trip
    fails SELF_TEST_TOL (grid too coarse for the kernel)."""
    g = grid.gamma
    # the inverse must reach the transform's tail: e^{-|y|^2/4} times the
    # measure needs |y| ~ 10 before it clears the 1e-6 self-test budget
    freq_grid = build_tensor_grid(g, max(grid.x_max + FREQ_MARGIN, 10.0), grid.shape[0])
    kernels = []
    for i in range(g.n):
        nu = g[i] - 0.5
        args = grid.nodes[i][:, None] * freq_grid.nodes[i][None, :]
        kernels.append(normalized_j(nu, args))
    plan = FBPlan(g, grid, freq_grid, fb_constant(g), tuple(kernels))
    f = grid.sample(lambda p: np.exp(-np.sum(p * p, axis=-1)))
    back = fb_inverse(plan, fb_forward(plan, f))
    err = float(np.max(np.abs(back.values - f.values)))
    if err > SELF_TEST_TOL:
        raise ValueError(f"FB plan round-trip self-test failed: max abs error {err:.3e}")
    return plan


def fb_forward(plan: FBPlan, f: GridFunction) -> GridFunction:
    """Forward transform of a spatial GridFunction onto the frequency grid."""
    if f.grid is not plan.grid and f.grid.shape != plan.grid.shape:
        raise ValueError("grid mismatch: f is not on the plan's input grid")
    mats = [k.T * w[None, :] for k, w in zip(plan.kernels, plan.grid.weights)]
    return GridFunction(plan.freq_grid, plan.c_fb * contract_axes(mats, f.values))


def fb_inverse(plan: FBPlan, g: GridFunction) -> GridFunction:
    """Inverse transform of a frequency GridFunction back to the spatial grid."""
    if g.grid is not plan.freq_grid and g.grid.shape != plan.freq_grid.shape:
        raise ValueError("grid mismatch: g is not on the plan's frequency grid")
    mats = [k * w[None, :] for k, w in zip(plan.kernels, plan.freq_grid.weights)]
    return GridFunction(plan.grid, plan.c_fb * contract_axes(mats, g.values))


def fb_forward_at(plan: FBPlan, f: GridFunction, points) -> np.ndarray:
    """Forward transform evaluated at arbitrary frequency points (..., n).

    Same quadrature as fb_forward, contracted against freshly evaluated
    kernels, so values off the frequency grid (worked-example points, scaled
    grids) come from the identical discretization.  Each axis takes one
    normalized_j call on the (points, nodes) block of its arguments.
    """
    if f.grid is not plan.grid and f.grid.shape != plan.grid.shape:
        raise ValueError("grid mismatch: f is not on the plan's input grid")
    pts = np.asarray(points, dtype=float)
    flat = pts.reshape(-1, plan.gamma.n)
    rows = [normalized_j(plan.gamma[ax] - 0.5, np.outer(flat[:, ax], f.grid.nodes[ax]))
            * f.grid.weights[ax] for ax in range(plan.gamma.n)]
    return plan.c_fb * contract_rows(rows, f.values).reshape(pts.shape[:-1])


def gaussian_transform(gamma, alpha: float, y) -> float | np.ndarray:
    """Closed-form F[e^{-alpha |x|^2}](y) = (2 alpha)^{-(|g|+n/2)} e^{-|y|^2/(4 alpha)}."""
    g = as_gamma(gamma)
    alpha = float(alpha)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=float)
    r2 = np.sum(y * y, axis=-1)
    out = (2.0 * alpha) ** (-(g.abs + 0.5 * g.n)) * np.exp(-r2 / (4.0 * alpha))
    return float(out) if out.ndim == 0 else out


def _require_b_harmonic(p: EvenPoly, gamma) -> None:
    img = apply_bessel(p, gamma)
    if not img.is_zero:
        raise ValueError("polynomial is not B-harmonic (apply_bessel != 0)")


def harmonic_gaussian_transform(p: EvenPoly, gamma, y) -> float | np.ndarray:
    """Closed-form F[P_k(x) e^{-|x|^2}](y) for B-harmonic P_k of even degree k.

    Equals 2^{-(|g|+k+n/2)} (-1)^{k/2} P_k(y) e^{-|y|^2/4}; rejects
    non-B-harmonic input.
    """
    g = as_gamma(gamma)
    if p.degree % 2:
        raise ValueError("only even degrees are supported (i^k must be real)")
    _require_b_harmonic(p, g)
    y = np.asarray(y, dtype=float)
    r2 = np.sum(y * y, axis=-1)
    sign = -1.0 if (p.degree // 2) % 2 else 1.0
    out = (
        2.0 ** (-(g.abs + p.degree + 0.5 * g.n))
        * sign
        * eval_poly(p, y)
        * np.exp(-r2 / 4.0)
    )
    return float(out) if np.ndim(out) == 0 else out


def pv_kernel_transform(p: EvenPoly, gamma, y) -> float:
    """Closed-form transform of the principal-value kernel P_k(x)/|x|^{k+n+2|g|}.

    F[pv K](y) = 2^{-(n+2|g|)/2} (-1)^{k/2} Gamma(k/2)/Gamma((k+n+2|g|)/2)
                 * P_k(y)/|y|^k, homogeneous of degree 0; y = 0 is singular.
    """
    g = as_gamma(gamma)
    k = p.degree
    if k % 2 or k < 2:
        raise ValueError("pv_kernel_transform requires even degree k >= 2")
    _require_b_harmonic(p, g)
    y = np.asarray(y, dtype=float).reshape(-1)
    r = math.sqrt(float(np.sum(y * y)))
    if r == 0.0:
        raise ValueError("pv kernel transform is singular at y = 0")
    sign = -1.0 if (k // 2) % 2 else 1.0
    q = g.n + 2.0 * g.abs
    return (
        2.0 ** (-0.5 * q)
        * sign
        * _gamma(0.5 * k)
        / _gamma(0.5 * (k + q))
        * eval_poly(p, y)
        / r**k
    )


@dataclass(frozen=True)
class PVLimitResult:
    """Per-epsilon values and extrapolated limits of the two p.v. routes."""

    eps: tuple
    lhs_values: tuple
    rhs_values: tuple
    lhs_limit: float
    rhs_limit: float


def _extrapolate(eps: Sequence[float], vals: Sequence[float], order: int) -> float:
    """Richardson/Neville extrapolation to eps = 0 in the variable eps^order.

    Uses every tabulated eps: with the default 4-term sequence the plain
    2-point rule leaves the Gamma-function curvature of the exponent-lowered
    integral visible at ~1e-3 relative, an order above the check tolerance.
    """
    x = [e**order for e in eps]
    t = [float(v) for v in vals]
    for level in range(1, len(t)):
        for i in range(len(t) - level):
            t[i] = t[i + 1] + (t[i + 1] - t[i]) * x[i + level] / (x[i] - x[i + level])
    return t[0]


def pv_regularized_limit(
    f_angular: Callable,
    phi: Callable,
    rule: SphereRule,
    eps_seq: Sequence[float] = (0.4, 0.2, 0.1, 0.05),
    *,
    r_max: float = 8.0,
) -> PVLimitResult:
    """Both regularizations of int f(x/|x|) |x|^{-(n+2|g|)} phi(x) dmu_gamma.

    lhs(eps) lowers the kernel exponent by eps over the whole orthant;
    rhs(eps) truncates the unmodified kernel to |x| > eps.  In polar form both
    reduce to radial integrals of Phi(r) = int_{S_+} f(theta) phi(r theta)
    dsigma(theta), which vanishes at r = 0 because f has zero weighted mean
    (checked, rel. PV_MEAN_TOL).  Each side is Richardson-extrapolated from its
    last two values: the exponent-lowered side is O(eps)-regular, while the
    truncated side misses int_0^eps r^{-1} Phi = O(eps^2); the limits agree
    for Schwartz-class phi.
    """
    eps_seq = tuple(float(e) for e in eps_seq)
    if any(e <= 0 for e in eps_seq) or list(eps_seq) != sorted(eps_seq, reverse=True):
        raise ValueError("eps_seq must be positive and strictly decreasing")
    fvals = np.asarray(f_angular(rule.nodes), dtype=float)
    mean = float(np.dot(rule.weights, fvals))
    scale = float(np.dot(rule.weights, np.abs(fvals)))
    if abs(mean) > PV_MEAN_TOL * max(scale, 1e-300):
        raise ValueError(
            f"f_angular has nonzero weighted mean {mean:.3e} (tolerance {PV_MEAN_TOL})"
        )
    fw = rule.weights * fvals

    def radial_profile(r: np.ndarray) -> np.ndarray:
        pts = r[:, None, None] * rule.nodes[None, :, :]
        ph = np.asarray(phi(pts), dtype=float)
        return ph @ fw

    half = np.polynomial.legendre.leggauss(PV_RADIAL_POINTS)
    lhs_vals, rhs_vals = [], []
    for eps in eps_seq:
        t, w = half
        r = 0.5 * r_max * (t + 1.0)
        wr = 0.5 * r_max * w
        lhs_vals.append(float(np.sum(wr * r ** (eps - 1.0) * radial_profile(r))))
        r = eps + 0.5 * (r_max - eps) * (t + 1.0)
        wr = 0.5 * (r_max - eps) * w
        rhs_vals.append(float(np.sum(wr * radial_profile(r) / r)))
    return PVLimitResult(
        eps_seq,
        tuple(lhs_vals),
        tuple(rhs_vals),
        _extrapolate(eps_seq, lhs_vals, order=1),
        _extrapolate(eps_seq, rhs_vals, order=2),
    )
