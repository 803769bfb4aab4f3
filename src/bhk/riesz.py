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
the spatial and spectral routes agree; reports carry both values.

Spatial quadrature splits the radial integral at |y| = 1: on (eps, 1] the
integrand uses P_k(theta) [T^{r theta} f(x) - f(x)] (the angular mean of P_k
vanishes, so the subtraction cancels the 1/r divergence at quadrature level);
on (1, r_max] it is integrated directly.  The eps -> 0 limit is Richardson
extrapolation with the O(eps^2) rate the subtracted integrand gives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import (
    GammaIndex,
    GridFunction,
    GridInterpolator,
    SphereRule,
    as_gamma,
    build_sphere_rule,
    contract_rows,
    lp_norm,
)
from .polys import EvenPoly, apply_bessel, eval_poly
from .shift import ShiftOperatorPlan, build_shift_plan, _shift_rows
from .special import gamma as _gamma
from .transform import FBPlan, fb_constant, fb_forward, fb_inverse

__all__ = [
    "RieszKernel",
    "RieszSpatialResult",
    "build_riesz_kernel",
    "riesz_multiplier",
    "riesz_spatial",
    "riesz_spectral",
    "apply_bessel_poly_spectral",
    "priori_bound_probe",
    "lp_boundedness_probe",
]

# riesz_spatial: default sphere rule size, radial nodes on (eps, 1], (1, r_max]
SPHERE_POINTS = 64
RADIAL_INNER = 24
RADIAL_OUTER = 48


@dataclass(frozen=True)
class RieszKernel:
    """Kernel data P_k(y)/|y|^{k+n+2|gamma|} with its normalizing constants."""

    poly: EvenPoly
    gamma: GammaIndex
    degree: int
    exponent: float
    c_k_printed: float
    c_k: float


def build_riesz_kernel(p: EvenPoly, gamma, *, allow_classical: bool = False) -> RieszKernel:
    """Validate P_k and assemble the kernel constants.

    allow_classical=True skips the B-harmonicity check (experimental
    first-order / classical-harmonic kernels; no multiplier guarantee).
    """
    g = as_gamma(gamma)
    k = p.degree
    if not allow_classical:
        if k % 2 or k < 2:
            raise ValueError("Riesz-Bessel kernels require even degree k >= 2")
        img = apply_bessel(p, g)
        if not img.is_zero:
            raise ValueError("kernel numerator is not B-harmonic")
    q = g.n + 2.0 * g.abs
    printed = 2.0 ** (0.5 * q) * _gamma(0.5 * (q + k)) / _gamma(0.5 * k)
    return RieszKernel(p, g, k, k + q, printed, fb_constant(g) * printed)


def riesz_multiplier(kernel: RieszKernel, grid) -> np.ndarray:
    """Multiplier field (-1)^{k/2} P_k(xi)/|xi|^k on a grid (0 at xi = 0)."""
    pts = grid.points()
    r2 = np.sum(pts * pts, axis=-1)
    sign = -1.0 if (kernel.degree // 2) % 2 else 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = sign * eval_poly(kernel.poly, pts) / r2 ** (0.5 * kernel.degree)
    return np.where(r2 == 0.0, 0.0, out)


def riesz_spectral(kernel: RieszKernel, f: GridFunction, plan: FBPlan) -> GridFunction:
    """Multiplier route: fb_inverse of (-1)^{k/2} P_k(xi)/|xi|^k * fb_forward(f)."""
    if kernel.degree % 2:
        raise ValueError("spectral route requires even k")
    g_hat = fb_forward(plan, f)
    mult = riesz_multiplier(kernel, plan.freq_grid)
    return fb_inverse(plan, GridFunction(plan.freq_grid, mult * g_hat.values))


def apply_bessel_poly_spectral(p_k: EvenPoly, f: GridFunction, plan: FBPlan) -> GridFunction:
    """P_k(B_1, ..., B_n) f through the multiplier P_k(-xi_1^2, ..., -xi_n^2)."""
    pts = plan.freq_grid.points()
    mult = eval_poly(p_k, -pts * pts)
    g_hat = fb_forward(plan, f)
    return fb_inverse(plan, GridFunction(plan.freq_grid, mult * g_hat.values))


@dataclass(frozen=True)
class RieszSpatialResult:
    limit: float
    eps: tuple
    values: tuple
    converged: bool


def riesz_spatial(
    kernel: RieszKernel,
    f: GridFunction,
    x,
    eps_seq: Sequence[float] = (0.4, 0.2, 0.1, 0.05),
    *,
    plan: ShiftOperatorPlan | None = None,
    rule: SphereRule | None = None,
) -> RieszSpatialResult:
    """Principal-value evaluation of R^(k) f(x) with the c_k constant.

    Returns the extrapolated limit and the per-eps truncated values; the
    converged flag goes False when the last eps step moves the value by more
    than 10x the extrapolation's own correction estimate.
    """
    g = kernel.gamma
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != g.n:
        raise ValueError(f"x must have {g.n} components")
    eps_seq = tuple(float(e) for e in eps_seq)
    if any(e <= 0 or e >= 1 for e in eps_seq) or list(eps_seq) != sorted(
        eps_seq, reverse=True
    ):
        raise ValueError("eps_seq must lie in (0, 1) and decrease")
    plan = plan or build_shift_plan(g, 48)
    rule = rule or build_sphere_rule(g, SPHERE_POINTS)
    interp = GridInterpolator(f, width=8)
    r_max = f.grid.x_max + float(np.linalg.norm(x))

    gl_t, gl_w = np.polynomial.legendre.leggauss(RADIAL_INNER)
    radii = []
    for eps in eps_seq:
        radii.append((eps + 0.5 * (1.0 - eps) * (gl_t + 1.0),
                      0.5 * (1.0 - eps) * gl_w))
    to_t, to_w = np.polynomial.legendre.leggauss(RADIAL_OUTER)
    r_out = 1.0 + 0.5 * (r_max - 1.0) * (to_t + 1.0)
    w_out = 0.5 * (r_max - 1.0) * to_w

    all_r = np.concatenate([r for r, _ in radii] + [r_out])
    ys = (all_r[:, None, None] * rule.nodes[None, :, :]).reshape(-1, g.n)
    rows = [_shift_rows(interp, plan, i, x[i], ys[:, i]) for i in range(g.n)]
    tvals = contract_rows(rows, interp.ext_values).reshape(all_r.size, rule.nodes.shape[0])

    p_theta = eval_poly(kernel.poly, rule.nodes)
    pw = rule.weights * p_theta
    mean_hat = float(np.sum(pw))          # quadrature-level angular mean (~0)
    fx = float(interp(x[None, :])[0])
    g_of_r = tvals @ pw

    outer = float(np.sum(w_out * g_of_r[-r_out.size :] / r_out))
    values = []
    pos = 0
    for (r_in, w_in), eps in zip(radii, eps_seq):
        gr = g_of_r[pos : pos + r_in.size] - fx * mean_hat
        inner = float(np.sum(w_in * gr / r_in))
        values.append(kernel.c_k * (inner + outer))
        pos += r_in.size

    if len(values) >= 2:
        e1, e2 = eps_seq[-2], eps_seq[-1]
        v1, v2 = values[-2], values[-1]
        limit = v2 + (v2 - v1) * e2 * e2 / (e1 * e1 - e2 * e2)
        step = abs(v2 - v1)
        est = abs(limit - v2)
        converged = step <= 10.0 * max(est, 1e-12 * max(1.0, abs(limit)))
    else:
        limit, converged = values[-1], True
    return RieszSpatialResult(limit, eps_seq, tuple(values), converged)


def priori_bound_probe(
    plan: FBPlan,
    p: float,
    family: Sequence,
    *,
    axes: tuple = (0, 1),
    elliptic_coeffs: Sequence[float] | None = None,
) -> list:
    """Empirical a-priori-bound ratios (no pass/fail: the constants are unknown).

    family entries are (label, f, Bf) GridFunction pairs with Bf the analytic
    Laplace-Bessel image.  Two ratio tables per entry:

      * mixed second derivative, realized spectrally via the composition
        identity (multiplier xi_i xi_k):  ||d_i d_k f||_p / ||B f||_p;
      * elliptic control: ||B f||_p / ||sum a_i B_i f||_p with a_i > 0
        (degree-1 elliptic combination; the only degree for which the
        multiplier ratio is homogeneous of degree zero).
    """
    g = plan.gamma
    i, k = axes
    a = tuple(float(v) for v in (elliptic_coeffs or (1.0, 2.0) + (1.0,) * (g.n - 2)))
    if len(a) != g.n or any(v <= 0 for v in a):
        raise ValueError("elliptic_coeffs must be positive, one per axis")
    pts = plan.freq_grid.points()
    mult_mixed = pts[..., i] * pts[..., k]
    mult_elliptic = -sum(a[j] * pts[..., j] ** 2 for j in range(g.n))
    rows = []
    for label, f, bf in family:
        f_hat = fb_forward(plan, f)
        dd = fb_inverse(plan, GridFunction(plan.freq_grid, mult_mixed * f_hat.values))
        pf = fb_inverse(plan, GridFunction(plan.freq_grid, mult_elliptic * f_hat.values))
        norm_bf = lp_norm(bf, p)
        rows.append(
            {
                "check": "apriori-mixed-derivative",
                "label": label,
                "p": p,
                "axes": [i, k],
                "lhs": lp_norm(dd, p),
                "rhs": norm_bf,
                "ratio": lp_norm(dd, p) / norm_bf,
            }
        )
        rows.append(
            {
                "check": "apriori-elliptic",
                "label": label,
                "p": p,
                "coeffs": list(a),
                "lhs": norm_bf,
                "rhs": lp_norm(pf, p),
                "ratio": norm_bf / lp_norm(pf, p),
            }
        )
    return rows


def lp_boundedness_probe(
    kernel: RieszKernel, p_values: Sequence[float], family: Sequence, plan: FBPlan
) -> list:
    """||R^(k) f||_{p,gamma} / ||f||_{p,gamma} tables (empirical only).

    family entries are (label, f) pairs; at p = 2 the ratio is bounded by the
    multiplier's sup on the grid (the transform pair is unitary there).
    """
    mult = riesz_multiplier(kernel, plan.freq_grid)
    max_mult = float(np.max(np.abs(mult)))
    rows = []
    for label, f in family:
        rf = riesz_spectral(kernel, f, plan)
        for p in p_values:
            nf = lp_norm(f, p)
            rows.append(
                {
                    "check": "riesz-lp",
                    "label": label,
                    "p": float(p),
                    "k": kernel.degree,
                    "norm_rf": lp_norm(rf, p),
                    "norm_f": nf,
                    "ratio": lp_norm(rf, p) / nf,
                    "max_multiplier": max_mult,
                }
            )
    return rows
