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
  * principal-value kernel: F[pv P_k(x)/|x|^{k+n+2|g|}](y) is the Riesz
    multiplier (-1)^{k/2} P_k(y)/|y|^k over c_k_printed
    (`bhk.riesz.pv_kernel_transform`);
  * convolution: F(f * phi) = S * F f * F phi with
        S = prod_i 2^{g_i-1/2} Gamma(g_i+1/2) = 1/c_fb
    (the constant-free identity holds only when S = 1, e.g. all g_i = 1/2).

The kernel is a product of 1-D kernels: the plan holds, per axis, the
weighted matrix each direction applies, built once; fb_forward/fb_inverse
are one `grids.contract_axes` call on them, O(n N^{n+1}), and c_fb scales
the fresh result in place.  fb_forward_at builds forward rows the same way
for its points' U_i distinct coordinates per axis, U_i N kernel values, and
contracts on their tensor, O(N^n U_1 + N^{n-1} U_1 U_2 + ...): P scattered
points can make that tensor P^n entries, open meshes such as the report's
probes only P.  The frequency grid keeps the spatial point count but extends
x_max slightly so the inverse quadrature captures the transform's tail;
round-trip accuracy on the unit Gaussian is verified at plan construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
)
from .polys import EvenPoly, _require_b_harmonic, eval_poly
from .special import gamma as _gamma, gauss_jacobi_on, normalized_j

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
    """The matrices of the transform pair on a grid and its frequency grid.

    With x, w_x the spatial nodes and weights of axis i, y, w_y the
    frequency ones and K = j_{g_i-1/2}(x y^T):

        forward[i] = K^T w_x   (forward[i][b, a] = K[a, b] w_x[a]),
        inverse[i] = K w_y     (inverse[i][a, b] = K[a, b] w_y[b]);

    each direction applies its matrices through `grids.contract_axes` and
    multiplies by c_fb.  forward[i] is the transposed view of a C-ordered
    array, inverse[i] C-ordered: the layout decides BLAS's rounding at n = 1.
    All are read-only, since the report's suites share one plan.
    FBPlan.from_grids builds them; build_fb_plan adds self_test_error.
    """

    gamma: GammaIndex
    grid: TensorGrid
    freq_grid: TensorGrid
    c_fb: float
    forward: tuple
    inverse: tuple
    self_test_error: float | None = None

    @classmethod
    def from_grids(cls, grid: TensorGrid, freq_grid: TensorGrid) -> "FBPlan":
        """The plan on (grid, freq_grid), without build_fb_plan's self-test."""
        g = grid.gamma
        forward, inverse = [], []
        for gi, x, wx, y, wy in zip(g, grid.nodes, grid.weights,
                                    freq_grid.nodes, freq_grid.weights):
            k = normalized_j(gi - 0.5, x[:, None] * y[None, :])
            forward.append((k * wx[:, None]).T)
            inverse.append(k * wy[None, :])
        for m in forward + inverse:
            m.flags.writeable = False
        return cls(g, grid, freq_grid, fb_constant(g), tuple(forward), tuple(inverse))


def build_fb_plan(grid: TensorGrid) -> FBPlan:
    """The transform pair's plan on grid, holding its self-test error (max abs
    round-trip error on the unit Gaussian); ValueError above SELF_TEST_TOL."""
    g = grid.gamma
    # the inverse must reach the transform's tail: e^{-|y|^2/4} times the
    # measure needs |y| ~ 10 before it clears the 1e-6 self-test budget
    freq_grid = build_tensor_grid(g, max(grid.x_max + FREQ_MARGIN, 10.0), grid.shape[0])
    plan = FBPlan.from_grids(grid, freq_grid)
    f = grid.sample(lambda p: np.exp(-np.sum(p * p, axis=-1)))
    back = fb_inverse(plan, fb_forward(plan, f))
    err = float(np.max(np.abs(back.values - f.values)))
    if err > SELF_TEST_TOL:
        raise ValueError(f"FB plan round-trip self-test failed: max abs error {err:.3e}")
    return replace(plan, self_test_error=err)


def _require_grid(got: TensorGrid, want: TensorGrid, what: str) -> None:
    """ValueError unless got has want's gamma and, axis by axis, its nodes."""
    if got is want:
        return
    if got.gamma != want.gamma or not all(
        np.array_equal(a, b) for a, b in zip(got.nodes, want.nodes)
    ):
        raise ValueError(f"grid mismatch: {what}")


def _contract(plan: FBPlan, mats, values) -> np.ndarray:
    """c_fb * contract_axes(mats, values), scaled in place."""
    out = contract_axes(mats, values)
    out *= plan.c_fb
    return out


def fb_forward(plan: FBPlan, f: GridFunction) -> GridFunction:
    """Forward transform of a spatial GridFunction onto the frequency grid."""
    _require_grid(f.grid, plan.grid, "f is not on the plan's input grid")
    return GridFunction(plan.freq_grid, _contract(plan, plan.forward, f.values))


def fb_inverse(plan: FBPlan, g: GridFunction) -> GridFunction:
    """Inverse transform of a frequency GridFunction back to the spatial grid."""
    _require_grid(g.grid, plan.freq_grid, "g is not on the plan's frequency grid")
    return GridFunction(plan.grid, _contract(plan, plan.inverse, g.values))


def fb_forward_at(plan: FBPlan, f: GridFunction, points) -> np.ndarray:
    """Forward transform evaluated at arbitrary frequency points (..., n).

    Same quadrature as fb_forward, so values off the frequency grid
    (worked-example points, scaled grids) come from the identical
    discretization: its contraction on the tensor of the points' distinct
    coordinates per axis, whose rows FBPlan.from_grids's forward expression
    (j(x y^T) w_x)^T builds in its transposed layout (which decides BLAS's
    rounding at n = 1), so a frequency node y_b gets row b of plan.forward
    bitwise.  The points are read from that tensor; open meshes such as the
    report's probes make it the points themselves, P scattered points P^n
    entries.  A point's last bits depend on the call's other points: up to
    about 1e-15 relative, even for the first point alone.
    """
    _require_grid(f.grid, plan.grid, "f is not on the plan's input grid")
    pts = np.asarray(points, dtype=float)
    coords, inv = zip(*map(_distinct, pts.reshape(-1, plan.gamma.n).T))
    rows = [(normalized_j(gi - 0.5, x[:, None] * ys[None, :]) * wx[:, None]).T
            for gi, x, wx, ys in zip(plan.gamma, plan.grid.nodes, plan.grid.weights, coords)]
    return _contract(plan, rows, f.values)[inv].reshape(pts.shape[:-1])


def _distinct(y: np.ndarray):
    """Distinct entries of y in order of first occurrence (a prefix of the
    points keeps its tensor positions, not its values: see fb_forward_at),
    and each entry's index among them."""
    _, first, inv = np.unique(y, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return y[first[order]], np.argsort(order)[inv]


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


def _check_eps_seq(eps_seq, upper: float) -> tuple:
    """eps_seq as floats: nonempty, inside (0, upper) and strictly decreasing."""
    e = tuple(float(v) for v in eps_seq)
    if not e or not upper > e[0] or e[-1] <= 0 or any(a <= b for a, b in zip(e, e[1:])):
        raise ValueError(
            f"eps_seq must lie in (0, {upper:g}) and strictly decrease: {list(e)}"
        )
    return e


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
    dsigma(theta), taken on PV_RADIAL_POINTS-point Gauss-Legendre rules on
    [0, r_max] and [eps, r_max] (`special.gauss_jacobi_on`); Phi vanishes at
    r = 0 because f has zero weighted mean (checked, rel. PV_MEAN_TOL).  Each
    side is extrapolated to eps = 0 by Neville's scheme over every tabulated
    eps (`_extrapolate`): in eps for the exponent-lowered side, which is
    O(eps)-regular, and in eps^2 for the truncated side, which misses
    int_0^eps r^{-1} Phi = O(eps^2); the limits agree for Schwartz-class phi.
    """
    eps_seq = _check_eps_seq(eps_seq, r_max)
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

    r0, wr0 = gauss_jacobi_on(PV_RADIAL_POINTS, 0.0, 0.0, 0.0, r_max)
    prof0 = radial_profile(r0)  # these nodes do not depend on eps
    lhs_vals, rhs_vals = [], []
    for eps in eps_seq:
        lhs_vals.append(float(np.sum(wr0 * r0 ** (eps - 1.0) * prof0)))
        r, wr = gauss_jacobi_on(PV_RADIAL_POINTS, 0.0, 0.0, eps, r_max)
        rhs_vals.append(float(np.sum(wr * radial_profile(r) / r)))
    return PVLimitResult(
        eps_seq,
        tuple(lhs_vals),
        tuple(rhs_vals),
        _extrapolate(eps_seq, lhs_vals, order=1),
        _extrapolate(eps_seq, rhs_vals, order=2),
    )
