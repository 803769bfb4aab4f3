"""Bessel generalized shift operator T^y and the B-convolution it induces.

T^y phi(x) is the weighted angular average of phi evaluated at the per-axis
law-of-cosines points

    (x_i, y_i)_alpha = sqrt(x_i^2 + y_i^2 - 2 x_i y_i cos(alpha_i)),

against the sin^{2 gamma_i - 1} weights of `special.angle_rule`, normalized
so that T^y 1 = 1.  It is the translation adapted to the Laplace-Bessel
operator: T^0 is the identity, it is symmetric in x and y, preserves the
dmu_gamma integral, and acts on the Fourier-Bessel kernel as multiplication
by prod j_{gamma_i-1/2}(y_i t_i).

The B-convolution is (f * phi)(x) = int f(y) T^y phi(x) dmu_gamma(y).

T^y acts on each axis by its own angular average, so for a product
phi(x) = prod_i phi_i(x_i) it factors, T^y phi(x) = prod_i T^{y_i} phi_i(x_i)
(sum factorization: sum_i A_i evaluations per point instead of prod_i A_i).
It is computed along two routes, per axis wherever the input allows:

* callable: `shift` takes phi either as one callable on points (..., n),
  evaluated on the tensor of the per-axis law-of-cosines coordinates by
  `grids._sample_tensor` (the sampler of `TensorGrid.sample`, in chunks of
  whole first-axis slices; as there, the points are axis-major, each
  coordinate p[..., i] a contiguous plane) and the angle weights applied by
  `grids.contract_axes`, prod_i A_i evaluations; or as n 1-D factors,
  shifted one axis at a time by `_axis_shift` (in chunks of at most
  special.SHIFT_BUDGET points) and the n values multiplied.  `b_convolve`
  takes the n factors only and builds one kernel matrix per axis (A_i
  evaluations of phi_i per unordered node pair), applied with
  `contract_axes`.
  `riesz.riesz_spatial` shifts its n factors to every polar node the same
  way, and `meanvalue.shifted_mean_value_check` shifts an `EvenPoly` one
  axis and one distinct exponent at a time.
* sampled (`shift_grid`): the shifted argument on axis i depends only on
  (x_i, y_i, alpha_i), so per axis each node x_i gives one row, the
  angle-weighted sum of interpolation stencil rows on the node columns
  (the even reflection at 0 read off the nodes it mirrors), and
  `grids.contract_axes` applies these rows to the grid samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import special
from .grids import (
    GammaIndex,
    GridFunction,
    GridInterpolator,
    _same_gamma,
    _sample_tensor,
    _vector,
    as_gamma,
    contract_axes,
)
from .special import angle_rule

__all__ = [
    "ShiftOperatorPlan",
    "ShiftTruncationWarning",
    "build_shift_plan",
    "shift",
    "shift_grid",
    "b_convolve",
]

MAX_ANGLES = 384
# relative change between successive angle doublings at which shift stops
SHIFT_TOL = 1e-10
# Lagrange stencil width of shift_grid: its O(h^10) error keeps the
# dmu_gamma-integral of T^y f within ~1e-9 of f's at default resolutions
SHIFT_GRID_STENCIL = 10


class ShiftTruncationWarning(UserWarning):
    """More than 1% of shifted evaluation points fell beyond x_max."""


@dataclass(frozen=True)
class ShiftOperatorPlan:
    """Immutable per-gamma angular quadrature data for T^y.

    cos_nodes/weights hold the per-axis `special.angle_rule`s, which carry
    the normalizing constant c_gamma = prod Gamma(g_i+1/2)/(Gamma(1/2)
    Gamma(g_i)), so the per-axis weights each sum to 1 (T^y 1 = 1 by
    construction).
    """

    gamma: GammaIndex
    angles: int
    cos_nodes: tuple
    weights: tuple

    def __post_init__(self):
        total = 1.0
        for w in self.weights:
            total *= float(np.sum(w))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"angular weights normalize to {total!r}, expected 1")


def build_shift_plan(gamma, angles: int = 48) -> ShiftOperatorPlan:
    g = as_gamma(gamma)
    rules = [angle_rule(gi, angles) for gi in g]
    return ShiftOperatorPlan(
        g, angles, tuple(r[0] for r in rules), tuple(r[1] for r in rules)
    )


def _law_of_cosines(x, y, cos_a):
    sq = x * x + y * y - 2.0 * x * y * cos_a
    return np.sqrt(np.maximum(sq, 0.0))


def _axis_shift(phi_i, x, y, cos_a, w):
    """1-D T^y phi_i(x) for broadcastable coordinate arrays x, y: the callable
    route on one axis, phi_i taking an array of coordinates.

    phi_i is evaluated on the law-of-cosines points of the flattened
    broadcast batch, at most special.SHIFT_BUDGET points at once, and the
    angle weights contracted row by row with einsum; returns an array of the
    broadcast shape.  A BLAS matrix-vector product rounds a row by its
    position in the batch, einsum does not: for phi_i that evaluates each
    point on its own, an entry's value does not depend on the rest of the
    batch or on the chunk size, and equal (x, y) pairs get equal values.
    """
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    xs, ys = np.broadcast_to(x, shape).flat, np.broadcast_to(y, shape).flat
    out = np.empty(shape)
    flat = out.reshape(-1)
    step = max(1, special.SHIFT_BUDGET // len(cos_a))
    for lo in range(0, flat.size, step):
        z = _law_of_cosines(xs[lo : lo + step][:, None], ys[lo : lo + step][:, None],
                            cos_a)
        flat[lo : lo + step] = np.einsum("ij,j->i", phi_i(z), w)
    return out


def _axis_factors(phi, n: int):
    """None for one callable on points (..., n); else the list of the n 1-D
    callables of a product phi, checked."""
    if callable(phi):
        return None
    phis = list(phi) if np.iterable(phi) else []
    if len(phis) != n or not all(map(callable, phis)):
        raise ValueError(f"expected one callable or {n} 1-D callables")
    return phis


def _factor_product(phis, x) -> float:
    """prod_i phi_i(x_i) at one point x, multiplied in axis order."""
    return math.prod(float(np.asarray(h(x[i : i + 1])).reshape(()))
                     for i, h in enumerate(phis))


def shift(plan: ShiftOperatorPlan, phi, x, y, *, adaptive: bool = True) -> float:
    """T^y phi(x) for phi on the positive orthant.

    phi is either one callable receiving points as an array of shape
    (..., n), or a sequence of n 1-D callables phi_i, each taking an array of
    coordinates, for the product prod_i phi_i(x_i); that one is shifted one
    axis at a time (sum_i A_i evaluations instead of prod_i A_i) and the n
    values multiplied in axis order.  A non-finite x or y raises ValueError
    before any evaluation.  y = 0 short-circuits to phi(x) exactly
    (initial condition of the shift).  With adaptive=True the angular rule,
    the same m points on every axis, is doubled until successive values
    differ by less than SHIFT_TOL relative (capped at MAX_ANGLES points per
    axis).
    """
    n = plan.gamma.n
    x, y = _vector(x, n, "x"), _vector(y, n, "y")
    phis = _axis_factors(phi, n)
    if np.all(y == 0.0):
        if phis is None:
            return float(np.asarray(phi(x.reshape(1, n)), dtype=float).reshape(()))
        return _factor_product(phis, x)

    def value(m):
        rules = [angle_rule(gi, m) for gi in plan.gamma]
        if phis is None:
            z = [_law_of_cosines(xi, yi, c) for xi, yi, (c, _) in zip(x, y, rules)]
            return float(contract_axes([w[None, :] for _, w in rules],
                                       _sample_tensor(phi, z)).reshape(()))
        return math.prod(float(_axis_shift(h, x[i : i + 1], y[i : i + 1], *r).reshape(()))
                         for i, (h, r) in enumerate(zip(phis, rules)))

    m = plan.angles
    val = value(m)
    if not adaptive:
        return val
    while 2 * m <= MAX_ANGLES:
        m *= 2
        new = value(m)
        if abs(new - val) < SHIFT_TOL * max(1.0, abs(new)):
            return new
        val = new
    return val


def shift_grid(plan: ShiftOperatorPlan, f: GridFunction, y) -> GridFunction:
    """T^y f sampled at every grid node (sampled route).

    Off-node arguments are evaluated by tensor-product local Lagrange
    interpolation (SHIFT_GRID_STENCIL points per axis, fewer on a smaller
    grid) with even reflection at 0 and clamping at x_max.  Per axis, row p of
    a (nodes, nodes) matrix is sum_alpha w(alpha) L((x_p, y)_alpha), L the
    stencil row on node columns (a mirrored node's weight lands on the node
    it mirrors), and `contract_axes` applies these matrices to the samples,
    so the cost is O(sum_i N_i * A_i * width + N^n * sum_i N_i).  Each call
    makes its own `GridInterpolator`, which reads the stencil tables the
    grid holds (built by the grid's first shift_grid call) and counts this
    call's clamped points alone: ShiftTruncationWarning is emitted when > 1%
    of this call's evaluation points are clamped.  A non-finite y raises
    ValueError before any evaluation.
    """
    grid = f.grid
    y = _vector(y, grid.n, "y")
    _same_gamma("plan and grid", plan, grid)
    if np.all(y == 0.0):
        return GridFunction(grid, f.values.copy())
    interp = GridInterpolator(grid, width=min(SHIFT_GRID_STENCIL, min(grid.shape) // 2 * 2))
    mats = [interp.dense_axis_matrix(ax, _law_of_cosines(x[:, None], y[ax], c), w)
            for ax, (x, c, w) in enumerate(zip(grid.nodes, plan.cos_nodes, plan.weights))]
    acc = contract_axes(mats, f.values)
    if interp.clip_fraction > 0.01:
        warnings.warn(
            f"{100 * interp.clip_fraction:.1f}% of shift evaluations beyond "
            f"x_max = {grid.x_max} were clamped (truncation bias)",
            ShiftTruncationWarning,
            stacklevel=2,
        )
    return GridFunction(grid, acc)


def b_convolve(plan: ShiftOperatorPlan, f: GridFunction, phi) -> GridFunction:
    """(f * phi)(x) = int f(y) T^y phi(x) dmu_gamma(y) at every grid node, for
    the product kernel phi(x) = prod_i phi_i(x_i) given as the sequence of
    its n 1-D callables phi_i, each taking an array of coordinates (one
    callable on points (..., n) is refused with ValueError).

    The y-integral uses the grid quadrature; T^y phi comes from the callable
    route, which evaluates the phi_i themselves (no sampling or
    interpolation).  Per axis, K_i[x, y] = w_i(y) T^{y} phi_i(x) on the
    axis's nodes, and f * phi = contract_axes([K_1, ..., K_n], f),
    O(sum_i N_i^2 A_i + N^n sum_i N_i).  T^y phi_i(x) = T^x phi_i(y), the
    law-of-cosines points are bitwise symmetric in x and y (2 x y is
    2 (x y) exactly) and `_axis_shift` gives equal points equal values, so
    each unordered node pair is shifted once and mirrored, N_i (N_i + 1) / 2
    A_i evaluations of phi_i per axis, bitwise the kernel of all ordered
    pairs.
    """
    grid = f.grid
    _same_gamma("plan and grid", plan, grid)
    phis = _axis_factors(phi, grid.n)
    if phis is None:
        raise ValueError(f"b_convolve takes phi as {grid.n} 1-D callables")
    mats = []
    for phi_i, x, c, w, wx in zip(phis, grid.nodes, plan.cos_nodes, plan.weights,
                                  grid.weights):
        a, b = np.triu_indices(len(x))
        mat = np.empty((len(x), len(x)))
        mat[a, b] = mat[b, a] = _axis_shift(phi_i, x[a], x[b], c, w)
        mat *= wx
        mats.append(mat)
    return GridFunction(grid, contract_axes(mats, f.values))
