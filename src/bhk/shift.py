"""Bessel generalized shift operator T^y and the B-convolution it induces.

T^y phi(x) is the weighted angular average of phi evaluated at the per-axis
law-of-cosines points

    (x_i, y_i)_alpha = sqrt(x_i^2 + y_i^2 - 2 x_i y_i cos(alpha_i)),

against the sin^{2 gamma_i - 1} weights, normalized so that T^y 1 = 1.  It is
the translation adapted to the Laplace-Bessel operator: T^0 is the identity,
it is symmetric in x and y, preserves the dmu_gamma integral, and acts on the
Fourier-Bessel kernel as multiplication by prod j_{gamma_i-1/2}(y_i t_i).

The B-convolution is (f * phi)(x) = int f(y) T^y phi(x) dmu_gamma(y).

T^y is computed along two routes:

* callable (`_shift_values`, used by `shift` and `b_convolve`): phi is
  evaluated once on the tensor of law-of-cosines points of a batch of (x, y)
  pairs, prod_i A_i evaluations per pair, and the angle weights contracted.
* sampled (`_shift_rows`, used by `shift_grid` and `riesz.riesz_spatial`):
  the shifted argument on axis i depends only on (x_i, y_i, alpha_i), so per
  axis each (x_i, y_i) pair gives one row, the angle-weighted sum of
  interpolation stencil rows over the extended nodes.  T^y of grid samples
  applies these rows through the shared contractions of `bhk.grids`:
  `contract_axes` for every grid node at one y (`shift_grid`), and
  `contract_rows` for one x at many y (`riesz_spatial`).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import (
    GammaIndex,
    GridFunction,
    GridInterpolator,
    as_gamma,
    contract_axes,
    jacobi_angle_rule,
)
from .special import gamma as _gamma

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


@functools.lru_cache(maxsize=256)
def _angle_rule(gamma_axis: float, points: int):
    """(cos(alpha) nodes, weights normalized to sum 1) for sin^{2g-1} d(alpha)."""
    alpha, w = jacobi_angle_rule(gamma_axis, points)
    return np.cos(alpha), w / math.sqrt(math.pi) * _gamma(gamma_axis + 0.5) / _gamma(gamma_axis)


@dataclass(frozen=True)
class ShiftOperatorPlan:
    """Immutable per-gamma angular quadrature data for T^y.

    cos_nodes/weights hold the per-axis rules with the normalizing constant
    c_gamma = prod Gamma(g_i+1/2)/(Gamma(1/2) Gamma(g_i)) folded in, so the
    per-axis weights each sum to 1 (T^y 1 = 1 by construction).
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

    @property
    def c_gamma(self) -> float:
        """prod Gamma(g_i+1/2)/(Gamma(1/2) Gamma(g_i)); already folded into
        the stored weights."""
        out = 1.0
        for gi in self.gamma:
            out *= _gamma(gi + 0.5) / (math.sqrt(math.pi) * _gamma(gi))
        return out


def build_shift_plan(gamma, angles: int = 48) -> ShiftOperatorPlan:
    g = as_gamma(gamma)
    if angles < 4:
        raise ValueError("angles must be >= 4")
    rules = [_angle_rule(gi, angles) for gi in g]
    return ShiftOperatorPlan(
        g, angles, tuple(r[0] for r in rules), tuple(r[1] for r in rules)
    )


def _law_of_cosines(x, y, cos_a):
    sq = x * x + y * y - 2.0 * x * y * cos_a
    return np.sqrt(np.maximum(sq, 0.0))


def _shift_values(phi, x, y, cos_nodes, weights):
    """Callable route: T^y phi(x) for broadcastable points x, y of shape (..., n).

    Evaluates phi once on the (..., A_1, ..., A_n, n) tensor of per-axis
    law-of-cosines points and contracts the angle weights, last axis first;
    returns an array of the broadcast batch shape.
    """
    n = len(cos_nodes)
    batch = np.broadcast_shapes(x.shape, y.shape)[:-1]
    pts = np.empty(batch + tuple(len(c) for c in cos_nodes) + (n,))
    for i, c in enumerate(cos_nodes):
        pts[..., i] = _law_of_cosines(
            x[..., i].reshape(x.shape[:-1] + (1,) * n),
            y[..., i].reshape(y.shape[:-1] + (1,) * n),
            c.reshape((1,) * i + (-1,) + (1,) * (n - i - 1)),
        )
    vals = np.asarray(phi(pts), dtype=float)
    for w in reversed(weights):
        vals = np.tensordot(vals, w, axes=1)
    return vals


def _shift_rows(interp: GridInterpolator, plan: ShiftOperatorPlan, axis: int, x, y):
    """Sampled route: per-axis T^y rows for broadcast 1-D values x, y of one axis.

    Row p is sum_alpha w(alpha) L((x_p, y_p)_alpha), with L the stencil row
    of interp over its extended nodes on that axis; shape (pairs, nodes).
    """
    z = _law_of_cosines(
        np.reshape(x, (-1, 1)), np.reshape(y, (-1, 1)), plan.cos_nodes[axis]
    )
    return interp.dense_axis_matrix(axis, z, plan.weights[axis])


def shift(plan: ShiftOperatorPlan, phi, x, y, *, adaptive: bool = True) -> float:
    """T^y phi(x) for a callable phi on the positive orthant.

    phi receives points as an array of shape (..., n).  y = 0 short-circuits
    to phi(x) exactly (initial condition of the shift).  With adaptive=True
    the angular rule is doubled until successive values differ by less than
    SHIFT_TOL relative (capped at MAX_ANGLES points per axis).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    y = np.asarray(y, dtype=float).reshape(-1)
    n = plan.gamma.n
    if x.size != n or y.size != n:
        raise ValueError(f"points must have {n} components")
    if np.all(y == 0.0):
        return float(np.asarray(phi(x.reshape(1, n)), dtype=float).reshape(()))

    def value(m):
        rules = [_angle_rule(gi, m) for gi in plan.gamma]
        return float(_shift_values(phi, x, y, [r[0] for r in rules], [r[1] for r in rules]))

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
    interpolation (SHIFT_GRID_STENCIL points per axis) with even reflection
    at 0 and clamping at x_max.  `contract_axes` applies one (nodes,
    extended nodes) matrix of `_shift_rows` per axis to the extended samples,
    so the cost is O(sum_i N_i * A_i * width + N^n * sum_i N_i).  Emits
    ShiftTruncationWarning when > 1% of evaluation points are clamped.
    """
    grid = f.grid
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.size != grid.n:
        raise ValueError(f"y must have {grid.n} components")
    if grid.gamma.values != plan.gamma.values:
        raise ValueError("plan and grid gamma indices differ")
    if np.all(y == 0.0):
        return GridFunction(grid, f.values.copy())
    interp = GridInterpolator(f, width=SHIFT_GRID_STENCIL)
    mats = [_shift_rows(interp, plan, ax, grid.nodes[ax], y[ax]) for ax in range(grid.n)]
    acc = contract_axes(mats, interp.ext_values)
    if interp.clip_fraction > 0.01:
        warnings.warn(
            f"{100 * interp.clip_fraction:.1f}% of shift evaluations beyond "
            f"x_max = {grid.x_max} were clamped (truncation bias)",
            ShiftTruncationWarning,
            stacklevel=2,
        )
    return GridFunction(grid, acc)


def b_convolve(plan: ShiftOperatorPlan, f: GridFunction, phi) -> GridFunction:
    """(f * phi)(x) = int f(y) T^y phi(x) dmu_gamma(y) at every grid node.

    The y-integral uses the grid quadrature; T^y phi comes from the callable
    route, which evaluates phi itself (no sampling or interpolation), so the
    cost is O(N_grid^2 * angles^n) evaluations of phi.  Translations are
    processed in chunks sized to keep the evaluation tensor within a fixed
    memory budget.
    """
    grid = f.grid
    if grid.gamma.values != plan.gamma.values:
        raise ValueError("plan and grid gamma indices differ")
    n = grid.n
    mesh_x = grid.points()
    mesh_y = mesh_x.reshape(-1, n)
    w_f = (functools.reduce(np.multiply.outer, grid.weights) * f.values).reshape(-1)
    tensor_pts = mesh_y.shape[0] * int(np.prod([len(c) for c in plan.cos_nodes]))
    chunk = max(1, int(4_000_000 // tensor_pts))
    out = np.zeros(mesh_y.shape[0])
    for lo in range(0, mesh_y.shape[0], chunk):
        yc = mesh_y[lo : lo + chunk]
        vals = _shift_values(
            phi, mesh_x, yc.reshape((-1,) + (1,) * n + (n,)), plan.cos_nodes, plan.weights
        )
        out += np.tensordot(w_f[lo : lo + chunk], vals.reshape(yc.shape[0], -1), axes=([0], [0]))
    return GridFunction(grid, out.reshape(grid.shape))
