"""Weighted measure dmu_gamma = prod x_i^{2 gamma_i} dx, tensor quadrature
grids on the truncated positive orthant, sin^{2g-1} angle rules on [0, pi],
and hemisphere rules on S_+^{n-1} with the prod theta_i^{2 gamma_i} weight.

All half-line integrals are truncated at x_max (verification functions are
Gaussian-localized, so the truncation error is negligible).  Per-axis rules
are Gauss-Jacobi with the measure factor absorbed into the weights, so the
measure of a box integrates exactly for every gamma > 0.  Every rule here
comes from `special.gauss_jacobi` (Golub-Welsch eigenvalues, one Newton step,
Christoffel-sum weights).  Reductions use numpy's pairwise summation in a
fixed axis order, keeping results bit-stable run to run.  Separable operators
(Fourier-Bessel kernels, per-axis shift rows) act on tensor samples through
`contract_axes` (one matrix per axis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import special
from .special import gamma as _gamma

__all__ = [
    "GammaIndex",
    "TensorGrid",
    "GridFunction",
    "SphereRule",
    "GridInterpolator",
    "build_tensor_grid",
    "integrate",
    "lp_norm",
    "contract_axes",
    "jacobi_angle_rule",
    "build_sphere_rule",
    "hemisphere_measure",
]

@dataclass(frozen=True)
class GammaIndex:
    """Multi-index gamma = (gamma_1, ..., gamma_n), all entries > 0."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1:
            raise ValueError("GammaIndex needs at least one entry")
        if any((not math.isfinite(v)) or v <= 0.0 for v in vals):
            raise ValueError(f"all gamma_i must be positive, got {vals}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def abs(self) -> float:
        """|gamma| = sum of the entries."""
        return math.fsum(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]


def as_gamma(gamma) -> GammaIndex:
    if isinstance(gamma, GammaIndex):
        return gamma
    if np.isscalar(gamma):
        return GammaIndex((float(gamma),))
    return GammaIndex(tuple(gamma))


def hemisphere_measure(gamma) -> float:
    """m(S_+) = prod Gamma(gamma_i + 1/2) / (2^{n-1} Gamma(|gamma| + n/2))."""
    g = as_gamma(gamma)
    num = 1.0
    for gi in g:
        num *= _gamma(gi + 0.5)
    return num / (2.0 ** (g.n - 1) * _gamma(g.abs + 0.5 * g.n))


@dataclass(frozen=True)
class TensorGrid:
    """Tensor-product quadrature grid on (0, x_max]^n.

    nodes[i] are strictly increasing positive per-axis nodes; weights[i] are
    the per-axis quadrature weights with the measure factor x^{2 gamma_i}
    already included, so a plain tensor contraction integrates against
    dmu_gamma.
    """

    gamma: GammaIndex
    x_max: float
    nodes: tuple
    weights: tuple

    @property
    def n(self) -> int:
        return self.gamma.n

    @property
    def shape(self) -> tuple:
        return tuple(len(x) for x in self.nodes)

    def points(self) -> np.ndarray:
        """All tensor nodes as an array of shape (*shape, n)."""
        mesh = np.meshgrid(*self.nodes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def sample(self, fn: Callable) -> "GridFunction":
        """Sample a callable fn(points (..., n)) -> values on the grid."""
        return GridFunction(self, np.asarray(fn(self.points()), dtype=float))

    def measure(self) -> float:
        """Integral of 1, i.e. mu_gamma((0, x_max]^n)."""
        out = 1.0
        for w in self.weights:
            out *= float(np.sum(w))
        return out


@dataclass
class GridFunction:
    """Sampled function values on a TensorGrid (one value per tensor node)."""

    grid: TensorGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )

    def to_csv(self, path) -> None:
        """Write `x_1,...,x_n,value` rows in row-major node order, 17 sig digits."""
        pts = self.grid.points().reshape(-1, self.grid.n)
        vals = self.values.reshape(-1)
        with open(path, "w") as fh:
            fh.write(",".join(f"x_{i+1}" for i in range(self.grid.n)) + ",value\n")
            for row, v in zip(pts, vals):
                fh.write(",".join(f"{c:.17g}" for c in row) + f",{v:.17g}\n")


def build_tensor_grid(gamma, x_max: float, points_per_axis: int) -> TensorGrid:
    """Per-axis Gauss rules on (0, x_max] exact against the x^{2 gamma_i} measure.

    Realized as Gauss-Jacobi in t = 2x/x_max - 1 with weight (1+t)^{2 gamma_i}
    (`special.gauss_jacobi`: Golub-Welsch nodes with one Newton step,
    Christoffel-sum weights); sum of axis weights equals x_max^{2g+1}/(2g+1)
    to roundoff for every g > 0.
    """
    g = as_gamma(gamma)
    x_max = float(x_max)
    if not math.isfinite(x_max) or x_max <= 0.0:
        raise ValueError(f"x_max must be positive, got {x_max}")
    if points_per_axis < 8:
        raise ValueError("points_per_axis must be >= 8")
    nodes, weights = [], []
    for gi in g:
        t, w = special.gauss_jacobi(points_per_axis, 0.0, 2.0 * gi)
        x = 0.5 * x_max * (1.0 + t)
        nodes.append(x)
        weights.append(w * (0.5 * x_max) ** (2.0 * gi + 1.0))
    return TensorGrid(g, x_max, tuple(nodes), tuple(weights))


def integrate(f: GridFunction) -> float:
    """int f dmu_gamma by tensor contraction against all weight axes.

    Contracts axis by axis in a fixed order via numpy's pairwise summation
    (never BLAS), so the result does not depend on thread count.
    """
    acc = f.values
    for w in f.grid.weights:
        acc = np.sum(acc * w.reshape((-1,) + (1,) * (acc.ndim - 1)), axis=0)
    return float(acc)


def lp_norm(f: GridFunction, p: float) -> float:
    """L_{p,gamma} norm (int |f|^p dmu_gamma)^(1/p), p >= 1."""
    p = float(p)
    if p < 1.0:
        raise ValueError(f"lp_norm requires p >= 1, got {p}")
    return integrate(GridFunction(f.grid, np.abs(f.values) ** p)) ** (1.0 / p)


def contract_axes(mats, values) -> np.ndarray:
    """Apply one matrix per axis: out[b] = sum_a prod_i mats[i][b_i, a_i] values[a].

    mats[i] has shape (M_i, N_i), values (N_1, ..., N_n), the result
    (M_1, ..., M_n); one tensordot per axis, O(n N^{n+1}) for square mats.
    """
    acc = values
    for ax, mat in enumerate(mats):
        acc = np.moveaxis(np.tensordot(mat, acc, axes=([1], [ax])), 0, ax)
    return acc


def jacobi_angle_rule(gamma_axis: float, points: int):
    """Quadrature on [0, pi] against the weight sin^{2 gamma - 1}(alpha).

    Gauss-Jacobi in t = cos(alpha) with weight (1 - t^2)^{gamma - 1}
    (`special.gauss_jacobi`: Golub-Welsch nodes with one Newton step,
    Christoffel-sum weights): exact for polynomials in cos(alpha) up to
    degree 2*points - 1, valid for every gamma > 0 including the integrable
    endpoint singularity at gamma < 1/2.
    Returns (alpha_nodes_increasing, weights); sum of weights equals
    B(gamma, 1/2) = sqrt(pi) Gamma(gamma) / Gamma(gamma + 1/2).
    """
    gamma_axis = float(gamma_axis)
    if gamma_axis <= 0.0:
        raise ValueError(f"gamma_axis must be positive, got {gamma_axis}")
    if points < 4:
        raise ValueError("jacobi_angle_rule requires points >= 4")
    t, w = special.gauss_jacobi(points, gamma_axis - 1.0, gamma_axis - 1.0)
    alpha = np.arccos(t)[::-1].copy()
    return alpha, w[::-1].copy()


@dataclass(frozen=True)
class SphereRule:
    """Quadrature on the positive unit hemisphere S_+^{n-1}.

    weights include the surface weight prod theta_i^{2 gamma_i}; their sum is
    m(S_+), checked at construction (rel. 1e-10) for n >= 2.
    """

    gamma: GammaIndex
    nodes: np.ndarray   # (m, n) unit vectors, all components >= 0
    weights: np.ndarray  # (m,)

    def __post_init__(self):
        if self.gamma.n >= 2:
            total = float(np.sum(self.weights))
            ref = hemisphere_measure(self.gamma)
            if abs(total - ref) > 1e-10 * abs(ref):
                raise ValueError(
                    f"sphere rule total weight {total!r} != m(S_+) = {ref!r}"
                )


def build_sphere_rule(gamma, points: int) -> SphereRule:
    """Product-of-angles hemisphere rule with per-angle Gauss-Jacobi quadrature.

    Hyperspherical angles phi_1..phi_{n-1} in (0, pi/2); substituting
    u_j = cos^2 phi_j turns the combined weight cos^{2 g_j} sin^{s_j} (with
    s_j = 2 sum_{i>j} g_i + n - j - 1 from the remaining axes and the surface
    element) into a Jacobi weight, handled exactly per angle by
    `special.gauss_jacobi` (Golub-Welsch nodes with one Newton step,
    Christoffel-sum weights).  For n = 1 the hemisphere degenerates to the
    single node theta = 1 with weight 1.
    """
    g = as_gamma(gamma)
    if g.n == 1:
        return SphereRule(g, np.array([[1.0]]), np.array([1.0]))
    if points < 4:
        raise ValueError("build_sphere_rule requires points >= 4")
    cos_list, sin_list, w_list = [], [], []
    tail = list(np.cumsum(g.values[::-1])[::-1])  # tail[j] = sum_{i >= j} gamma_i
    for j in range(g.n - 1):
        a = g.values[j] - 0.5                      # exponent of u
        b = tail[j + 1] + 0.5 * (g.n - j - 1) - 1.0  # exponent of 1 - u
        t, w = special.gauss_jacobi(points, b, a)
        u = 0.5 * (1.0 + t)
        cos_list.append(np.sqrt(u))
        sin_list.append(np.sqrt(1.0 - u))
        w_list.append(w * 2.0 ** (-(a + b + 2.0)))
    # tensor product over the n-1 angles
    mesh = np.meshgrid(*[np.arange(points)] * (g.n - 1), indexing="ij")
    idx = [m.reshape(-1) for m in mesh]
    m_pts = idx[0].size
    nodes = np.empty((m_pts, g.n))
    sin_running = np.ones(m_pts)
    weights = np.ones(m_pts)
    for j in range(g.n - 1):
        cj = cos_list[j][idx[j]]
        sj = sin_list[j][idx[j]]
        nodes[:, j] = sin_running * cj
        sin_running = sin_running * sj
        weights *= w_list[j][idx[j]]
    nodes[:, g.n - 1] = sin_running
    return SphereRule(g, nodes, weights)


def _products_but_one(d) -> np.ndarray:
    """prod_{b != a} d[..., b] for every a, shape of d.

    One forward and one backward running product over the last axis, O(width)
    work per stencil.  With d[..., b] = z - x_b these are the Lagrange
    numerators at z; with z = x_a the same operations in the same order give
    the denominator of node a.
    """
    out = np.empty(d.shape)
    out[..., 0] = 1.0
    for a in range(1, d.shape[-1]):
        np.multiply(out[..., a - 1], d[..., a - 1], out=out[..., a])
    right = np.ones(d.shape[:-1])
    for a in range(d.shape[-1] - 1, -1, -1):
        out[..., a] *= right
        right *= d[..., a]
    return out


class GridInterpolator:
    """Tensor-product local Lagrange interpolation of a GridFunction.

    Per axis: a `width`-point Lagrange stencil on the grid nodes, extended by
    even reflection through 0 (consistent with even regular solutions) and
    clamped to [0, x_max].  width=4 is the plain cubic baseline; shift_grid
    uses width=10, whose O(h^10) error is what its 1e-8 integral-preservation
    budget needs at default grid resolutions.  Evaluations beyond x_max are
    clamped and counted so callers can flag truncation bias.  A scattered
    point reads the width^n block of extended samples its per-axis stencils
    cover, so it costs O(width^n) whatever the grid size.

    The Lagrange denominators prod_{b != a} (x_{s+a} - x_{s+b}) depend only
    on the stencil start s, so each axis keeps one (starts, width) table of
    them; a query then costs O(width): its numerators come from running
    products (`_products_but_one`) and are divided by the table row.  A
    query on a node gets weight exactly 1 there and exactly 0 elsewhere
    (the barycentric form of Berrut & Trefethen, SIAM Review 46(3), 2004,
    without its rescaling).
    """

    def __init__(self, f: GridFunction, width: int = 4):
        if width < 2 or width % 2:
            raise ValueError("stencil width must be even and >= 2")
        if width > min(f.grid.shape):
            raise ValueError("stencil width exceeds grid size")
        self.width = width
        self.grid = f.grid
        mirror = width - 1
        self.ext_nodes = []
        self.denominators = []
        window = np.arange(width)
        for x in self.grid.nodes:
            xs = np.concatenate([-x[mirror - 1 :: -1], x])
            xn = xs[np.arange(len(xs) - width + 1)[:, None] + window]
            den = _products_but_one(xn[:, :, None] - xn[:, None, :])
            self.ext_nodes.append(xs)
            self.denominators.append(np.diagonal(den, axis1=1, axis2=2).copy())
        vals = f.values
        for ax in range(self.grid.n):
            head = np.flip(np.take(vals, np.arange(mirror), axis=ax), axis=ax)
            vals = np.concatenate([head, vals], axis=ax)
        self.ext_values = vals
        self.clipped = 0
        self.queried = 0

    def axis_stencil(self, axis: int, z):
        """Per-axis stencil (indices into the extended axis, Lagrange weights).

        z is clamped to [0, x_max]; returns (idx (...,width), w (...,width)).
        """
        w_pts = self.width
        z = np.asarray(z, dtype=float)
        self.queried += z.size
        self.clipped += int(np.count_nonzero(z > self.grid.x_max))
        z = np.clip(z, 0.0, self.grid.x_max)
        xs = self.ext_nodes[axis]
        i = np.searchsorted(xs, z) - 1
        s = np.clip(i - (w_pts // 2 - 1), 0, len(xs) - w_pts)
        idx = s[..., None] + np.arange(w_pts)
        w = _products_but_one(z[..., None] - xs[idx])
        w /= self.denominators[axis][s]
        return idx, w

    def dense_axis_matrix(self, axis: int, z, weights) -> np.ndarray:
        """Dense (rows, n_extended_nodes) matrix of weighted stencil rows on one axis.

        z has shape (rows, k) and weights shape (k,); row r is
        sum_a weights[a] * L(z[r, a]), L the stencil row of axis_stencil.  The
        rows are built by scatter-add, so the (rows * k, nodes) matrix of
        single-point rows never exists; the stencil arrays are reused in place.
        """
        z = np.asarray(z, dtype=float)
        idx, w = self.axis_stencil(axis, z)
        size = len(self.ext_nodes[axis])
        idx += size * np.arange(z.shape[0])[:, None, None]
        w *= np.asarray(weights, dtype=float)[:, None]
        out = np.bincount(idx.reshape(-1), w.reshape(-1), minlength=z.shape[0] * size)
        return out.reshape(z.shape[0], size)

    @property
    def clip_fraction(self) -> float:
        return self.clipped / self.queried if self.queried else 0.0

    def __call__(self, pts) -> np.ndarray:
        """Evaluate at scattered points of shape (..., n): each point's width^n
        block of ext_values, gathered under its axis stencils, is contracted
        with their weights, in chunks of at most special.SHIFT_BUDGET gathered
        values."""
        pts = np.asarray(pts, dtype=float)
        flat = pts.reshape(-1, self.grid.n)
        n, width = self.grid.n, self.width
        axes = "abcdefghijklmnoqrstuvwxyz"[:n]
        spec = "p" + axes + "," + ",".join("p" + a for a in axes) + "->p"
        step = max(1, special.SHIFT_BUDGET // width**n)
        out = np.empty(flat.shape[0])
        for lo in range(0, flat.shape[0], step):
            idx, w = zip(*(self.axis_stencil(ax, flat[lo : lo + step, ax])
                           for ax in range(n)))
            block = self.ext_values[tuple(
                i.reshape((-1,) + (1,) * ax + (width,) + (1,) * (n - ax - 1))
                for ax, i in enumerate(idx))]
            out[lo : lo + step] = np.einsum(spec, block, *w)
        return out.reshape(pts.shape[:-1])
