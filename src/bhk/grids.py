"""Weighted measure dmu_gamma = prod x_i^{2 gamma_i} dx, tensor quadrature
grids on the truncated positive orthant and hemisphere rules on S_+^{n-1}
with the prod theta_i^{2 gamma_i} weight (the angle rules of T^y are
`special.angle_rule`).

All half-line integrals are truncated at x_max (verification functions are
Gaussian-localized, so the truncation error is negligible).  Per-axis rules
are Gauss-Jacobi with the measure factor absorbed into the weights, so the
measure of a box integrates exactly for every gamma > 0.  Every rule here
comes from `special.gauss_jacobi` (Golub-Welsch eigenvalues, one Newton step,
Christoffel-sum weights).  Reductions use numpy's pairwise summation in a
fixed axis order, keeping results bit-stable run to run.  Separable operators
(Fourier-Bessel kernels, per-axis shift rows) act on tensor samples through
`contract_axes` (one matrix per axis, one GEMM each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    dmu_gamma.  The grid also holds the read-only stencil tables of
    `GridInterpolator`, one set per stencil width, built on first use
    (`stencil_tables`).
    """

    gamma: GammaIndex
    x_max: float
    nodes: tuple
    weights: tuple
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.gamma.n

    @property
    def shape(self) -> tuple:
        return tuple(len(x) for x in self.nodes)

    def points(self) -> np.ndarray:
        """All tensor nodes as an array of shape (*shape, n), axis-major
        (`_point_array`): points()[..., i] is a contiguous plane, and
        np.moveaxis(points(), -1, 0) is a C-contiguous (n, *shape) array."""
        return _point_array(self.nodes)

    def sample(self, fn: Callable) -> "GridFunction":
        """Sample a callable fn(points (..., n)) -> values on the grid, through
        `_sample_tensor` on the per-axis nodes (fn gets axis-major points, as
        `points` returns them).  A grid of at most
        special.SHIFT_BUDGET nodes is one call of fn, and the GridFunction
        holds fn's own array (as float) rather than a copy."""
        return GridFunction(self, _sample_tensor(fn, self.nodes))

    def stencil_tables(self, width: int) -> tuple:
        """The per-axis (coords, cols, den) tables of `GridInterpolator` at this
        stencil width, built on the first call and held (read-only)."""
        tables = self._tables.get(width)
        if tables is None:
            tables = self._tables[width] = tuple(_stencil_table(x, width) for x in self.nodes)
        return tables


def _point_array(nodes) -> np.ndarray:
    """The tensor of nodes[0] x ... x nodes[n-1] as an array of shape
    (len(nodes[0]), ..., len(nodes[n-1]), n), axis-major: the moveaxis view
    of one C-ordered (n, *shape) buffer, so each coordinate p[..., i] is a
    contiguous plane.  Each plane is filled by broadcasting (no per-axis mesh
    copies).  Reductions over the last axis then run as whole-plane
    operations: np.sum(p * p, axis=-1) adds the planes in axis order, which
    for n < 8 is bitwise numpy's sum over an interleaved copy."""
    n = len(nodes)
    buf = np.empty((n,) + tuple(len(x) for x in nodes))
    for i, x in enumerate(nodes):
        buf[i] = x.reshape((-1,) + (1,) * (n - 1 - i))
    return np.moveaxis(buf, 0, -1)


def _sample_tensor(fn: Callable, coords) -> np.ndarray:
    """fn(points (..., n)) -> values on the tensor coords[0] x ... x
    coords[n-1] of 1-D coordinate arrays, an array of shape
    (len(coords[0]), ..., len(coords[n-1])).

    Every call of fn gets an axis-major `_point_array`, each coordinate
    p[..., i] a contiguous plane.  A tensor of at most special.SHIFT_BUDGET
    points is one call of fn on its `_point_array`, and the result is fn's
    own array (as float), not a copy.
    A larger one is never built whole: fn is called on `_point_array`s of
    whole slices of axis k, as many per call as fit in SHIFT_BUDGET points (at
    least one), at each index of the axes before k: k is the first axis whose
    slices fit, 0 unless a first-axis slice is larger.  Either way fn must
    return the shape of the points without their last axis.  The n-D
    evaluator of the library: `TensorGrid.sample` on the grid nodes,
    `shift.shift` on one callable on the law-of-cosines coordinates.
    """
    shape = tuple(len(c) for c in coords)
    if math.prod(shape) <= special.SHIFT_BUDGET:
        return _checked_values(fn, _point_array(coords))
    out = np.empty(shape)
    k = 0
    while k + 1 < len(shape) and math.prod(shape[k + 1 :]) > special.SHIFT_BUDGET:
        k += 1
    step = max(1, special.SHIFT_BUDGET // math.prod(shape[k + 1 :]))
    for *head, j in np.ndindex(*shape[:k], -(-shape[k] // step)):
        block = (*(slice(i, i + 1) for i in head), slice(j * step, (j + 1) * step))
        pts = _point_array([c[s] for c, s in zip(coords, block)] + list(coords[k + 1 :]))
        out[block] = _checked_values(fn, pts)
    return out


def _checked_values(fn: Callable, pts) -> np.ndarray:
    """fn(pts) as a float array, checked to have the shape pts.shape[:-1]."""
    vals = np.asarray(fn(pts), dtype=float)
    if vals.shape != pts.shape[:-1]:
        raise ValueError(f"fn returned shape {vals.shape} for points {pts.shape}")
    return vals


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
    """L_{p,gamma} norm (int |f|^p dmu_gamma)^(1/p), p finite and >= 1."""
    p = float(p)
    if not 1.0 <= p < math.inf:
        raise ValueError(f"lp_norm requires finite p >= 1, got {p}")
    return integrate(GridFunction(f.grid, np.abs(f.values) ** p)) ** (1.0 / p)


def contract_axes(mats, values) -> np.ndarray:
    """Apply one matrix per axis: out[b] = sum_a prod_i mats[i][b_i, a_i] values[a].

    mats[i] has shape (M_i, N_i), values (N_1, ..., N_n), the result
    (M_1, ..., M_n), C-contiguous.  Each step is one GEMM that contracts the
    leading axis and rotates the new one to the end: the (N_i, rest) view of
    acc, transposed, times mat.T, where BLAS reads both transposes as views.
    After n steps the axes are back in order, with no transposed copy made;
    O(n N^{n+1}) for square mats.
    """
    acc = values
    for mat in mats:
        acc = (acc.reshape(acc.shape[0], -1).T @ mat.T).reshape(acc.shape[1:] + mat.shape[:1])
    return acc


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
    # tensor product over the n-1 angles, angle j broadcast along axis j
    shape = (points,) * (g.n - 1)
    nodes = np.empty(shape + (g.n,))
    sin_running, weights = 1.0, 1.0
    tail = list(np.cumsum(g.values[::-1])[::-1])  # tail[j] = sum_{i >= j} gamma_i
    for j in range(g.n - 1):
        a = g.values[j] - 0.5                      # exponent of u
        b = tail[j + 1] + 0.5 * (g.n - j - 1) - 1.0  # exponent of 1 - u
        t, w = special.gauss_jacobi(points, b, a)
        u = 0.5 * (1.0 + t).reshape((-1,) + (1,) * (g.n - 2 - j))
        nodes[..., j] = sin_running * np.sqrt(u)
        sin_running = sin_running * np.sqrt(1.0 - u)
        weights = weights * (w * 2.0 ** (-(a + b + 2.0))).reshape(u.shape)
    nodes[..., g.n - 1] = sin_running
    return SphereRule(g, nodes.reshape(-1, g.n), weights.reshape(-1))


def _products_but_one(d) -> np.ndarray:
    """prod_{b != a} d[b, ...] for every a, shape of d.

    One forward and one backward running product over the first axis,
    O(width) work per stencil, each step on whole contiguous rows.  With
    d[b, ...] = z - x_b these are the Lagrange numerators at z; with z = x_a
    the same operations in the same order give the denominator of node a.
    """
    out = np.empty(d.shape)
    out[0] = 1.0
    for a in range(1, len(d)):
        np.multiply(out[a - 1], d[a - 1], out=out[a])
    right = np.ones(d.shape[1:])
    for a in range(len(d) - 1, -1, -1):
        out[a] *= right
        right *= d[a]
    return out


def _stencil_table(x, width: int) -> tuple:
    """One axis's (coords, cols, den) table of `GridInterpolator`, indexed
    [s, a]: each is the transpose of a read-only C-contiguous (width, nodes)
    array, so `axis_stencil` gathers whole rows."""
    # k = s + a - (width - 1): node k, or at k < 0 the mirror of node -1 - k
    k = np.arange(1 - width, 1)[:, None] + np.arange(len(x))
    cols = np.where(k < 0, -1 - k, k)
    coords = np.where(k < 0, -x[cols], x[cols])
    den = np.diagonal(_products_but_one(coords[None, :, :] - coords[:, None, :]))
    den = np.ascontiguousarray(den.T)
    for arr in (coords, cols, den):
        arr.flags.writeable = False
    return coords.T, cols.T, den.T


class GridInterpolator:
    """Per-axis local Lagrange stencil rows on a TensorGrid's nodes, the
    table `shift.shift_grid` builds its sampled T^y rows from.

    Per axis: a `width`-point Lagrange stencil on the grid nodes, extended by
    even reflection through 0 (consistent with even regular solutions) and
    clamped to [0, x_max].  shift_grid's width, 10 where the grid holds it,
    has the O(h^10) error its 1e-8 integral-preservation budget needs at
    default grid resolutions.  Arguments beyond x_max are clamped and counted
    (per interpolator, so per shift_grid call) so callers can flag truncation
    bias.

    Each axis has one table stencils[axis] = (coords, cols, den) indexed by
    stencil start s, one start per node: the stencil's signed coordinates
    (-x_k where it mirrors node k), its node columns k and its Lagrange
    denominators prod_{b != a} (coords[s, a] - coords[s, b]).  The tables
    depend on the grid's nodes and the width alone, so the grid holds them
    (`TensorGrid.stencil_tables`): they are built by the first interpolator
    of a width on a grid and read by every later one.  A query costs
    O(width): numerators from running products (`_products_but_one`) divided
    by the table row.  A query on a node gets weight exactly 1 there and
    exactly 0 elsewhere (the barycentric form of Berrut & Trefethen, SIAM
    Review 46(3), 2004, without its rescaling).
    """

    def __init__(self, grid: TensorGrid, width: int = 4):
        if width < 2 or width % 2:
            raise ValueError("stencil width must be even and >= 2")
        if width > min(grid.shape):
            raise ValueError("stencil width exceeds grid size")
        self.width = width
        self.grid = grid
        self.stencils = grid.stencil_tables(width)
        self.clipped = 0
        self.queried = 0

    def axis_stencil(self, axis: int, z):
        """Per-axis stencil (node columns, Lagrange weights).

        z is clamped to [0, x_max]; returns (idx (...,width), w (...,width)),
        w a view of the (width, ...) array its running products fill.  A
        stencil near 0 can hold a node twice, once mirrored.
        """
        z = np.asarray(z, dtype=float)
        self.queried += z.size
        self.clipped += int(np.count_nonzero(z > self.grid.x_max))
        z = np.clip(z, 0.0, self.grid.x_max)
        coords, cols, den = self.stencils[axis]
        s = np.minimum(np.searchsorted(self.grid.nodes[axis], z) + self.width // 2 - 1,
                       len(cols) - 1)
        # numerators and denominators gathered as contiguous (width, ...) rows
        w = _products_but_one(z - np.take(coords.T, s, axis=1))
        w /= np.take(den.T, s, axis=1)
        return np.take(cols, s, axis=0), np.moveaxis(w, 0, -1)

    def dense_axis_matrix(self, axis: int, z, weights) -> np.ndarray:
        """Dense (rows, nodes) matrix of weighted stencil rows on one axis.

        z has shape (rows, k) and weights shape (k,); row r is
        sum_a weights[a] * L(z[r, a]), L the stencil row of axis_stencil.  The
        rows are built by scatter-add, so the (rows * k, nodes) matrix of
        single-point rows never exists; the node columns are offset in place,
        and the weighted stencils are written in the (rows, k, width) order
        bincount reads.
        """
        z = np.asarray(z, dtype=float)
        idx, w = self.axis_stencil(axis, z)
        size = self.grid.shape[axis]
        idx += size * np.arange(z.shape[0])[:, None, None]
        w = np.multiply(w, np.asarray(weights, dtype=float)[:, None], order="C")
        out = np.bincount(idx.reshape(-1), w.reshape(-1), minlength=z.shape[0] * size)
        return out.reshape(z.shape[0], size)

    @property
    def clip_fraction(self) -> float:
        return self.clipped / self.queried if self.queried else 0.0
