"""Gamma function and the normalized Bessel kernel j_nu.

j_nu(r) = 2^nu Gamma(nu+1) J_nu(r) r^(-nu), normalized so j_nu(0) = 1.  It is
even in r and satisfies the one-dimensional Bessel eigenrelation

    u''(r) + (2*gamma/r) u'(r) + u(r) = 0,   u = j_{gamma - 1/2},

which makes prod_i j_{gamma_i-1/2}(x_i y_i) the kernel of the Fourier-Bessel
transform used everywhere else in this package.

Evaluation strategy: one downward Miller recurrence (Gautschi, SIAM Rev. 9,
1967) in extended precision for every r > 0, normalized by the Neumann sum

    sum_k a_k J_{nu+2k}(r) = (r/2)^nu / Gamma(nu+1),
    a_0 = 1,  a_k = (nu+2k) (nu+1)_{k-1} / k!,

so that j_nu(r) = f_0 / sum_k a_k f_{2k} for the unnormalized f_j of the pass,
rounded to double once: no power of r and no Gamma value enters.  Every
argument starts at its own order m, past the Debye decay of J_{nu+m}(r)
(about top + 10 top^(1/3) + 12, top = max(r, |nu|)), so that a deep start
cannot overflow a shallow argument, and one pass serves all arguments of a
call: sorted, the steps below an order run only on the arguments that start
at or above it, each seeded at its own order.  An argument's value therefore
does not depend on the rest of the batch: normalized_j(nu, r)[i] is bitwise
normalized_j(nu, r[i]), so each distinct argument is evaluated once (a plan
axis's products x_a y_b are about a third bitwise twins).  Where
r^2 < 2^-52 (nu+1), r = 0 included, the series 1 - r^2 / (4 (nu+1)) + ...
rounds to 1 and j_nu(r) is 1.0 exactly; the pass, whose growth (2/r)^m
overflows as r -> 0, does not run there.

Gauss-Jacobi rules (`gauss_jacobi`, the one quadrature rule behind every grid,
angle, sphere and radial rule of the package; `gauss_jacobi_on` puts one on an
interval) are computed in numpy by Golub-Welsch: nodes are the eigenvalues of
the Jacobi matrix, polished by one Newton step, and weights are Christoffel
sums 1 / sum_k p_k^2 of the orthonormal polynomials, all from one pass of the
three-term recurrence.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "gamma",
    "normalized_j",
    "gauss_jacobi",
    "gauss_jacobi_on",
    "angle_rule",
    "poisson_representation",
]

# values per chunk of the batched evaluations: Miller recurrence entries here,
# 1-D law-of-cosines points of shift._axis_shift (every per-axis shift of
# b_convolve, riesz_spatial and shifted_mean_value_check) and n-D points of
# grids._sample_tensor (whole slices of the first axis whose slices fit, at
# least one per chunk), the sampler of TensorGrid.sample and of shift on one
# callable.  It bounds their transient memory and is also the cache-sized
# chunk: a chunk's few temporaries of 2^14 doubles (128 KiB each) stay in a
# 2 MiB L2, those of 2^16 (512 KiB each) do not.  The default report's
# compute (in process, one BLAS thread, 2-core Xeon VM, two interleaved
# sweeps of 10 reports) read 1.00-1.01, 0.92-0.96, 0.88-0.89, 0.90-0.91 and
# 1 of the 2^16 time at 2^12 ... 2^16.  No value of normalized_j or
# shift._axis_shift depends on the chunk size.
SHIFT_BUDGET = 2**14
# start value f_m of the Miller pass: 2^64 above the smallest normal
# extended-precision number, so the pass may grow through nearly the whole
# exponent range while every term a_k f_{2k} stays normal; a power of two only
# scales the pass, exactly
_SEED = np.finfo(np.longdouble).tiny * 2.0**64


def gamma(x: float) -> float:
    """Gamma(x) for x > 0.

    Backed by the C library implementation (rel. error ~1e-15 on [0.05, 50],
    well inside the 1e-13 contract); raises for x <= 0.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _miller_pass(nu: float, r: np.ndarray) -> np.ndarray:
    """j_nu(r) for every entry of an increasing 1-D array r > 0, in one pass.

    f_{j-1} = (2 (nu + j) / r) f_j - f_{j+1} from f_{m+1} = 0, f_m = _SEED
    at each entry's even start order m (nondecreasing in r), in place on the
    suffix of entries already started.  Every block of steps between two
    start orders is even, so fp and fc hold f_{j+1} and f_j again at its end.
    """
    top = np.maximum(r, abs(nu))
    m = (top + 10.0 * np.cbrt(top) + 12.0).astype(int)
    m += m % 2
    inv_r = 1.0 / r.astype(np.longdouble)
    x = np.longdouble(nu)
    coef = 2.0 * (x + np.arange(m[-1] + 1))  # 2 (nu + j)
    # a_0 = 1, a_k = (nu + 2k) (nu + 1)_{k-1} / k!; cumprod is sequential, so
    # a prefix does not depend on the batch's deepest start order
    k = np.arange(1, m[-1] // 2 + 1, dtype=np.longdouble)
    rising = np.cumprod(np.concatenate(([1.0], (x + k[:-1]) / k[1:])))
    a = np.concatenate(([1.0], (x + 2.0 * k) * rising))
    fp, fc, norm = np.zeros_like(inv_r), np.zeros_like(inv_r), np.zeros_like(inv_r)
    tmp = np.empty_like(inv_r)
    runs = [0, *(np.flatnonzero(np.diff(m)) + 1), m.size]  # runs of equal m
    for p, hi in reversed(list(zip(runs, runs[1:]))):
        fc[p:hi] = _SEED
        f1, f0, t, s, acc = fp[p:], fc[p:], tmp[p:], inv_r[p:], norm[p:]
        for j in range(m[p], m[p - 1] if p else -1, -1):
            if j % 2 == 0:
                np.multiply(f0, a[j // 2], out=t)
                acc += t
            if j:
                np.multiply(f0, s, out=t)
                t *= coef[j]
                np.subtract(t, f1, out=f1)
                f1, f0 = f0, f1
    return (fc / norm).astype(float)


def normalized_j(nu, r):
    """Normalized Bessel function j_nu(r) = 2^nu Gamma(nu+1) J_nu(r) r^(-nu).

    Even in r; exactly 1.0 where r^2 < 2^-52 (nu + 1), and above it one
    Miller pass (`_miller_pass`) per chunk of SHIFT_BUDGET distinct
    arguments, which np.unique sorts.  The pass fits the extended exponent
    range up to nu = 800 (at nu = 1000 it overflows next to that cut), far
    past the gamma_i < 84.8 at which the tensor grid's Gauss-Jacobi mass
    overflows.  Scalar or ndarray r; ValueError unless nu > -1 and every r
    is finite and >= 0 (a NaN or inf start order would spoil its whole pass).
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise ValueError(f"Bessel order must satisfy nu > -1, got {nu}")
    arr = np.asarray(r, dtype=float)
    flat = arr.ravel()
    if not np.all((flat >= 0.0) & (flat < np.inf)):
        raise ValueError("normalized_j requires finite r >= 0")
    vals, inv = np.unique(flat, return_inverse=True)
    j = np.ones(vals.size)  # 1.0 below the cut
    cut = int(np.searchsorted(vals, 2.0**-26 * math.sqrt(nu + 1.0)))
    for lo in range(cut, vals.size, SHIFT_BUDGET):
        j[lo : lo + SHIFT_BUDGET] = _miller_pass(nu, vals[lo : lo + SHIFT_BUDGET])
    return j[inv].reshape(arr.shape) if arr.ndim else float(j[inv[0]])


@functools.lru_cache(maxsize=256)
def gauss_jacobi(n: int, a: float, b: float):
    """n-point Gauss-Jacobi rule on [-1, 1] for the weight (1-t)^a (1+t)^b.

    Golub-Welsch: the nodes are the eigenvalues of the orthonormal Jacobi
    matrix, whose entries (the recurrence coefficients) are computed in
    extended precision and rounded once.  One pass of the orthonormal
    three-term recurrence at those nodes gives p_n and the Christoffel sum
    K = sum_{k<n} p_k^2, and with them one Newton step t -= p_n / p_n', where
    p_n' = K / (s_n p_{n-1}) by Christoffel-Darboux at a zero of p_n (s_n the
    n-th off-diagonal).  The weights are mu0 / K with K carried to the moved
    nodes to first order (d log K / dt = p_n'' / p_n', from the Jacobi
    differential equation), so no second pass is needed;
    mu0 = 2^{a+b+1} B(a+1, b+1) is the total mass.  For a == b the rule is
    symmetrized.  Returns (nodes increasing, weights); cached per (n, a, b),
    so both arrays are read-only and rules shared between grids (say, one
    spatial and one frequency grid) are built once.
    """
    n, a, b = int(n), float(a), float(b)
    if n < 1:
        raise ValueError(f"gauss_jacobi requires n >= 1, got {n}")
    if not (math.isfinite(a) and math.isfinite(b)) or a <= -1.0 or b <= -1.0:
        raise ValueError(f"gauss_jacobi requires a, b > -1, got {a}, {b}")
    ab = a + b
    # coefficients in extended precision, rounded once: evaluated in double
    # they left the end weights at n = 384 up to 3.4e-12 off a 40-digit rule,
    # rounded once 4.3e-13
    x, y = np.longdouble(a), np.longdouble(b)
    k = np.arange(1, n + 1, dtype=np.longdouble)
    c = 2 * k + (x + y)
    diag = np.empty(n, dtype=np.longdouble)
    diag[0] = (y - x) / (x + y + 2)
    diag[1:] = (y - x) * (y + x) / (c[:-1] * (c[:-1] + 2))
    # off[k] = sqrt(beta_{k+1}); beta_1 in closed form (0/0 at a + b = -1)
    beta = np.empty(n, dtype=np.longdouble)
    beta[0] = 4 * (1 + x) * (1 + y) / ((2 + x + y) ** 2 * (3 + x + y))
    k, c = k[1:], c[1:]
    beta[1:] = 4 * k * (k + x) * (k + y) * (k + x + y) / (c * c * (c + 1) * (c - 1))
    diag, off = diag.astype(float), np.sqrt(beta).astype(float)
    jac = np.zeros((n, n))
    jac.flat[:: n + 1] = diag
    jac.flat[n :: n + 1] = off[:-1]  # eigvalsh reads the lower triangle
    t = np.linalg.eigvalsh(jac)
    # p_{k+1} = rows[k] p_k - ratio[k] p_{k-1}, p_0 = 1: orthonormal for the
    # weight / mu0, so the Christoffel weights are mu0 / sum p_k^2
    rows = (t - diag[:, None]) / off[:, None]
    ratio = (np.concatenate(([0.0], off[:-1])) / off).tolist()
    prev, cur, total = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        nxt = rows[j] * cur
        nxt -= ratio[j] * prev
        total += nxt * nxt
        prev, cur = cur, nxt
    p_n = rows[n - 1] * cur - ratio[n - 1] * prev
    step = p_n * off[n - 1] * cur / total
    t = t - step
    total *= 1.0 - step * ((ab + 2.0) * t + a - b) / ((1.0 - t) * (1.0 + t))
    mu0 = 2.0 ** (ab + 1.0) * math.gamma(a + 1.0) * math.gamma(b + 1.0) / math.gamma(ab + 2.0)
    w = mu0 / total
    if a == b:
        t, w = 0.5 * (t - t[::-1]), 0.5 * (w + w[::-1])
    t.flags.writeable = w.flags.writeable = False
    return t, w


def gauss_jacobi_on(n: int, a: float, b: float, lo: float, hi: float):
    """gauss_jacobi(n, a, b) on [lo, hi], for the weight (hi - x)^a (x - lo)^b:
    nodes lo + h (t + 1) and weights w h^{a+b+1}, h = (hi - lo) / 2, in that
    order of operations, as fresh (uncached) arrays.  The sphere rule (in
    u = cos^2 phi, its Jacobian in the weights) and `angle_rule`
    (cos(alpha) = -t, unit mass) are not such maps and keep their own forms."""
    t, w = gauss_jacobi(n, a, b)
    h = 0.5 * (hi - lo)
    return lo + h * (t + 1.0), w * h ** (a + b + 1.0)


@functools.lru_cache(maxsize=256)
def angle_rule(gamma_axis: float, points: int):
    """Gauss rule on [0, pi] against sin^{2 gamma - 1}(alpha), the angle rule
    of T^y and `poisson_representation`: gauss_jacobi(points, gamma - 1,
    gamma - 1) in t = cos(alpha), exact to degree 2 points - 1 in cos(alpha)
    for every gamma > 0.  Returns (cos(alpha) nodes in increasing alpha,
    weights), the weights divided by B(gamma, 1/2) = sqrt(pi) Gamma(gamma) /
    Gamma(gamma + 1/2) to sum to 1; cached, so both arrays are read-only."""
    if not gamma_axis > 0.0:
        raise ValueError(f"gamma_axis must be positive, got {gamma_axis}")
    if points < 4:
        raise ValueError("angle_rule requires points >= 4")
    t, w = gauss_jacobi(points, gamma_axis - 1.0, gamma_axis - 1.0)
    # the symmetrized rule has t[::-1] == -t and w[::-1] == w exactly
    cos_a, w = -t, w / math.sqrt(math.pi) * gamma(gamma_axis + 0.5) / gamma(gamma_axis)
    cos_a.flags.writeable = w.flags.writeable = False
    return cos_a, w


def poisson_representation(gamma_axis: float, r, quad_points: int = 64):
    """j_{gamma-1/2}(r) through its integral representation

        Gamma(gamma+1/2) / (Gamma(gamma) Gamma(1/2))
            * int_0^pi e^{i r cos a} (sin a)^{2 gamma - 1} da

    evaluated (real part) on `angle_rule`, whose weights carry the constant.
    That rule shares no code with the Miller pass of normalized_j, so this
    stays an independent cross-check of it.  Scalar or ndarray r; gamma_axis
    is checked by `angle_rule`.
    """
    if quad_points < 8:
        raise ValueError("poisson_representation requires quad_points >= 8")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("poisson_representation requires r >= 0")
    cos_a, w = angle_rule(gamma_axis, quad_points)
    # numpy's pairwise sum per point: array and scalar calls agree bitwise
    out = np.sum(np.cos(np.multiply.outer(arr, cos_a)) * w, axis=-1)
    return out if np.ndim(r) else float(out)
