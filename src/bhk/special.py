"""Gamma function and the normalized Bessel kernel j_nu.

j_nu(r) = 2^nu Gamma(nu+1) J_nu(r) r^(-nu), normalized so j_nu(0) = 1.  It is
even in r and satisfies the one-dimensional Bessel eigenrelation

    u''(r) + (2*gamma/r) u'(r) + u(r) = 0,   u = j_{gamma - 1/2},

which makes prod_i j_{gamma_i-1/2}(x_i y_i) the kernel of the Fourier-Bessel
transform used everywhere else in this package.

Evaluation strategy: ascending power series below r = max(12, 2|nu|), and
Miller backward recurrence with Neumann-series normalization above.  Every
argument starts the recurrence at its own order (about r + 12 sqrt(r) + 30),
so that a deep start cannot underflow a shallow argument, and one downward
pass in extended precision serves all arguments of a call: sorted by start
order, the step at order j runs only on those that start at j or above.  The
pass runs in chunks of SHIFT_BUDGET arguments.  The series stops each
argument at its own last term, so on both branches an argument's value does
not depend on the rest of the batch: normalized_j(nu, r)[i] is bitwise
normalized_j(nu, r[i]).  The series is accumulated in
double-double arithmetic (error-free transforms): plain double accumulation
near the switch radius carries ~1e-12 cancellation jitter, which the
finite-difference eigenrelation check amplifies by 1/h^2 far past its 1e-7
budget, while the compensated sum keeps evaluations correctly rounded at
double precision.  The removable singularity of j_nu at r = 0 is never
evaluated as J_nu(r)/r^nu; the series gives j_nu(0) = 1 exactly.

Gauss-Jacobi rules (`gauss_jacobi`, the one quadrature rule behind every grid,
angle and sphere rule of the package) are computed in numpy by Golub-Welsch:
nodes are the eigenvalues of the Jacobi matrix, polished by one Newton step,
and weights are Christoffel sums 1 / sum_k p_k^2 of the orthonormal
polynomials, all from one pass of the three-term recurrence.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma",
    "normalized_j",
    "gauss_jacobi",
    "poisson_representation",
]

_SERIES_MAX_TERMS = 160
_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant

# values per chunk of the batched evaluations: Miller recurrence entries here
# and 1-D law-of-cosines points of shift._axis_shift (every per-axis shift of
# b_convolve, riesz_spatial and shifted_mean_value_check); bounds their
# transient memory
SHIFT_BUDGET = 2**16


def gamma(x: float) -> float:
    """Gamma(x) for x > 0.

    Backed by the C library implementation (rel. error ~1e-15 on [0.05, 50],
    well inside the 1e-13 contract); raises for x <= 0.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    return math.gamma(x)


def _series_switch(nu: float) -> float:
    return max(12.0, 2.0 * abs(nu))


# -- double-double helpers (hi/lo ndarray pairs) ----------------------------

def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _fast_two_sum(a, b):  # requires |a| >= |b|
    s = a + b
    return s, b - (s - a)


def _two_prod(a, b):
    p = a * b
    c = _SPLITTER * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLITTER * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(a, b):
    p, e = _two_prod(a[0], b[0])
    e = e + a[0] * b[1] + a[1] * b[0]
    return _fast_two_sum(p, e)


def _dd_div_scalar(a, d):
    q1 = a[0] / d
    p, e = _two_prod(q1, d)
    q2 = (((a[0] - p) - e) + a[1]) / d
    return _fast_two_sum(q1, q2)


def _dd_add(a, b):
    s, e = _two_sum(a[0], b[0])
    return _fast_two_sum(s, e + (a[1] + b[1]))


def _normalized_series(nu: float, r: np.ndarray) -> np.ndarray:
    """j_nu by its ascending series sum_k (-1)^k (r^2/4)^k / (k! (nu+1)_k),
    accumulated in double-double so the result is correctly rounded.

    Every eighth term, the arguments whose last term is negligible are
    written out and dropped from the active arrays, so each argument stops
    at the term it would stop at alone and its value does not depend on the
    rest of the batch.
    """
    out = np.empty_like(r)
    idx = np.arange(r.size)
    zh, zl = _two_prod(r, r)
    negz = (-0.25 * zh, -0.25 * zl)
    term = (np.ones_like(r), np.zeros_like(r))
    total = (np.ones_like(r), np.zeros_like(r))
    for k in range(_SERIES_MAX_TERMS):
        term = _dd_mul(term, negz)
        term = _dd_div_scalar(term, (k + 1.0) * (nu + k + 1.0))
        total = _dd_add(total, term)
        if k % 8 == 7:
            done = np.abs(term[0]) <= 1e-34 * np.maximum(np.abs(total[0]), 1.0)
            if done.any():
                out[idx[done]] = total[0][done] + total[1][done]
                live = ~done
                idx = idx[live]
                if not idx.size:
                    return out
                negz, term, total = ((a[live], b[live]) for a, b in (negz, term, total))
    out[idx] = total[0] + total[1]
    return out


def _miller_jv(nu: float, r: np.ndarray) -> np.ndarray:
    """J_nu(r) for r above the series switch by backward recurrence.

    Downward three-term recurrence J_{mu-1} = (2 mu / r) J_mu - J_{mu+1} from a
    start order well above max(nu, r), normalized with the Neumann sum
    sum_k (nu+2k) Gamma(nu+k)/k! J_{nu+2k}(r) = (r/2)^nu.  Runs in extended
    precision to keep the evaluation jitter near one double ulp.  Chunks of at
    most SHIFT_BUDGET entries bound the memory of the pass.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    for lo in range(0, r.size, SHIFT_BUDGET):
        out[lo : lo + SHIFT_BUDGET] = _miller_pass(nu, r[lo : lo + SHIFT_BUDGET])
    return out


def _miller_pass(nu: float, r: np.ndarray) -> np.ndarray:
    """One downward pass of `_miller_jv` over every entry of r.

    Each entry starts at its own order, so a deep start cannot underflow
    shallow entries: sorted deepest first, the step at order j runs on the
    prefix of entries that start at j or above, each seeded at its own start
    order, and an entry sees the same operations as in a pass of its own.
    """
    top = np.maximum(r, abs(nu))
    m_need = (top + 12.0 * np.sqrt(top) + 30.0).astype(int)
    m_need += m_need % 2  # even number of downward steps
    order = np.argsort(-m_need, kind="stable")
    m = m_need[order]
    rs = r[order].astype(np.longdouble)
    inv_r = 2.0 / rs
    fp = np.empty_like(rs)  # J_{nu+j+1} (unnormalized)
    fc = np.empty_like(rs)  # J_{nu+j}
    norm = np.zeros_like(rs)
    # live[j]: entries whose start order is >= j (m is non-increasing)
    live = np.searchsorted(-m, -np.arange(m[0] + 1), side="right")
    started = 0
    for j in range(m[0], -1, -1):
        p = live[j]
        if p > started:  # entries that start at order j
            fp[started:p], fc[started:p] = 0.0, 1e-35
            started = p
        if j % 2 == 0:
            k = j // 2
            if k == 0:
                g = math.gamma(nu + 1.0)
            else:
                g = (nu + 2.0 * k) * math.exp(math.lgamma(nu + k) - math.lgamma(k + 1.0))
            norm[:p] += np.longdouble(g) * fc[:p]
        if j == 0:
            break
        fp[:p] = (nu + j) * inv_r[:p] * fc[:p] - fp[:p]
        fp, fc = fc, fp
    out = np.empty_like(r)
    out[order] = (fc * (0.5 * rs) ** np.longdouble(nu) / norm).astype(float)
    return out


def normalized_j(nu, r):
    """Normalized Bessel function j_nu(r) = 2^nu Gamma(nu+1) J_nu(r) r^(-nu).

    j_nu(0) = 1 exactly (series branch); even in r.  Scalar or ndarray r;
    ValueError unless nu > -1 and every r is finite and >= 0 (a NaN or inf
    start order would spoil its whole Miller pass).
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise ValueError(f"Bessel order must satisfy nu > -1, got {nu}")
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise ValueError("normalized_j requires finite r >= 0")
    out = np.empty_like(arr)
    small = arr < _series_switch(nu)
    if np.any(small):
        out[small] = _normalized_series(nu, arr[small])
    if np.any(~small):
        rl = arr[~small]
        out[~small] = (
            2.0**nu * math.gamma(nu + 1.0) * _miller_jv(nu, rl) * rl ** (-nu)
        )
    return out if np.ndim(r) else float(out[0])


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
    symmetrized.  Returns (nodes increasing, weights).
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
    return t, w


def poisson_representation(gamma_axis: float, r, quad_points: int = 64):
    """j_{gamma-1/2}(r) through its integral representation

        Gamma(gamma+1/2) / (Gamma(gamma) Gamma(1/2))
            * int_0^pi e^{i r cos a} (sin a)^{2 gamma - 1} da

    evaluated (real part) by Gauss-Jacobi quadrature in t = cos a, the rule
    from `gauss_jacobi`.  That rule shares no code with the series or Miller
    paths of normalized_j, so this stays an independent cross-check of it.
    Scalar or ndarray r.
    """
    gamma_axis = float(gamma_axis)
    if gamma_axis <= 0.0:
        raise ValueError("poisson_representation requires gamma_axis > 0")
    if quad_points < 8:
        raise ValueError("poisson_representation requires quad_points >= 8")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("poisson_representation requires r >= 0")
    t, w = gauss_jacobi(quad_points, gamma_axis - 1.0, gamma_axis - 1.0)
    const = math.gamma(gamma_axis + 0.5) / (math.gamma(gamma_axis) * math.sqrt(math.pi))
    # numpy's pairwise sum per point: array and scalar calls agree bitwise
    out = const * np.sum(np.cos(np.multiply.outer(arr, t)) * w, axis=-1)
    return out if np.ndim(r) else float(out)
