"""Gamma function, Bessel functions of the first kind, and the normalized
Bessel kernel j_nu.

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
pass runs in chunks of SHIFT_BUDGET arguments.  The series is accumulated in
double-double arithmetic (error-free transforms): plain double accumulation
near the switch radius carries ~1e-12 cancellation jitter, which the
finite-difference eigenrelation check amplifies by 1/h^2 far past its 1e-7
budget, while the compensated sum keeps evaluations correctly rounded at
double precision.  The removable singularity of j_nu at r = 0 is never
evaluated as J_nu(r)/r^nu; the series gives j_nu(0) = 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BesselOrder",
    "gamma",
    "bessel_j",
    "normalized_j",
    "poisson_representation",
]

_SERIES_MAX_TERMS = 160
_SPLITTER = 134217729.0  # 2^27 + 1, Dekker splitting constant

# values per chunk of the batched evaluations: Miller recurrence entries here,
# law-of-cosines points of the shift module's callable route and stencil
# values of GridInterpolator's gather; bounds their transient memory
# (b_convolve's 1-D kernel builds run unchunked: N_i^2 A_i points, 3.5 MB at
# 96 points and 48 angles)
SHIFT_BUDGET = 2**16


@dataclass(frozen=True)
class BesselOrder:
    """Real Bessel order nu > -1 (nu = gamma_i - 1/2 with gamma_i > 0 in use)."""

    nu: float

    def __post_init__(self):
        if not math.isfinite(self.nu) or self.nu <= -1.0:
            raise ValueError(f"Bessel order must satisfy nu > -1, got {self.nu}")


def _order(nu) -> float:
    nu = nu.nu if isinstance(nu, BesselOrder) else float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise ValueError(f"Bessel order must satisfy nu > -1, got {nu}")
    return nu


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
    accumulated in double-double so the result is correctly rounded."""
    zh, zl = _two_prod(r, r)
    negz = (-0.25 * zh, -0.25 * zl)
    term = (np.ones_like(r), np.zeros_like(r))
    total = (np.ones_like(r), np.zeros_like(r))
    for k in range(_SERIES_MAX_TERMS):
        term = _dd_mul(term, negz)
        term = _dd_div_scalar(term, (k + 1.0) * (nu + k + 1.0))
        total = _dd_add(total, term)
        if k % 8 == 7 and np.all(
            np.abs(term[0]) <= 1e-34 * np.maximum(np.abs(total[0]), 1.0)
        ):
            break
    return total[0] + total[1]


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


def bessel_j(nu, r):
    """Bessel function of the first kind J_nu(r), r >= 0, nu > -1.

    Scalar or ndarray r; abs. error <= 1e-12 on r in [0, 100], nu in [-0.5, 10].
    """
    nu = _order(nu)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0.0):
        raise ValueError("bessel_j requires r >= 0")
    out = np.empty_like(arr)
    small = arr < _series_switch(nu)
    if np.any(small):
        rs = arr[small]
        series = _normalized_series(nu, rs)
        # J_nu = (r/2)^nu / Gamma(nu+1) * j_nu ; safe: series branch only
        # (r = 0 with nu < 0 correctly diverges)
        with np.errstate(divide="ignore"):
            out[small] = (0.5 * rs) ** nu / math.gamma(nu + 1.0) * series
    if np.any(~small):
        out[~small] = _miller_jv(nu, arr[~small])
    return out if np.ndim(r) else float(out[0])


def normalized_j(nu, r):
    """Normalized Bessel function j_nu(r) = 2^nu Gamma(nu+1) J_nu(r) r^(-nu).

    j_nu(0) = 1 exactly (series branch); even in r.  Scalar or ndarray r.
    """
    nu = _order(nu)
    arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(arr < 0.0):
        raise ValueError("normalized_j requires r >= 0")
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


def poisson_representation(gamma_axis: float, r, quad_points: int = 64):
    """j_{gamma-1/2}(r) through its integral representation

        Gamma(gamma+1/2) / (Gamma(gamma) Gamma(1/2))
            * int_0^pi e^{i r cos a} (sin a)^{2 gamma - 1} da

    evaluated (real part) by Gauss-Jacobi quadrature in t = cos a.  This is an
    independent evaluation path used to cross-check normalized_j.  Scalar or
    ndarray r.
    """
    from scipy.special import roots_jacobi

    gamma_axis = float(gamma_axis)
    if gamma_axis <= 0.0:
        raise ValueError("poisson_representation requires gamma_axis > 0")
    if quad_points < 8:
        raise ValueError("poisson_representation requires quad_points >= 8")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("poisson_representation requires r >= 0")
    t, w = roots_jacobi(quad_points, gamma_axis - 1.0, gamma_axis - 1.0)
    const = math.gamma(gamma_axis + 0.5) / (math.gamma(gamma_axis) * math.sqrt(math.pi))
    out = const * (np.cos(np.multiply.outer(arr, t)) @ w)
    return out if np.ndim(r) else float(out)
