import importlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bhk import special
from bhk.grids import build_tensor_grid
from bhk.shift import MAX_ANGLES
from bhk.transform import build_fb_plan
from bhk.special import (
    gamma,
    gauss_jacobi,
    gauss_jacobi_on,
    normalized_j,
    poisson_representation,
)

# Lanczos g=7, n=9 coefficients (Boost/GSL-standard values): independent
# oracle for the gamma implementation.
_LANCZOS = [
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
]


def lanczos_gamma(x: float) -> float:
    if x < 0.5:
        return math.pi / (math.sin(math.pi * x) * lanczos_gamma(1.0 - x))
    x -= 1.0
    a = _LANCZOS[0]
    t = x + 7.5
    for i in range(1, 9):
        a += _LANCZOS[i] / (x + i)
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * math.exp(-t) * a


class TestGamma:
    def test_integer_and_half_integer_values(self):
        assert gamma(1.0) == 1.0
        assert_allclose(gamma(0.5), 1.7724538509055160, rtol=1e-14)
        assert_allclose(gamma(1.5), 0.8862269254527580, rtol=1e-14)

    def test_against_lanczos_oracle(self):
        for x in np.linspace(0.05, 50.0, 173):
            assert_allclose(gamma(x), lanczos_gamma(x), rtol=1e-11)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan")])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            gamma(bad)

    @given(st.floats(min_value=0.05, max_value=49.0))
    @settings(max_examples=50)
    def test_recurrence(self, x):
        assert_allclose(gamma(x + 1.0), x * gamma(x), rtol=1e-13)


def bessel_j(nu, r):
    """J_nu(r) = (r/2)^nu / Gamma(nu+1) * j_nu(r), from normalized_j."""
    return normalized_j(nu, r) * (0.5 * np.asarray(r)) ** nu / gamma(nu + 1.0)


class TestBesselJ:
    """normalized_j against J_nu through bessel_j above."""

    def test_values_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(2.3, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(r) = sqrt(2/(pi r)) sin r vanishes at r = pi
        assert abs(bessel_j(0.5, math.pi)) < 1e-12

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 2.3, 5.0, 10.0])
    def test_against_scipy(self, nu):
        r = np.linspace(0.0, 100.0, 1553)
        if nu < 0:
            r = r[1:]  # J_nu diverges at 0 for negative order
        assert np.max(np.abs(bessel_j(nu, r) - sp.jv(nu, r))) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            normalized_j(0.0, -1.0)
        with pytest.raises(ValueError):
            normalized_j(-1.5, 1.0)
        with pytest.raises(ValueError):
            normalized_j(-1.0, 1.0)


def _start_orders(nu, r):
    top = np.maximum(r, abs(nu))
    m_need = (top + 10.0 * np.cbrt(top) + 12.0).astype(int)
    return m_need + m_need % 2


def _tiny_r(nu):
    """Largest r below which j_nu(r) = 1 - r^2 / (4 (nu + 1)) + ... rounds to 1."""
    return 2.0**-26 * math.sqrt(nu + 1.0)


def _bucketed_miller_j(nu, r):
    """Oracle: Miller's recurrence with one downward loop per start order, on
    fresh arrays seeded with 1, normalized by the Neumann sum
    sum_k a_k f_{2k}, a_0 = 1, a_k = (nu + 2k) (nu + 1)_{k-1} / k!."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    m_need = _start_orders(nu, r)
    x = np.longdouble(nu)
    a, rising = [np.longdouble(1.0)], np.longdouble(1.0)
    for k in range(1, int(m_need.max()) // 2 + 1):
        if k > 1:
            rising = rising * ((x + (k - 1)) / np.longdouble(k))
        a.append((x + 2 * k) * rising)
    for m in np.unique(m_need):
        sel = m_need == m
        inv_r = 1.0 / r[sel].astype(np.longdouble)
        fp = np.zeros_like(inv_r)
        fc = np.ones_like(inv_r)
        norm = np.zeros_like(inv_r)
        for j in range(m, -1, -1):
            if j % 2 == 0:
                norm = norm + a[j // 2] * fc
            if j:
                fp, fc = fc, fc * inv_r * (2 * (x + j)) - fp
        out[sel] = fc / norm
    return out


class TestMillerRecurrence:
    """The one in-place pass is bitwise equal to the bucketed one."""

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0, 4.5, 9.5])
    def test_random_arguments(self, nu):
        r = np.random.default_rng(9).uniform(0.0, 100.0, 3000)
        assert np.array_equal(normalized_j(nu, r), _bucketed_miller_j(nu, r))

    @pytest.mark.parametrize("nu", [-0.5, 2.0, 9.5])
    def test_single_argument(self, nu):
        for r in (37.3, 0.3, 1.001 * _tiny_r(nu)):
            assert normalized_j(nu, r) == _bucketed_miller_j(nu, r)[0]

    def test_shared_start_order(self):
        r = 40.0 + np.linspace(0.0, 0.05, 9)
        assert np.unique(_start_orders(0.5, r)).size == 1
        assert np.array_equal(normalized_j(0.5, r), _bucketed_miller_j(0.5, r))

    def test_adjacent_start_orders(self):
        # unsorted arguments on both sides of a step of the start order
        r = np.random.default_rng(3).permutation(np.linspace(40.0, 41.0, 41))
        m = np.unique(_start_orders(2.0, r))
        assert m.size == 2 and m[1] - m[0] == 2
        assert np.array_equal(normalized_j(2.0, r), _bucketed_miller_j(2.0, r))

    def test_chunks_equal_one_pass(self, monkeypatch):
        r = np.random.default_rng(5).uniform(0.0, 80.0, special.SHIFT_BUDGET + 1001)
        chunked = normalized_j(0.0, r)
        monkeypatch.setattr(special, "SHIFT_BUDGET", r.size)
        assert np.array_equal(chunked, normalized_j(0.0, r))

    def test_peak_memory_bounded(self):
        # 12.7 MB in chunks of SHIFT_BUDGET, 32.1 MB for one unchunked pass
        r = np.random.default_rng(7).uniform(12.0, 80.0, 200_000)
        tracemalloc.start()
        try:
            normalized_j(0.0, r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


class TestNormalizedJ:
    def test_normalization_exact(self):
        for nu in (-0.5, 0.0, 1.0, 2.3, 7.7):
            assert normalized_j(nu, 0.0) == 1.0

    def test_sinc_form(self):
        r = np.linspace(0.0, 50.0, 1000)
        sinc = np.where(r > 0, np.sin(r) / np.where(r > 0, r, 1.0), 1.0)
        assert np.max(np.abs(normalized_j(0.5, r) - sinc)) < 1e-12
        assert_allclose(normalized_j(0.5, 2.0), math.sin(2.0) / 2.0, atol=1e-14)

    def test_cosine_form(self):
        r = np.linspace(0.0, 50.0, 1000)
        assert np.max(np.abs(normalized_j(-0.5, r) - np.cos(r))) < 1e-12
        assert_allclose(normalized_j(-0.5, 1.0), math.cos(1.0), atol=1e-14)

    @given(st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=60)
    def test_bounded_by_one(self, r):
        # |j_nu| <= 1 for nu >= -1/2
        for nu in (0.0, 1.0, 3.5):
            assert abs(normalized_j(nu, r)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_non_finite_refused(self, bad):
        # a NaN or inf beside 20.0 in one Miller pass turned both into NaN
        with pytest.raises(ValueError, match="finite r >= 0"):
            normalized_j(0.5, np.array([bad, 20.0]))

    @given(st.floats(min_value=-0.5, max_value=9.5),
           st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_batch_equals_scalar_calls(self, nu, extra):
        # 0, the smallest subnormal, both sides of the tiny-r cut, a step of
        # the start order and random arguments: each entry of a batch is
        # bitwise its value in a call of its own
        tiny = _tiny_r(nu)
        steps = np.linspace(20.0, 22.0, 17)
        assert np.unique(_start_orders(nu, steps)).size > 1
        r = np.array([0.0, 5e-324, 0.999 * tiny, 1.001 * tiny, *steps, *extra])
        batch = normalized_j(nu, r)
        assert batch[0] == batch[1] == batch[2] == 1.0
        assert np.array_equal(batch, [normalized_j(nu, float(x)) for x in r])
        assert np.array_equal(batch[::-1], normalized_j(nu, r[::-1]))
        # repeated and permuted: every copy reads its argument's one value
        perm = np.random.default_rng(r.size).permutation(3 * r.size) % r.size
        assert np.array_equal(normalized_j(nu, r[perm]), batch[perm])

    @pytest.mark.parametrize("g, points, args", [
        ((0.5, 1.5), 96, [6098, 6141]),
        ((0.5, 1.0, 1.5), 48, [1539, 1569, 1587]),
    ])
    def test_distinct_arguments_per_plan(self, g, points, args, monkeypatch):
        # a plan axis's N^2 products x_a y_b (9216 at 96 points, 2304 at 48)
        # hold bitwise twins: the Miller pass runs once per distinct one
        # (patched through importlib: bhk re-exports names that shadow its
        # submodules)
        mod = importlib.import_module("bhk.special")
        sizes, miller = [], mod._miller_pass
        monkeypatch.setattr(mod, "_miller_pass",
                            lambda nu, r: sizes.append(r.size) or miller(nu, r))
        build_fb_plan(build_tensor_grid(g, 8.0, points))
        assert sizes == args

    def test_array_shapes(self):
        # a transposed (Fortran-ordered) array is read and written in its
        # own index order
        r = np.linspace(0.0, 30.0, 12).reshape(3, 4)
        got = normalized_j(1.5, r.T)
        assert got.shape == (4, 3)
        assert np.array_equal(got, normalized_j(1.5, r).T)
        assert isinstance(normalized_j(1.5, np.array(2.0)), float)

    @pytest.mark.parametrize("nu", [-0.99, 4.5, 9.5])
    def test_tiny_arguments_exact_without_warning(self, nu):
        # the pass's growth (2/r)^m overflows as r -> 0 (at nu = 4.5,
        # r = 1e-150 it warned); below the cut j_nu is exactly 1.0
        r = np.array([5e-324, 1e-300, 1e-150, 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(normalized_j(nu, r), np.ones(4))
            assert 0.0 < 1.0 - normalized_j(nu, 1.001 * _tiny_r(nu)) < 1e-15

    def test_against_mpmath(self):
        # 40-digit J_nu over seeded gamma in [0.05, 5], the cosine order and
        # gamma = 0.05; r in [0, 100] with a dense band around r = 12, where
        # a double-rounded series once read 1.24e-12 off at nu = -0.45
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(22)
        nus = [*(rng.uniform(0.05, 5.0, 5) - 0.5), -0.5, -0.45]
        r = np.concatenate(([0.0, 1e-6, 0.25], rng.uniform(0.0, 100.0, 60),
                            rng.uniform(11.5, 12.5, 30)))
        with mp.workdps(40):
            for nu in nus:
                got = normalized_j(nu, r)
                mnu = mp.mpf(nu)
                scale = 2**mnu * mp.gamma(mnu + 1)
                want = [1.0] + [float(scale * mp.besselj(mnu, mp.mpf(x)) / mp.mpf(x) ** mnu)
                                for x in r[1:]]
                assert np.max(np.abs(got - want)) <= 1e-14, nu

    def test_eigenrelation_residual(self):
        # u'' + (2 g / r) u' + u = 0 for u = j_{g-1/2}, central differences
        h = 1e-4
        for g in (0.5, 1.5, 3.0, 0.05, 0.7):
            nu = g - 0.5
            r = np.linspace(0.5, 20.0, 391)
            u0 = normalized_j(nu, r)
            up = normalized_j(nu, r + h)
            um = normalized_j(nu, r - h)
            res = (up - 2 * u0 + um) / h**2 + (2 * g / r) * (up - um) / (2 * h) + u0
            assert np.max(np.abs(res)) < 1e-7


class TestPoissonRepresentation:
    def test_at_zero(self):
        assert_allclose(poisson_representation(0.5, 0.0, 32), 1.0, rtol=1e-13)

    def test_matches_series_path(self):
        assert_allclose(
            poisson_representation(1.0, 3.0, 64),
            math.sin(3.0) / 3.0,
            atol=1e-12,
        )
        for g in (0.5, 1.0, 2.5):
            for r in np.linspace(0.0, 20.0, 41):
                assert abs(
                    poisson_representation(g, float(r), 64)
                    - normalized_j(g - 0.5, float(r))
                ) < 1e-10

    @pytest.mark.parametrize("g", [0.5, 1.0, 2.5])
    def test_array_equals_scalar_calls(self, g):
        r = np.linspace(0.0, 20.0, 81).reshape(9, 9)
        got = poisson_representation(g, r, 64)
        want = np.array([poisson_representation(g, float(t), 64) for t in r.flat])
        assert got.shape == (9, 9)
        # one ulp of 1, the size of the summed terms (const * sum(w) = 1)
        assert np.max(np.abs(got.reshape(-1) - want)) <= np.spacing(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_representation(1.0, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            poisson_representation(0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_representation(1.0, 1.0, quad_points=4)


# the three Jacobi exponent families in use, per gamma: (0, 2 gamma) of the
# tensor grid, (gamma - 1, gamma - 1) of the T^y angle rule and Poisson
# integral, and (2 gamma, gamma - 1/2) of the sphere rule's first angle at
# n = 3 with equal gammas; plus Chebyshev, whose k = 1 coefficient is 0/0
_GJ_GAMMAS = (0.05, 0.5, 1.5, 5.0)
_GJ_EXPONENTS = list(dict.fromkeys(
    [pair for g in _GJ_GAMMAS
     for pair in ((0.0, 2.0 * g), (g - 1.0, g - 1.0), (2.0 * g, g - 0.5))]
    + [(-0.5, -0.5)]))


def _mp_gauss_jacobi(n, a, b, start):
    """40-digit Gauss-Jacobi nodes and weights: Newton-polished roots of
    P_n^{(a,b)} from `start`, weights from the closed form
    2^{a+b+1} Gamma(n+a+1) Gamma(n+b+1) / (Gamma(n+a+b+1) n! (1-t^2) P_n'(t)^2),
    and |sum of the weights / mu0 - 1|, which is ~1e-30 for a whole rule."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        coeffs = []  # P_m = (A x + B) P_{m-1} - C P_{m-2}
        for m in range(2, n + 1):
            s = 2 * m + a + b
            d = 2 * m * (m + a + b) * (s - 2)
            coeffs.append(((s - 2) * (s - 1) * s / d, (s - 1) * (a * a - b * b) / d,
                           2 * (m + a - 1) * (m + b - 1) * s / d))

        def p_and_dp(x):
            p0, p1 = mp.mpf(1), (a - b) / 2 + (a + b + 2) * x / 2
            d0, d1 = mp.mpf(0), (a + b + 2) / 2
            for A, B, C in coeffs:
                y = A * x + B
                p0, p1, d0, d1 = p1, y * p1 - C * p0, d1, y * d1 + A * p1 - C * d0
            return p1, d1

        const = (2 ** (a + b + 1) * mp.gamma(n + a + 1) * mp.gamma(n + b + 1)
                 / (mp.gamma(n + a + b + 1) * mp.factorial(n)))
        nodes, weights = [], []
        for x in start:
            x = mp.mpf(float(x))
            for _ in range(2):  # a double start is within ~1e-16: 1e-32, then 1e-64
                p, dp = p_and_dp(x)
                x -= p / dp
            nodes.append(x)
            weights.append(const / ((1 - x * x) * dp * dp))
        mass = mp.fsum(weights) / (2 ** (a + b + 1) * mp.beta(a + 1, b + 1))
        return (np.array([float(x) for x in nodes]),
                np.array([float(w) for w in weights]), float(abs(mass - 1)))


def _jacobi_moments(kmax, a, b):
    """int_{-1}^{1} t^k (1-t)^a (1+t)^b dt for k <= kmax, by the integration by
    parts recurrence (k + a + b + 2) M_{k+1} = k M_{k-1} + (b - a) M_k."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        a, b = mp.mpf(a), mp.mpf(b)
        m = [2 ** (a + b + 1) * mp.beta(a + 1, b + 1)]
        m.append(m[0] * (b - a) / (a + b + 2))
        for k in range(1, kmax):
            m.append((k * m[k - 1] + (b - a) * m[k]) / (k + a + b + 2))
        return np.array([float(v) for v in m[: kmax + 1]])


class TestGaussJacobi:
    # plus the Legendre rules of the radial integrals: riesz_spatial's 24 and
    # 48 points and pv_regularized_limit's 240
    @pytest.mark.parametrize("a,b,n", [(a, b, n) for n in (8, 16, 48, 96)
                                       for a, b in _GJ_EXPONENTS]
                             + [(0.0, 0.0, n) for n in (24, 48, 240)])
    def test_against_mpmath(self, n, a, b):
        t, w = gauss_jacobi(n, a, b)
        t_ref, w_ref, mass_err = _mp_gauss_jacobi(n, a, b, t)
        # n distinct roots found: the weights carry the whole mass
        assert mass_err < 1e-25 and np.all(np.diff(t_ref) > 0)
        assert np.max(np.abs(t - t_ref)) <= 2e-16
        # Legendre weights read 3.1e-15, 4.9e-15 and 1.5e-13 (numpy's leggauss
        # 1.2e-13, 1.3e-12 and 4.2e-11)
        assert np.max(np.abs(w / w_ref - 1.0)) <= (2e-13 if a == b == 0.0 else 1e-12)

    @pytest.mark.parametrize("n", (24, 48, 240))
    def test_gauss_jacobi_is_cached_and_read_only(self, n):
        # the radial rules of riesz_spatial and pv_regularized_limit map these
        # arrays on every call, so no caller may write into them
        t, w = gauss_jacobi(n, 0.0, 0.0)
        assert gauss_jacobi(n, 0, 0)[0] is t
        for arr in (t, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    @pytest.mark.parametrize("a,b", _GJ_EXPONENTS[:3])  # the gamma = 0.05 pairs
    def test_end_nodes_at_max_angles(self, a, b):
        # the four nodes nearest each of +-1, where the weights are most
        # sensitive to the recurrence coefficients (a reference for all 384
        # nodes takes minutes)
        ends = np.r_[0:4, -4:0]
        t, w = gauss_jacobi(MAX_ANGLES, a, b)
        t_ref, w_ref, _ = _mp_gauss_jacobi(MAX_ANGLES, a, b, t[ends])
        assert np.max(np.abs(t[ends] - t_ref)) <= 2e-16
        assert np.max(np.abs(w[ends] / w_ref - 1.0)) <= 1e-12

    @pytest.mark.parametrize("a,b", _GJ_EXPONENTS)
    def test_moments_exact_at_max_angles(self, a, b):
        n = MAX_ANGLES
        t, w = gauss_jacobi(n, a, b)
        powers = t[None, :] ** np.arange(2 * n)[:, None]
        got = powers @ w
        scale = np.abs(powers) @ w
        assert np.all(np.abs(got - _jacobi_moments(2 * n - 1, a, b)) <= 1e-12 * scale)

    @given(st.floats(min_value=0.05, max_value=5.0), st.integers(8, 96),
           st.integers(0, 2))
    @settings(max_examples=40)
    def test_against_scipy(self, g, n, family):
        a, b = ((0.0, 2.0 * g), (g - 1.0, g - 1.0), (2.0 * g, g - 0.5))[family]
        t, w = gauss_jacobi(n, a, b)
        t_ref, w_ref = sp.roots_jacobi(n, a, b)
        assert np.max(np.abs(t - t_ref)) <= 1e-15
        assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-9

    def test_symmetric_rule_is_symmetric(self):
        for n in (7, 8):
            t, w = gauss_jacobi(n, 0.3, 0.3)
            assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])

    def test_validation(self):
        for args in ((0, 0.0, 0.0), (8, -1.0, 0.0), (8, 0.0, -1.5), (8, float("nan"), 0.0)):
            with pytest.raises(ValueError):
                gauss_jacobi(*args)


# the radial r_max = x_max + |x| of riesz_spatial at three evaluation points
_RIESZ_R_MAX = (8.0 + math.hypot(0.3, 0.7), 8.0 + math.hypot(1.1, 0.4), 12.0 + 1.5)


class TestGaussJacobiOn:
    """gauss_jacobi_on against the affine maps each caller wrote out by hand
    before it existed, kept here as the oracle: every node and weight must
    agree bitwise, so the reports built on them do not move."""

    @pytest.mark.parametrize("x_max", (7.3, 8.0, 10.0, 12.0))
    @pytest.mark.parametrize("g", (0.05, 0.5, 1.0, 1.5, 4.8, 5.0))
    def test_grid_axis_rule(self, g, x_max):
        t, w = gauss_jacobi(96, 0.0, 2.0 * g)
        want_x, want_w = 0.5 * x_max * (1.0 + t), w * (0.5 * x_max) ** (2.0 * g + 1.0)
        x, wx = gauss_jacobi_on(96, 0.0, 2.0 * g, 0.0, x_max)
        assert np.array_equal(x, want_x) and np.array_equal(wx, want_w)
        grid = build_tensor_grid((g, 0.5), x_max, 96)
        assert np.array_equal(grid.nodes[0], want_x)
        assert np.array_equal(grid.weights[0], want_w)

    @pytest.mark.parametrize("r_max", _RIESZ_R_MAX)
    def test_riesz_radial_rules(self, r_max):
        t, w = gauss_jacobi(24, 0.0, 0.0)
        r, wr = gauss_jacobi_on(24, 0.0, 0.0, 0.0, 1.0)
        assert np.array_equal(r, 0.5 * (t + 1.0)) and np.array_equal(wr, 0.5 * w)
        t, w = gauss_jacobi(48, 0.0, 0.0)
        r, wr = gauss_jacobi_on(48, 0.0, 0.0, 1.0, r_max)
        assert np.array_equal(r, 1.0 + 0.5 * (r_max - 1.0) * (t + 1.0))
        assert np.array_equal(wr, 0.5 * (r_max - 1.0) * w)

    @pytest.mark.parametrize("r_max", (7.3, 8.0, 12.0))
    def test_pv_radial_rules(self, r_max):
        t, w = gauss_jacobi(240, 0.0, 0.0)
        r, wr = gauss_jacobi_on(240, 0.0, 0.0, 0.0, r_max)
        assert np.array_equal(r, 0.5 * r_max * (t + 1.0))
        assert np.array_equal(wr, 0.5 * r_max * w)
        for eps in (0.4, 0.2, 0.1, 0.05):
            r, wr = gauss_jacobi_on(240, 0.0, 0.0, eps, r_max)
            assert np.array_equal(r, eps + 0.5 * (r_max - eps) * (t + 1.0))
            assert np.array_equal(wr, 0.5 * (r_max - eps) * w)

    def test_moments_on_interval(self):
        # int_lo^hi (hi - x)^a (x - lo)^b dx = (hi - lo)^{a+b+1} B(a+1, b+1)
        lo, hi, a, b = 0.7, 3.2, 0.4, 1.5
        x, w = gauss_jacobi_on(16, a, b, lo, hi)
        assert np.all((lo < x) & (x < hi))
        want = (hi - lo) ** (a + b + 1.0) * math.exp(math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                                                   - math.lgamma(a + b + 2.0))
        assert float(np.sum(w)) == pytest.approx(want, rel=1e-14)
