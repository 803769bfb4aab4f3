import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bhk import special
from bhk.special import (
    BesselOrder,
    bessel_j,
    gamma,
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


class TestBesselJ:
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
            bessel_j(0.0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(ValueError):
            BesselOrder(-1.0)

    def test_accepts_bessel_order(self):
        assert bessel_j(BesselOrder(0.5), 2.0) == bessel_j(0.5, 2.0)


def _bucketed_miller_jv(nu, r):
    """Oracle: Miller's recurrence with one downward loop per start order."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    m_need = _start_orders(nu, r)
    for m in np.unique(m_need):
        sel = m_need == m
        rs = r[sel].astype(np.longdouble)
        inv_r = 2.0 / rs
        fp = np.zeros_like(rs)
        fc = np.full_like(rs, np.longdouble(1e-35))
        norm = np.zeros_like(rs)
        f0 = fc
        for j in range(m, -1, -1):
            if j % 2 == 0:
                k = j // 2
                if k == 0:
                    g = math.gamma(nu + 1.0)
                else:
                    g = (nu + 2.0 * k) * math.exp(
                        math.lgamma(nu + k) - math.lgamma(k + 1.0)
                    )
                norm = norm + np.longdouble(g) * fc
            if j == 0:
                f0 = fc
                break
            fp, fc = fc, (nu + j) * inv_r * fc - fp
        out[sel] = (f0 * (0.5 * rs) ** np.longdouble(nu) / norm).astype(float)
    return out


def _start_orders(nu, r):
    top = np.maximum(r, abs(nu))
    m_need = (top + 12.0 * np.sqrt(top) + 30.0).astype(int)
    return m_need + m_need % 2


class TestMillerRecurrence:
    """The one-pass recurrence is bitwise equal to the bucketed one."""

    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 2.0, 4.5, 9.5])
    def test_random_arguments(self, nu):
        r = np.random.default_rng(9).uniform(special._series_switch(nu), 100.0, 3000)
        assert np.array_equal(special._miller_jv(nu, r), _bucketed_miller_jv(nu, r))

    @pytest.mark.parametrize("nu", [-0.5, 2.0, 9.5])
    def test_single_argument(self, nu):
        r = np.array([37.3])
        assert np.array_equal(special._miller_jv(nu, r), _bucketed_miller_jv(nu, r))

    def test_shared_start_order(self):
        r = 40.0 + np.linspace(0.0, 0.05, 9)
        assert np.unique(_start_orders(0.5, r)).size == 1
        assert np.array_equal(special._miller_jv(0.5, r), _bucketed_miller_jv(0.5, r))

    def test_adjacent_start_orders(self):
        # unsorted arguments on both sides of a step of the start order
        r = np.random.default_rng(3).permutation(np.linspace(40.0, 41.0, 41))
        m = np.unique(_start_orders(2.0, r))
        assert m.size == 2 and m[1] - m[0] == 2
        assert np.array_equal(special._miller_jv(2.0, r), _bucketed_miller_jv(2.0, r))

    def test_chunks_equal_one_pass(self, monkeypatch):
        r = np.random.default_rng(5).uniform(12.0, 80.0, special.SHIFT_BUDGET + 1001)
        chunked = special._miller_jv(0.0, r)
        monkeypatch.setattr(special, "SHIFT_BUDGET", r.size)
        assert np.array_equal(chunked, special._miller_jv(0.0, r))

    def test_peak_memory_bounded(self):
        # 14.3 MB now; 9.4 MB for the bucketed form, 33.8 MB for one unchunked pass
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

    def test_eigenrelation_residual(self):
        # u'' + (2 g / r) u' + u = 0 for u = j_{g-1/2}, central differences
        h = 1e-4
        for g in (0.5, 1.5, 3.0):
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
