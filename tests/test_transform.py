import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from bhk.grids import build_tensor_grid
from bhk.polys import EvenPoly, b_harmonic_basis, eval_poly
from bhk.shift import b_convolve, build_shift_plan
from bhk.special import normalized_j
from bhk.transform import (
    build_fb_plan,
    fb_forward,
    fb_forward_at,
    fb_inverse,
    gaussian_transform,
    harmonic_gaussian_transform,
    pv_kernel_transform,
    pv_regularized_limit,
    spectral_convolution_factor,
)

from conftest import GAMMA, gauss

P2_SPEC = EvenPoly.from_terms(2, {(2, 0): 4.0, (0, 2): -2.0})


def quad_fb_1d(f, g_ax, y, upper=30.0):
    """Independent 1-D transform oracle via adaptive quadrature."""
    nu = g_ax - 0.5
    c = 1.0 / (2.0 ** (g_ax - 0.5) * math.gamma(g_ax + 0.5))
    val, _ = quad(
        lambda x: f(x) * normalized_j(nu, x * y) * x ** (2.0 * g_ax),
        0.0, upper, limit=300,
    )
    return c * val


class TestPlan:
    def test_self_test_gates_bad_plans(self):
        grid = build_tensor_grid(GAMMA, 8.0, 12)  # cannot resolve the kernel
        with pytest.raises(ValueError, match="self-test"):
            build_fb_plan(grid)

    def test_grid_mismatch_raises(self, fb_plan96):
        other = build_tensor_grid(GAMMA, 8.0, 32)
        with pytest.raises(ValueError, match="mismatch"):
            fb_forward(fb_plan96, other.sample(gauss))


class TestForwardAt:
    """fb_forward_at (one kernel row per point) against fb_forward (one
    kernel matrix per axis) at the plan's own frequency nodes."""

    @pytest.mark.parametrize("g, points", [((1.5,), 64), (GAMMA, 64),
                                           ((0.5, 1.0, 1.5), 48)])
    def test_matches_fb_forward_on_freq_nodes(self, g, points):
        n = len(g)
        plan = build_fb_plan(build_tensor_grid(g, 8.0, points))
        widths = 1.0 + 0.2 * np.arange(n)
        f = plan.grid.sample(lambda p: np.exp(-np.sum(widths * p * p, axis=-1)))
        full = fb_forward(plan, f).values
        idx = np.random.default_rng(n).integers(0, points, (12, n))
        pts = np.stack([plan.freq_grid.nodes[i][idx[:, i]] for i in range(n)], axis=-1)
        got = fb_forward_at(plan, f, pts)
        assert np.max(np.abs(got - full[tuple(idx.T)])) <= 1e-13 * np.max(np.abs(full))
        batched = fb_forward_at(plan, f, pts[:6].reshape(2, 3, n))
        assert batched.shape == (2, 3)
        assert_allclose(batched.reshape(-1), got[:6], rtol=1e-14)


class TestGaussianPair:
    def test_1d_half_gamma(self):
        grid = build_tensor_grid((0.5,), 8.0, 64)
        plan = build_fb_plan(grid)
        f = grid.sample(lambda p: np.exp(-p[..., 0] ** 2))
        ys = np.array([[0.3], [1.0], [2.2]])
        got = fb_forward_at(plan, f, ys)
        assert_allclose(got, 0.5 * np.exp(-ys[:, 0] ** 2 / 4.0), rtol=1e-9)

    def test_2d_closed_form(self, fb_plan96, grid96):
        f = grid96.sample(gauss)
        ys = np.array([[0.5, 0.5], [1.0, 2.0], [2.5, 0.7]])
        got = fb_forward_at(fb_plan96, f, ys)
        ref = 0.125 * np.exp(-np.sum(ys * ys, axis=1) / 4.0)
        assert_allclose(got, ref, rtol=1e-9)

    def test_zero_function(self, fb_plan96, grid96):
        z = grid96.sample(lambda p: np.zeros(p.shape[:-1]))
        assert np.all(fb_forward(fb_plan96, z).values == 0.0)

    def test_against_quad_oracle(self):
        grid = build_tensor_grid((1.5,), 8.0, 64)
        plan = build_fb_plan(grid)
        f = grid.sample(lambda p: np.exp(-0.7 * p[..., 0] ** 2))
        for y in (0.4, 1.3, 2.6):
            got = float(fb_forward_at(plan, f, np.array([y])))
            ref = quad_fb_1d(lambda x: math.exp(-0.7 * x * x), 1.5, y)
            assert_allclose(got, ref, rtol=1e-9)

    def test_gaussian_transform_closed_form(self):
        # value at 0 equals c_fb * int e^{-a|x|^2} dmu (per-axis Gamma integral)
        for a in (0.5, 1.0, 2.0):
            got = gaussian_transform(GAMMA, a, np.zeros(2))
            ref = (2.0 * a) ** (-3.0)
            assert_allclose(got, ref, rtol=1e-14)
        assert_allclose(gaussian_transform((0.5,), 0.5, np.zeros(1)), 1.0)
        with pytest.raises(ValueError):
            gaussian_transform(GAMMA, -1.0, np.zeros(2))


class TestRoundTrip:
    def test_involution_on_gaussian(self, fb_plan96, grid96):
        f = grid96.sample(gauss)
        back = fb_inverse(fb_plan96, fb_forward(fb_plan96, f))
        assert np.max(np.abs(back.values - f.values)) < 1e-6

    def test_inverse_of_gaussian_pair(self):
        grid = build_tensor_grid((0.5,), 8.0, 64)
        plan = build_fb_plan(grid)
        g_hat = plan.freq_grid.sample(lambda p: 0.5 * np.exp(-p[..., 0] ** 2 / 4.0))
        back = fb_inverse(plan, g_hat)
        assert np.max(np.abs(back.values - np.exp(-grid.nodes[0] ** 2))) < 1e-6

    def test_inverse_of_zero(self, fb_plan96):
        z = fb_plan96.freq_grid.sample(lambda p: np.zeros(p.shape[:-1]))
        assert np.all(fb_inverse(fb_plan96, z).values == 0.0)


class TestScalingIdentity:
    def test_both_alphas(self, fb_plan96, grid96):
        base = grid96.sample(lambda p: np.exp(-2.0 * np.sum(p * p, axis=-1)))
        probes = np.array([[0.5, 0.8], [1.4, 1.0], [2.0, 2.4]])
        for a in (0.5, 2.0):
            fa = grid96.sample(
                lambda p: np.exp(-2.0 * np.sum((a * p) ** 2, axis=-1))
            )
            lhs = fb_forward_at(fb_plan96, fa, probes)
            rhs = a ** (-2.0 - 2.0 * 2.0) * fb_forward_at(fb_plan96, base, probes / a)
            assert_allclose(lhs, rhs, rtol=1e-6)


class TestHarmonicGaussian:
    def test_worked_value(self):
        got = harmonic_gaussian_transform(P2_SPEC, GAMMA, np.array([1.0, 1.0]))
        assert_allclose(got, -(2.0 / 32.0) * math.exp(-0.5), rtol=1e-14)
        assert_allclose(got, -0.03790816623203959, rtol=1e-12)

    def test_zero_at_origin(self):
        assert harmonic_gaussian_transform(P2_SPEC, GAMMA, np.zeros(2)) == 0.0

    def test_scaling_ratio(self):
        y = np.array([0.7, 0.4])
        v1 = harmonic_gaussian_transform(P2_SPEC, GAMMA, y)
        v2 = harmonic_gaussian_transform(P2_SPEC, GAMMA, 2.0 * y)
        ratio = 2.0**2 * math.exp(-3.0 * float(np.sum(y * y)) / 4.0)
        assert_allclose(v2 / v1, ratio, rtol=1e-12)

    def test_rejects_non_harmonic(self):
        bad = EvenPoly.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0})
        with pytest.raises(ValueError, match="B-harmonic"):
            harmonic_gaussian_transform(bad, GAMMA, np.ones(2))
        odd = EvenPoly.from_terms(2, {(1, 1): 1.0})
        with pytest.raises(ValueError):
            harmonic_gaussian_transform(odd, GAMMA, np.ones(2))

    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_transform_quadrature(self, fb_plan96, grid96, k):
        p_k = b_harmonic_basis(2, k, GAMMA)[0]
        f = grid96.sample(lambda p: eval_poly(p_k, p) * gauss(p))
        ys = np.array([[0.6, 0.9], [1.5, 0.5], [1.0, 1.0], [2.0, 1.2]])
        got = fb_forward_at(fb_plan96, f, ys)
        ref = harmonic_gaussian_transform(p_k, GAMMA, ys)
        assert_allclose(got, ref, rtol=1e-5)


class TestConvolutionTheorem:
    def test_1d_constant_visible(self):
        # gamma = 3/2 makes the convolution constant exactly 2
        g = (1.5,)
        assert_allclose(spectral_convolution_factor(g), 2.0, rtol=1e-14)
        grid = build_tensor_grid(g, 8.0, 48)
        plan = build_fb_plan(grid)
        splan = build_shift_plan(g, 48)
        f = grid.sample(lambda p: np.exp(-p[..., 0] ** 2))
        phi = lambda p: np.exp(-1.5 * p[..., 0] ** 2)
        conv = b_convolve(splan, f, phi)
        lhs = fb_forward(plan, conv).values
        rhs = 2.0 * fb_forward(plan, f).values * fb_forward(plan, grid.sample(phi)).values
        assert np.max(np.abs(lhs - rhs)) < 1e-4 * np.max(np.abs(rhs))

    def test_constant_for_half_gamma_is_one(self):
        assert_allclose(spectral_convolution_factor((0.5, 0.5)), 1.0, rtol=1e-14)


class TestEigenrelation:
    def test_laplace_bessel_multiplier(self, fb_plan96, grid96):
        bf = grid96.sample(
            lambda p: (4.0 * np.sum(p * p, axis=-1) - 12.0) * gauss(p)
        )
        f = grid96.sample(gauss)
        ys = np.array([[1.0, 1.0], [0.5, 2.0], [2.0, 0.5]])
        lhs = fb_forward_at(fb_plan96, bf, ys)
        rhs = -np.sum(ys * ys, axis=1) * fb_forward_at(fb_plan96, f, ys)
        assert_allclose(lhs, rhs, rtol=1e-5)


class TestPvKernelTransform:
    def test_worked_value(self):
        got = pv_kernel_transform(P2_SPEC, GAMMA, [1.0, 0.0])
        assert_allclose(got, -4.0 / 48.0, rtol=1e-14)

    def test_homogeneity_degree_zero(self):
        y = np.array([0.8, 1.1])
        assert_allclose(
            pv_kernel_transform(P2_SPEC, GAMMA, y),
            pv_kernel_transform(P2_SPEC, GAMMA, 5.0 * y),
            rtol=1e-13,
        )

    def test_vanishes_on_kernel_ray(self):
        # 4 y1^2 = 2 y2^2  ->  P2(y) = 0
        y = np.array([1.0, math.sqrt(2.0)])
        assert abs(pv_kernel_transform(P2_SPEC, GAMMA, y)) < 1e-14

    def test_singular_origin(self):
        with pytest.raises(ValueError):
            pv_kernel_transform(P2_SPEC, GAMMA, [0.0, 0.0])

    def test_against_regularized_radial_quadrature(self, sphere96):
        # independent route: c_fb int_0^inf r^-1 [int P2(th) prod j dsigma] dr
        from bhk.transform import fb_constant

        y = np.array([1.0, 0.0])
        nodes, w = sphere96.nodes, sphere96.weights
        pvals = eval_poly(P2_SPEC, nodes)

        def g_of_r(r):
            vals = (normalized_j(GAMMA[0] - 0.5, r * nodes[:, 0] * y[0])
                    * normalized_j(GAMMA[1] - 0.5, r * nodes[:, 1] * y[1]))
            return float(np.dot(w * pvals, vals))

        t, wq = np.polynomial.legendre.leggauss(1200)
        r = 1e-6 + 0.5 * (40.0 - 1e-6) * (t + 1.0)
        wr = 0.5 * (40.0 - 1e-6) * wq
        val = fb_constant(GAMMA) * float(np.sum(wr * [g_of_r(x) / x for x in r]))
        assert_allclose(val, pv_kernel_transform(P2_SPEC, GAMMA, y), rtol=2e-2)


class TestPvRegularizedLimit:
    def test_rejects_nonzero_mean(self, sphere96):
        with pytest.raises(ValueError, match="mean"):
            pv_regularized_limit(
                lambda th: np.ones(th.shape[0]), gauss, sphere96
            )

    def test_radial_phi_gives_zero(self, sphere96):
        res = pv_regularized_limit(
            lambda th: eval_poly(P2_SPEC, th), gauss, sphere96
        )
        assert abs(res.lhs_limit) < 1e-10
        assert abs(res.rhs_limit) < 1e-10

    def test_zero_phi(self, sphere96):
        res = pv_regularized_limit(
            lambda th: eval_poly(P2_SPEC, th),
            lambda p: np.zeros(p.shape[:-1]),
            sphere96,
        )
        assert res.lhs_limit == 0.0 and res.rhs_limit == 0.0

    def test_limits_agree_nonradial(self, sphere96):
        phi = lambda p: p[..., 0] ** 2 * gauss(p)
        res = pv_regularized_limit(
            lambda th: eval_poly(P2_SPEC, th), phi, sphere96
        )
        scale = max(abs(res.lhs_limit), abs(res.rhs_limit))
        assert abs(res.lhs_limit - res.rhs_limit) < 1e-4 * scale
        # exact limit: Phi(r) = A r^2 e^{-r^2} with the angular moment
        # A = int P2 theta_1^2 dsigma = 4/24 - 2/24 = 1/12, so both limits
        # equal int_0^inf r^-1 Phi = A/2 = 1/24
        for got in (res.lhs_limit, res.rhs_limit):
            assert_allclose(got, 1.0 / 24.0, rtol=1e-4)

    def test_eps_sequence_validated(self, sphere96):
        with pytest.raises(ValueError):
            pv_regularized_limit(
                lambda th: eval_poly(P2_SPEC, th), gauss, sphere96,
                eps_seq=(0.1, 0.2),
            )
