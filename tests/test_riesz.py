import math
import warnings

import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose

from bhk.grids import GridInterpolator, build_sphere_rule, build_tensor_grid, lp_norm
from bhk.polys import EvenPoly, eval_poly
from bhk.riesz import (
    apply_bessel_poly_spectral,
    build_riesz_kernel,
    lp_boundedness_probe,
    priori_bound_probe,
    riesz_multiplier,
    riesz_spatial,
    riesz_spectral,
)
from bhk.shift import ShiftTruncationWarning, build_shift_plan
from bhk.transform import fb_forward, fb_forward_at, gaussian_transform

from conftest import GAMMA, gauss

P2_SPEC = EvenPoly.from_terms(2, {(2, 0): 4.0, (0, 2): -2.0})


@pytest.fixture(scope="module")
def kernel():
    return build_riesz_kernel(P2_SPEC, GAMMA)


class TestKernel:
    def test_constants(self, kernel):
        # printed: 2^{(n+2|g|)/2} Gamma((n+k+2|g|)/2)/Gamma(k/2) = 8*6 = 48
        assert_allclose(kernel.c_k_printed, 48.0, rtol=1e-14)
        # fitted: c_fb * printed = 48/2 = 24 (matches the spectral route)
        assert_allclose(kernel.c_k, 24.0, rtol=1e-14)
        assert kernel.exponent == 2 + 2 + 2 * 2.0

    def test_rejects_bad_numerators(self):
        with pytest.raises(ValueError, match="B-harmonic"):
            build_riesz_kernel(EvenPoly.from_terms(2, {(2, 0): 1.0}), GAMMA)
        with pytest.raises(ValueError, match="even degree"):
            build_riesz_kernel(
                EvenPoly.from_terms(2, {(1, 0): 1.0}), GAMMA
            )

    def test_classical_escape_hatch(self):
        p1 = EvenPoly.from_terms(2, {(1, 0): 1.0})
        ker = build_riesz_kernel(p1, GAMMA, allow_classical=True)
        assert ker.degree == 1

    def test_angular_mean_zero(self, kernel, sphere96):
        vals = eval_poly(kernel.poly, sphere96.nodes)
        mean = float(sphere96.weights @ vals)
        scale = float(sphere96.weights @ np.abs(vals))
        assert abs(mean) < 1e-10 * scale


class TestMultiplier:
    def test_field_values(self, kernel, grid96):
        m = riesz_multiplier(kernel, grid96)
        pts = grid96.points()
        ref = -eval_poly(P2_SPEC, pts) / np.sum(pts * pts, axis=-1)
        assert_allclose(m, ref, rtol=1e-13)

    def test_bounded_by_hemisphere_sup(self, kernel, fb_plan96, grid96, sphere96):
        # |M(xi)| = |P(xi/|xi|)| <= sup_{S_+} |P|, and the transform of the
        # spectral output obeys |M * Ff| <= sup |P| * |Ff| pointwise
        m = riesz_multiplier(kernel, fb_plan96.freq_grid)
        # sup over the closed hemisphere; Gauss nodes never reach the axes,
        # where |P| peaks, so include the unit vectors explicitly
        closure = np.vstack([sphere96.nodes, np.eye(2)])
        sup_p = float(np.max(np.abs(eval_poly(P2_SPEC, closure))))
        assert np.max(np.abs(m)) <= sup_p + 1e-12
        f_hat = np.abs(fb_forward(fb_plan96, grid96.sample(gauss)).values)
        assert np.all(np.abs(m * f_hat) <= sup_p * f_hat + 1e-300)

    def test_degree_zero_homogeneity(self, kernel):
        y = np.array([0.7, 1.9])
        vals = [
            -eval_poly(P2_SPEC, t * y) / float(np.sum((t * y) ** 2))
            for t in (0.5, 1.0, 2.0, 10.0)
        ]
        assert max(vals) - min(vals) < 1e-12 * max(abs(v) for v in vals)

    def test_vanishes_on_kernel_ray(self, kernel, fb_plan96, grid96):
        # F[Rf] = M * Ff vanishes wherever P does; the multiplier is exactly 0
        # on the ray 4 y1^2 = 2 y2^2
        y = np.array([[1.0, math.sqrt(2.0)], [2.0, 2.0 * math.sqrt(2.0)]])
        m_ray = -eval_poly(P2_SPEC, y) / np.sum(y * y, axis=-1)
        assert np.max(np.abs(m_ray)) < 1e-14
        f = grid96.sample(gauss)
        ff = fb_forward_at(fb_plan96, f, y)
        assert np.max(np.abs(m_ray * ff)) < 1e-14
        # re-transforming the spectral output only reproduces this up to the
        # grid's round-trip error (the multiplier kinks at the origin)
        rf = riesz_spectral(kernel, f, fb_plan96)
        got = fb_forward_at(fb_plan96, rf, y)
        peak = abs(float(fb_forward_at(fb_plan96, rf, np.array([1.0, 1.0]))))
        assert np.max(np.abs(got)) < 1e-2 * peak


class TestSpectralValue:
    def test_worked_example(self, kernel, fb_plan96, grid96):
        f = grid96.sample(gauss)
        xi = np.array([1.0, 1.0])
        mult = -eval_poly(P2_SPEC, xi) / 2.0
        got = mult * float(fb_forward_at(fb_plan96, f, xi))
        assert_allclose(got, -(1.0 / 8.0) * math.exp(-0.5), rtol=1e-6)
        assert_allclose(got, mult * gaussian_transform(GAMMA, 1.0, xi), rtol=1e-9)

    def test_plancherel_bound(self, kernel, fb_plan96, grid96):
        f = grid96.sample(gauss)
        rf = riesz_spectral(kernel, f, fb_plan96)
        m = riesz_multiplier(kernel, fb_plan96.freq_grid)
        assert lp_norm(rf, 2.0) <= (np.max(np.abs(m)) + 1e-6) * lp_norm(f, 2.0)


@pytest.fixture(scope="module")
def interior_pairs(kernel, fb_plan96, grid96):
    """(spatial result, spectral value) at two interior points."""
    f = grid96.sample(gauss)
    interp = GridInterpolator(riesz_spectral(kernel, f, fb_plan96), width=8)
    plan = build_shift_plan(GAMMA, 48)
    rule = build_sphere_rule(GAMMA, 64)
    return [(riesz_spatial(kernel, f, np.array(x), plan=plan, rule=rule),
             float(interp(np.array(x)[None, :])[0]))
            for x in ([1.0, 1.0], [1.5, 0.7])]


class TestSpatialAgainstSpectral:
    def test_interior_points(self, interior_pairs):
        for res, spec in interior_pairs:
            assert res.converged
            assert abs(res.limit - spec) <= 1e-2 * max(abs(spec), 1e-3)

    def test_interior_points_interpolation_order(self, interior_pairs):
        # the gap is 4.7e-6 and 2.9e-6 relative here; reading T^x f with
        # 4-point in place of 8-point stencils moves it to 1.3e-5 and 5.1e-6,
        # under the 1e-2 above and under 1e-4, so the pin is 1e-5
        for res, spec in interior_pairs:
            assert abs(res.limit - spec) <= 1e-5 * abs(spec)

    def test_far_point_decays(self, kernel, grid96):
        f = grid96.sample(gauss)
        res = riesz_spatial(kernel, f, np.array([9.0, 9.0]))
        assert abs(res.limit) < 1e-3

    def test_clamping_is_silent(self, kernel, grid96):
        # T^x f reaches beyond x_max at this x; the localized tails clamp
        with warnings.catch_warnings():
            warnings.simplefilter("error", ShiftTruncationWarning)
            riesz_spatial(kernel, grid96.sample(gauss), np.array([7.0, 7.5]))

    def test_zero_input(self, kernel, grid96):
        z = grid96.sample(lambda p: np.zeros(p.shape[:-1]))
        res = riesz_spatial(kernel, z, np.array([1.0, 1.0]))
        assert res.limit == 0.0

    def test_eps_validation(self, kernel, grid96):
        f = grid96.sample(gauss)
        with pytest.raises(ValueError):
            riesz_spatial(kernel, f, np.array([1.0, 1.0]), eps_seq=(0.1, 0.4))
        with pytest.raises(ValueError, match="strictly decrease"):
            riesz_spatial(kernel, f, np.array([1.0, 1.0]), eps_seq=(0.4, 0.1, 0.1))

    @pytest.mark.parametrize("arg", ["plan", "rule", "f"])
    def test_gamma_mismatch(self, kernel, arg):
        # one argument built for another gamma than the kernel's
        g = {name: (0.5, 1.0) if name == arg else GAMMA for name in ("plan", "rule", "f")}
        f = build_tensor_grid(g["f"], 8.0, 16).sample(gauss)
        with pytest.raises(ValueError, match="kernel, plan, rule and grid gamma"):
            riesz_spatial(kernel, f, np.array([1.0, 1.0]), plan=build_shift_plan(g["plan"], 8),
                          rule=build_sphere_rule(g["rule"], 8))

class TestOperatorSubstitution:
    def test_single_axis_square_against_sympy(self, fb_plan96, grid96):
        # P = x1^2 -> B_1^2, checked against the symbolically iterated operator
        x1, x2 = sympy.symbols("x1 x2", positive=True)
        u = sympy.exp(-(x1**2) - x2**2)
        g1 = GAMMA[0]
        b1 = lambda expr: sympy.diff(expr, x1, 2) + 2 * g1 / x1 * sympy.diff(expr, x1)
        ref_expr = sympy.simplify(b1(b1(u)))
        ref = sympy.lambdify((x1, x2), ref_expr, "numpy")
        p = EvenPoly.from_terms(2, {(2, 0): 1.0})
        f = grid96.sample(gauss)
        got = apply_bessel_poly_spectral(p, f, fb_plan96)
        pts = grid96.points()
        expected = ref(pts[..., 0], pts[..., 1])
        assert np.max(np.abs(got.values - expected)) < 1e-7 * np.max(np.abs(expected))

    def test_sum_gives_laplace_bessel(self, fb_plan96, grid96):
        p = EvenPoly.from_terms(2, {(1, 0): 1.0, (0, 1): 1.0})
        f = grid96.sample(gauss)
        got = apply_bessel_poly_spectral(p, f, fb_plan96)
        ref = grid96.sample(
            lambda q: (4.0 * np.sum(q * q, axis=-1) - 12.0) * gauss(q)
        )
        assert np.max(np.abs(got.values - ref.values)) < 1e-7 * np.max(np.abs(ref.values))

    def test_zero_function(self, fb_plan96, grid96):
        p = EvenPoly.from_terms(2, {(2, 0): 1.0})
        z = grid96.sample(lambda q: np.zeros(q.shape[:-1]))
        assert np.all(apply_bessel_poly_spectral(p, z, fb_plan96).values == 0.0)


@pytest.fixture(scope="module")
def family(grid96):
    out = []
    for s in (0.5, 1.0, 2.0):
        f = grid96.sample(lambda p: np.exp(-s * np.sum(p * p, axis=-1)))
        bf = grid96.sample(
            lambda p: (4 * s * s * np.sum(p * p, axis=-1) - 2 * s * 6.0)
            * np.exp(-s * np.sum(p * p, axis=-1))
        )
        out.append((f"s{s}", f, bf))
    return out


def test_mixed_derivative_multiplier_composition():
    # -R_i R_k B has multiplier -(xi_i xi_k / |xi|^2)(-|xi|^2) = xi_i xi_k:
    # the probe's spectral realization of the mixed derivative, checked
    # symbolically
    x1, x2 = sympy.symbols("xi1 xi2", positive=True)
    r2 = x1**2 + x2**2
    composed = -(x1 * x2 / r2) * (-r2)
    assert sympy.simplify(composed - x1 * x2) == 0


class TestProbes:

    def test_apriori_ratios_dilation_stable(self, fb_plan96, family):
        rows = priori_bound_probe(fb_plan96, 2.0, family)
        for check in ("apriori-mixed-derivative", "apriori-elliptic"):
            ratios = [r["ratio"] for r in rows if r["check"] == check]
            assert all(np.isfinite(ratios))
            assert (max(ratios) - min(ratios)) / max(ratios) < 0.1

    def test_lp_ratios(self, kernel, fb_plan96, family):
        rows = lp_boundedness_probe(
            kernel, (2.0, 4.0), [(l, f) for l, f, _ in family], fb_plan96
        )
        p2 = [r for r in rows if r["p"] == 2.0]
        for r in p2:
            assert r["ratio"] <= r["max_multiplier"] + 1e-6
        for p in (2.0, 4.0):
            ratios = [r["ratio"] for r in rows if r["p"] == p]
            assert (max(ratios) - min(ratios)) / max(ratios) < 0.05
