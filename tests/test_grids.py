import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bhk.grids import (
    GammaIndex,
    GridFunction,
    GridInterpolator,
    build_sphere_rule,
    build_tensor_grid,
    contract_axes,
    contract_rows,
    hemisphere_measure,
    integrate,
    jacobi_angle_rule,
    lp_norm,
)

from conftest import GAMMA, gauss


class TestGammaIndex:
    def test_basic(self):
        g = GammaIndex((0.5, 1.5))
        assert g.n == 2
        assert g.abs == 2.0
        assert list(g) == [0.5, 1.5]

    @pytest.mark.parametrize("bad", [(), (0.0,), (-1.0, 0.5), (float("nan"),)])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            GammaIndex(bad)


class TestTensorGrid:
    def test_measure_examples(self):
        assert_allclose(build_tensor_grid((0.5,), 1.0, 32).measure(), 0.5, rtol=1e-13)
        assert_allclose(
            build_tensor_grid((0.5, 1.5), 1.0, 32).measure(), 0.125, rtol=1e-13
        )
        assert_allclose(
            build_tensor_grid((1.0,), 2.0, 32).measure(), 8.0 / 3.0, rtol=1e-13
        )

    def test_measure_fractional_gamma(self):
        # x^{2g} absorbed into the rule: exact for non-integer 2g too
        g = 0.31
        grid = build_tensor_grid((g,), 2.0, 16)
        assert_allclose(grid.measure(), 2.0 ** (2 * g + 1) / (2 * g + 1), rtol=1e-13)

    def test_nodes_positive_increasing(self):
        grid = build_tensor_grid(GAMMA, 8.0, 24)
        for x in grid.nodes:
            assert np.all(x > 0)
            assert np.all(np.diff(x) > 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_tensor_grid(GAMMA, -1.0, 32)
        with pytest.raises(ValueError):
            build_tensor_grid(GAMMA, 1.0, 4)


class TestIntegrate:
    def test_constant(self):
        grid = build_tensor_grid((0.5,), 1.0, 32)
        f = grid.sample(lambda p: np.ones(p.shape[:-1]))
        assert_allclose(integrate(f), 0.5, rtol=1e-13)

    def test_gaussian_halfline(self):
        grid = build_tensor_grid((0.5,), 8.0, 64)
        f = grid.sample(lambda p: np.exp(-p[..., 0] ** 2))
        assert_allclose(integrate(f), 0.5, rtol=1e-13)  # int_0^inf x e^{-x^2}

    def test_polynomial(self):
        grid = build_tensor_grid((1.0,), 1.0, 32)
        f = grid.sample(lambda p: p[..., 0] ** 2)
        assert_allclose(integrate(f), 0.2, rtol=1e-13)  # int_0^1 x^4

    def test_linearity(self):
        grid = build_tensor_grid(GAMMA, 4.0, 24)
        f = grid.sample(gauss)
        g = grid.sample(lambda p: p[..., 0] ** 2)
        combo = GridFunction(grid, 2.5 * f.values - 1.25 * g.values)
        assert_allclose(
            integrate(combo),
            2.5 * integrate(f) - 1.25 * integrate(g),
            rtol=1e-13,
        )

    def test_refinement_convergence(self):
        vals = []
        for pts in (64, 128):
            grid = build_tensor_grid(GAMMA, 8.0, pts)
            vals.append(integrate(grid.sample(gauss)))
        assert abs(vals[1] - vals[0]) < 1e-12


class TestLpNorm:
    def test_examples(self):
        grid = build_tensor_grid((0.5,), 1.0, 32)
        one = grid.sample(lambda p: np.ones(p.shape[:-1]))
        assert_allclose(lp_norm(one, 2.0), math.sqrt(0.5), rtol=1e-13)
        zero = grid.sample(lambda p: np.zeros(p.shape[:-1]))
        assert lp_norm(zero, 3.0) == 0.0
        lin = grid.sample(lambda p: p[..., 0])
        assert_allclose(lp_norm(lin, 1.0), 1.0 / 3.0, rtol=1e-13)

    def test_p_below_one_rejected(self):
        grid = build_tensor_grid((0.5,), 1.0, 32)
        with pytest.raises(ValueError):
            lp_norm(grid.sample(gauss), 0.5)


class TestJacobiAngleRule:
    def test_weight_sums(self):
        _, w = jacobi_angle_rule(0.5, 16)
        assert_allclose(np.sum(w), math.pi, rtol=1e-13)
        _, w = jacobi_angle_rule(1.0, 16)
        assert_allclose(np.sum(w), 2.0, rtol=1e-13)
        for g in (0.3, 0.5, 1.0, 2.7):
            _, w = jacobi_angle_rule(g, 24)
            ref = math.sqrt(math.pi) * math.gamma(g) / math.gamma(g + 0.5)
            assert_allclose(np.sum(w), ref, rtol=1e-12)

    def test_odd_moment_vanishes(self):
        a, w = jacobi_angle_rule(1.5, 16)
        assert abs(np.dot(w, np.cos(a))) < 1e-14

    def test_symmetry_about_half_pi(self):
        a, w = jacobi_angle_rule(0.75, 20)
        assert_allclose(w, w[::-1], rtol=1e-12)
        assert_allclose(a + a[::-1], math.pi, rtol=1e-12)

    def test_polynomial_exactness(self):
        # degree 2m-1 in cos(alpha) against sin^{2g-1}
        g, m = 1.25, 8
        a, w = jacobi_angle_rule(g, m)
        from scipy.integrate import quad

        for deg in (2, 5, 2 * m - 1):
            got = float(np.dot(w, np.cos(a) ** deg))
            ref, _ = quad(
                lambda t: math.cos(t) ** deg * math.sin(t) ** (2 * g - 1), 0, math.pi
            )
            assert_allclose(got, ref, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            jacobi_angle_rule(-1.0, 16)
        with pytest.raises(ValueError):
            jacobi_angle_rule(1.0, 2)


class TestSphereRule:
    def test_total_weights(self):
        assert_allclose(build_sphere_rule((0.5, 0.5), 48).weights.sum(), 0.5,
                        rtol=1e-12)
        assert_allclose(build_sphere_rule((0.5, 1.5), 48).weights.sum(), 0.25,
                        rtol=1e-12)
        assert_allclose(build_sphere_rule((1.0, 1.0), 48).weights.sum(),
                        math.pi / 16.0, rtol=1e-12)

    def test_matches_closed_form_measure(self):
        for gam in ((0.7, 2.2), (0.5, 1.0, 1.5), (0.31, 0.44)):
            rule = build_sphere_rule(gam, 24)
            assert_allclose(rule.weights.sum(), hemisphere_measure(gam), rtol=1e-12)

    def test_nodes_on_hemisphere(self):
        rule = build_sphere_rule((0.5, 1.0, 1.5), 12)
        assert np.all(rule.nodes >= 0)
        assert_allclose(np.sum(rule.nodes**2, axis=1), 1.0, rtol=1e-12)

    def test_n1_degenerate(self):
        rule = build_sphere_rule((0.8,), 16)
        assert rule.nodes.shape == (1, 1)
        assert rule.nodes[0, 0] == 1.0
        assert rule.weights[0] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            build_sphere_rule((0.5, 1.5), 2)


class TestContractions:
    """The shared separable contractions against a dense einsum oracle."""

    @pytest.mark.parametrize("shape", [(7,), (5, 6), (4, 5, 3)])
    def test_contract_axes(self, shape):
        rng = np.random.default_rng(len(shape))
        values = rng.standard_normal(shape)
        mats = [rng.standard_normal((m + 2, m)) for m in shape]
        axes, out = "abc"[: len(shape)], "xyz"[: len(shape)]
        spec = ",".join(o + a for o, a in zip(out, axes)) + f",{axes}->{out}"
        ref = np.einsum(spec, *mats, values)
        got = contract_axes(mats, values)
        assert got.shape == tuple(m + 2 for m in shape)
        assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    @pytest.mark.parametrize("shape", [(7,), (5, 6), (4, 5, 3)])
    def test_contract_rows(self, shape):
        rng = np.random.default_rng(10 + len(shape))
        values = rng.standard_normal(shape)
        rows = [rng.standard_normal((9, m)) for m in shape]
        # dense oracle: the full per-point tensor prod_i rows[i][p, a_i]
        dense = rows[0]
        for r in rows[1:]:
            dense = dense[..., None] * r.reshape((9,) + (1,) * (dense.ndim - 1) + (-1,))
        ref = np.einsum("pk,k->p", dense.reshape(9, -1), values.reshape(-1))
        got = contract_rows(rows, values)
        assert got.shape == (9,)
        assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))


class TestCsv:
    def test_format(self, tmp_path):
        grid = build_tensor_grid(GAMMA, 2.0, 8)
        f = grid.sample(gauss)
        path = tmp_path / "f.csv"
        f.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x_1,x_2,value"
        assert len(lines) == 1 + 64
        x1, x2, v = (float(t) for t in lines[1].split(","))
        assert_allclose([x1, x2], [grid.nodes[0][0], grid.nodes[1][0]], rtol=1e-16)
        assert_allclose(v, f.values[0, 0], rtol=1e-16)
        # row-major: second row advances the last axis
        x1b, x2b, _ = (float(t) for t in lines[2].split(","))
        assert x1b == x1 and x2b == grid.nodes[1][1]


class TestGridInterpolator:
    def test_reproduces_nodes(self):
        for gam in (GAMMA, (0.5, 1.0, 1.5)):
            grid = build_tensor_grid(gam, 4.0, 24)
            f = grid.sample(gauss)
            interp = GridInterpolator(f)
            pts = grid.points().reshape(-1, len(gam))[::17]
            assert_allclose(interp(pts), gauss(pts), atol=1e-12)

    def test_weighted_axis_matrix(self):
        # rows are angle-weighted sums of single-point stencil rows, built
        # here densely as the oracle; normalized weights give T^y 1 = 1
        grid = build_tensor_grid(GAMMA, 4.0, 16)
        interp = GridInterpolator(grid.sample(gauss), width=6)
        alpha, w = jacobi_angle_rule(GAMMA[1], 8)
        w = w / np.sum(w)
        x, y = np.random.default_rng(3).uniform(0.1, 2.0, (2, 5, 1))
        z = np.sqrt(x * x + y * y - 2.0 * x * y * np.cos(alpha))  # (5, 8)
        got = interp.dense_axis_matrix(1, z, w)
        idx, lw = interp.axis_stencil(1, z)
        single = np.zeros(z.shape + (len(interp.ext_nodes[1]),))
        np.put_along_axis(single, idx, lw, axis=-1)
        assert_allclose(got, np.tensordot(w, single, axes=([0], [1])), rtol=0,
                        atol=1e-15)
        assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-13)

    def test_offgrid_accuracy_scales_with_width(self):
        grid = build_tensor_grid(GAMMA, 4.0, 48)
        f = grid.sample(gauss)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.05, 3.5, (200, 2))
        err4 = np.max(np.abs(GridInterpolator(f, width=4)(pts) - gauss(pts)))
        err8 = np.max(np.abs(GridInterpolator(f, width=8)(pts) - gauss(pts)))
        assert err8 < err4 / 50
        assert err8 < 1e-7

    def test_even_reflection_near_axis(self):
        grid = build_tensor_grid(GAMMA, 4.0, 48)
        f = grid.sample(gauss)
        interp = GridInterpolator(f, width=8)
        pts = np.array([[1e-4, 0.7], [0.0, 1.1], [0.3, 1e-5]])
        assert_allclose(interp(pts), gauss(pts), atol=1e-10)

    def test_clip_counting(self):
        grid = build_tensor_grid(GAMMA, 4.0, 24)
        interp = GridInterpolator(grid.sample(gauss))
        interp(np.array([[5.0, 1.0], [1.0, 1.0]]))
        assert interp.clipped == 1
        assert interp.clip_fraction == 0.25  # one of four axis queries
