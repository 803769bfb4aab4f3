import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bhk.grids import GridInterpolator, build_tensor_grid, contract_rows, integrate
from bhk.shift import (
    ShiftTruncationWarning,
    _shift_rows,
    b_convolve,
    build_shift_plan,
    shift,
    shift_grid,
)
from bhk.special import normalized_j

from conftest import GAMMA, gauss


def one(p):
    return np.ones(p.shape[:-1])


class TestPlan:
    def test_weights_normalized(self, shift_plan):
        for w in shift_plan.weights:
            assert_allclose(np.sum(w), 1.0, rtol=1e-13)

    def test_c_gamma_against_raw_rule_sums(self, shift_plan):
        # c_gamma times the raw sin^{2g-1} weight sums is the plan invariant
        from bhk.grids import jacobi_angle_rule

        total = shift_plan.c_gamma
        for g in GAMMA:
            total *= np.sum(jacobi_angle_rule(g, 48)[1])
        assert_allclose(total, 1.0, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_shift_plan(GAMMA, 2)


class TestShift:
    def test_identity_at_zero_exact(self, shift_plan):
        x = np.array([1.3, 0.8])
        assert shift(shift_plan, gauss, x, [0.0, 0.0]) == float(gauss(x[None, :])[0])

    def test_constant_one(self, shift_plan):
        assert_allclose(
            shift(shift_plan, one, [1.0, 2.0], [0.5, 1.5]), 1.0, atol=1e-13
        )

    @given(st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.1, max_value=3.0),
           st.floats(min_value=0.1, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_normalization_random(self, x1, x2, y1, y2):
        plan = build_shift_plan(GAMMA, 24)
        assert abs(shift(plan, one, [x1, x2], [y1, y2], adaptive=False) - 1.0) < 1e-12

    def test_square_closed_form(self):
        # 1-D: the cross term integrates to zero, so T^y(x^2) = x^2 + y^2
        rng = np.random.default_rng(5)
        for g in (0.5, 1.2):
            plan = build_shift_plan((g,), 48)
            for _ in range(25):
                x, y = rng.uniform(0.1, 3.0, 2)
                got = shift(plan, lambda p: p[..., 0] ** 2, [x], [y])
                assert_allclose(got, x * x + y * y, rtol=1e-10)

    def test_symmetry(self, shift_plan):
        x, y = np.array([1.0, 0.5]), np.array([0.3, 0.8])
        assert_allclose(
            shift(shift_plan, gauss, x, y),
            shift(shift_plan, gauss, y, x),
            rtol=1e-10,
        )

    def test_kernel_product_formula(self, shift_plan):
        t = np.array([0.9, 1.7])

        def kern(p):
            return (normalized_j(GAMMA[0] - 0.5, p[..., 0] * t[0])
                    * normalized_j(GAMMA[1] - 0.5, p[..., 1] * t[1]))

        x, y = np.array([1.1, 0.6]), np.array([0.4, 1.2])
        lhs = shift(shift_plan, kern, x, y)
        rhs = float(kern(x[None, :])[0]) * float(kern(y[None, :])[0])
        assert_allclose(lhs, rhs, atol=1e-8)

    def test_dimension_mismatch(self, shift_plan):
        with pytest.raises(ValueError):
            shift(shift_plan, gauss, [1.0], [1.0, 2.0])


class TestShiftGrid:
    def test_zero_shift_unchanged(self, shift_plan):
        grid = build_tensor_grid(GAMMA, 8.0, 32)
        f = grid.sample(gauss)
        out = shift_grid(shift_plan, f, [0.0, 0.0])
        assert np.array_equal(out.values, f.values)

    def test_square_closed_form_interior(self):
        plan = build_shift_plan((0.5,), 48)
        grid = build_tensor_grid((0.5,), 8.0, 96)
        f = grid.sample(lambda p: p[..., 0] ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftTruncationWarning)
            out = shift_grid(plan, f, [1.5])
        x = grid.nodes[0]
        inner = x <= 8.0 - 1.6  # nodes whose stencils never hit the clamp
        assert_allclose(out.values[inner], x[inner] ** 2 + 2.25, rtol=1e-10)

    def test_integral_preservation(self, shift_plan, grid96):
        f = grid96.sample(gauss)
        for y in ([0.9, 1.4], [1.7, 2.3]):
            out = shift_grid(shift_plan, f, y)
            assert_allclose(integrate(out), integrate(f), rtol=1e-8)

    def test_truncation_warning(self, shift_plan):
        grid = build_tensor_grid(GAMMA, 8.0, 48)
        f = grid.sample(gauss)
        with pytest.warns(ShiftTruncationWarning):
            shift_grid(shift_plan, f, [6.0, 6.0])

    def test_gamma_mismatch(self, shift_plan):
        grid = build_tensor_grid((1.0, 1.0), 8.0, 16)
        with pytest.raises(ValueError):
            shift_grid(shift_plan, grid.sample(gauss), [1.0, 1.0])


@pytest.fixture(scope="module")
def small():
    grid = build_tensor_grid(GAMMA, 5.0, 20)
    return build_shift_plan(GAMMA, 20), grid


class TestBConvolve:

    def test_constant_phi_gives_total_mass(self, small):
        plan, grid = small
        f = grid.sample(gauss)
        out = b_convolve(plan, f, one)
        assert_allclose(out.values, integrate(f), rtol=1e-12)

    def test_commutativity_at_nodes(self, small):
        plan, grid = small
        phi = lambda p: np.exp(-1.5 * np.sum(p * p, axis=-1))
        ab = b_convolve(plan, grid.sample(gauss), phi)
        ba = b_convolve(plan, grid.sample(phi), gauss)
        idx = np.unravel_index(np.linspace(0, ab.values.size - 1, 10).astype(int),
                               ab.values.shape)
        assert_allclose(ab.values[idx], ba.values[idx], atol=1e-6)

    def test_delta_approximation(self, small):
        plan, grid = small
        sharp = lambda p: np.exp(-40.0 * np.sum((p - 0.6) ** 2, axis=-1))
        mass = integrate(grid.sample(sharp))
        f = grid.sample(lambda p: sharp(p) / mass)
        # phi narrow enough that its translates keep their mass inside x_max
        phi = lambda p: np.exp(-1.5 * np.sum(p * p, axis=-1))
        out = b_convolve(plan, f, phi)
        # smoothing preserves total mass: int (f * phi) = int f . int phi
        assert_allclose(integrate(out), integrate(grid.sample(phi)), rtol=1e-6)


def _route_cases():
    # (points, angles) per axis at each n; dyadic and seeded non-dyadic gamma
    for n, (points, angles) in {1: (64, 48), 2: (48, 32), 3: (32, 16)}.items():
        seeded = tuple(np.random.default_rng(n).uniform(0.05, 5.0, n))
        for label, g in (("dyadic", (0.5, 1.5, 1.0)[:n]), ("seeded", seeded)):
            yield pytest.param(g, points, angles, id=f"n{n}-{label}")


@pytest.mark.parametrize("g, points, angles", list(_route_cases()))
class TestSampledAgainstCallable:
    """The sampled route on grid samples against the callable route on gauss.

    x_max = 4 keeps the grids fine enough that interpolation error stays far
    below the gate; only points whose law-of-cosines arguments stay within
    x_max (none clamped) are compared.
    """

    def test_shift_grid(self, g, points, angles):
        n = len(g)
        plan, grid = build_shift_plan(g, angles), build_tensor_grid(g, 4.0, points)
        rng = np.random.default_rng(10 + n)
        y = rng.uniform(0.3, 1.5, n)
        out = shift_grid(plan, grid.sample(gauss), y).values.reshape(-1)
        mesh = grid.points().reshape(-1, n)
        inside = np.flatnonzero(np.all(mesh + y <= grid.x_max, axis=-1))
        for k in rng.choice(inside, 40, replace=False):
            assert abs(out[k] - shift(plan, gauss, mesh[k], y, adaptive=False)) < 1e-7

    def test_pointwise_rows(self, g, points, angles):
        # the contraction riesz_spatial uses: one x, a batch of translations
        n = len(g)
        plan, grid = build_shift_plan(g, angles), build_tensor_grid(g, 4.0, points)
        interp = GridInterpolator(grid.sample(gauss), width=8)
        rng = np.random.default_rng(20 + n)
        x = rng.uniform(0.3, 1.5, n)
        ys = rng.uniform(0.1, 2.0, (30, n))
        got = contract_rows([_shift_rows(interp, plan, i, x[i], ys[:, i])
                             for i in range(n)], interp.ext_values)
        ref = [shift(plan, gauss, x, y, adaptive=False) for y in ys]
        assert np.max(np.abs(got - ref)) < 1e-7
