import functools
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bhk import special
from bhk.grids import TensorGrid, build_tensor_grid, contract_axes, integrate
from bhk.shift import (
    SHIFT_GRID_STENCIL,
    ShiftTruncationWarning,
    _axis_shift,
    _law_of_cosines,
    b_convolve,
    build_shift_plan,
    shift,
    shift_grid,
)
from bhk.special import normalized_j

from conftest import GAMMA, exact_power_shift, gauss


def one(p):
    return np.ones(p.shape[:-1])


def _factors(n):
    # a different factor per axis, so a value taken on the wrong axis shows
    return [lambda z, a=a: (1.0 + a * z * z) * np.exp(-a * z * z)
            for a in (1.5, 0.7, 1.1)[:n]]


class TestPlan:
    def test_weights_normalized(self, shift_plan):
        for w in shift_plan.weights:
            assert_allclose(np.sum(w), 1.0, rtol=1e-13)

    def test_c_gamma_against_raw_rule_sums(self, shift_plan):
        # c_gamma = prod Gamma(g+1/2)/(Gamma(1/2) Gamma(g)) times the raw
        # sin^{2g-1} weight sums (Gauss-Jacobi in cos(alpha)) is the plan
        # invariant; the plan holds angle_rule's rules, which carry c_gamma
        from bhk.special import angle_rule, gauss_jacobi

        total = 1.0
        for g, c, w in zip(GAMMA, shift_plan.cos_nodes, shift_plan.weights):
            c_ref, w_ref = angle_rule(g, 48)
            assert np.array_equal(c, c_ref) and np.array_equal(w, w_ref)
            total *= math.gamma(g + 0.5) / (math.sqrt(math.pi) * math.gamma(g))
            total *= np.sum(gauss_jacobi(48, g - 1.0, g - 1.0)[1])
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
    @settings(max_examples=25)
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


class TestShiftFactors:
    """shift with n 1-D callables (per-axis route) against the n-D product."""

    @pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
    @pytest.mark.parametrize("g, angles", [
        ((0.7,), 48),
        (GAMMA, 48),
        ((0.3, 2.2, 4.1), 16),
        (tuple(np.random.default_rng(34).uniform(0.05, 5.0, 3)), 16),
    ], ids=["n1", "n2", "n3-dyadic", "n3-seeded"])
    def test_against_nd_product(self, g, angles, adaptive):
        n = len(g)
        plan = build_shift_plan(g, angles)
        factors = _factors(n)
        phi = lambda p: np.prod([h(p[..., i]) for i, h in enumerate(factors)], axis=0)
        rng = np.random.default_rng(40 + n)
        for x, y in rng.uniform(0.1, 1.5, (4, 2, n)):
            want = shift(plan, phi, x, y, adaptive=adaptive)
            got = shift(plan, factors, x, y, adaptive=adaptive)
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_identity_at_zero_exact(self, shift_plan):
        factors = _factors(2)
        x = np.array([1.3, 0.8])
        want = float(factors[0](x[:1])[0]) * float(factors[1](x[1:])[0])
        assert shift(shift_plan, factors, x, [0.0, 0.0]) == want

    @pytest.mark.parametrize("phi", [[np.exp], [np.exp, np.exp, np.exp], [np.exp, 1.0]],
                             ids=["short", "long", "non-callable"])
    @pytest.mark.parametrize("y", [[0.0, 0.0], [0.3, 0.9]], ids=["y0", "y"])
    def test_factors_validated(self, shift_plan, phi, y):
        with pytest.raises(ValueError):
            shift(shift_plan, phi, [1.0, 0.5], y)


class TestAxisShift:
    """_axis_shift evaluates its batch in chunks of special.SHIFT_BUDGET points."""

    @pytest.fixture(scope="class")
    def batch(self):
        # (72, 4096) translations of one x at 48 angles: the n = 3 riesz suite's
        # per-axis batch at default resolution, far above SHIFT_BUDGET // 48
        plan = build_shift_plan((0.7,), 48)
        y = np.random.default_rng(50).uniform(0.0, 3.0, (72, 4096))
        return np.array(1.3), y, plan.cos_nodes[0], plan.weights[0]

    def test_chunked_equals_unchunked(self, batch):
        x, y, c, w = batch
        phi = lambda z: (1.0 + z * z) * np.exp(-z * z)
        assert y.size > special.SHIFT_BUDGET // len(c)
        got = _axis_shift(phi, x, y, c, w)
        want = phi(_law_of_cosines(x, y[..., None], c)) @ w
        assert got.shape == y.shape
        assert_allclose(got, want, rtol=1e-15, atol=0)

    def test_transient_memory(self, batch):
        # traced 4.3 MiB (the 2.3 MiB result included); one unchunked batch
        # traced 432 MiB
        tracemalloc.start()
        try:
            _axis_shift(lambda z: np.exp(-z * z), *batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestShiftValuesChunks:
    """shift on one callable samples its angle tensor in chunks of whole
    first-axis slices, at most special.SHIFT_BUDGET points each when a slice
    fits."""

    def test_chunked_equals_one_chunk(self, monkeypatch):
        plan = build_shift_plan((0.5, 1.0, 1.5), 12)
        x, y = [0.9, 0.4, 1.2], [0.6, 1.1, 0.3]
        calls = []

        def phi(p):
            calls.append(p.shape[0])
            return gauss(p)

        one_chunk = shift(plan, phi, x, y, adaptive=False)
        # 12 * 12 points per slice: chunks of 5, 5 and 2 slices
        monkeypatch.setattr(special, "SHIFT_BUDGET", 5 * 12 * 12 + 7)
        got = shift(plan, phi, x, y, adaptive=False)
        assert calls == [12, 5, 5, 2]
        assert got == one_chunk

    def test_n4_adaptive_transient_memory(self):
        # one adaptive T^y of a Gaussian at n = 4, 16 angles doubled to 32:
        # 13.0 MiB traced, the 8 MiB tensor of 32^4 values included; the
        # whole 32^4-point array at once traced 72 MiB
        plan = build_shift_plan((0.5, 1.0, 1.5, 0.75), 16)
        tracemalloc.start()
        try:
            shift(plan, gauss, [0.9, 0.4, 1.2, 0.7], [0.6, 1.1, 0.3, 0.8])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestExactPowerOracle:
    """Both T^y routes against exact_power_shift at a 1e-12 relative gate."""

    def test_square_is_the_m1_case(self):
        assert exact_power_shift(0.7, 1, 1.25, 0.5) == Fraction(1.25) ** 2 + Fraction(0.5) ** 2

    @pytest.mark.parametrize("g", [0.05, 0.5, 1.5, 5.0])
    def test_shift(self, g):
        plan = build_shift_plan((g,), 48)
        rng = np.random.default_rng(31)
        for m in range(6):
            for x, y in rng.uniform(0.1, 3.0, (8, 2)):
                got = shift(plan, lambda p: p[..., 0] ** (2 * m), [x], [y])
                ref = float(exact_power_shift(g, m, x, y))
                assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("g", [(0.05, 5.0), (5.0, 5.0), (0.5, 1.5)])
    def test_shift_grid(self, g):
        # per-axis degree <= 8: the width-10 stencil reproduces it exactly, so
        # every node whose arguments stay within x_max (no clamp) is compared
        plan, grid = build_shift_plan(g, 48), build_tensor_grid(g, 8.0, 96)
        y = (1.1, 0.7)
        inside = [x + yi <= grid.x_max for x, yi in zip(grid.nodes, y)]
        for m in itertools.product(range(5), repeat=2):
            f = grid.sample(lambda p: p[..., 0] ** (2 * m[0]) * p[..., 1] ** (2 * m[1]))
            got = shift_grid(plan, f, y).values[np.ix_(*inside)]
            # T^y factorizes per axis; each factor is the exact value rounded once
            ref = functools.reduce(np.multiply.outer, [
                np.array([float(exact_power_shift(gi, mi, x, yi)) for x in xs[ok]])
                for gi, mi, xs, yi, ok in zip(g, m, grid.nodes, y, inside)])
            assert np.all(np.abs(got - ref) <= 1e-12 * ref)


class TestShiftGrid:
    @pytest.mark.parametrize("g", [(0.05, 5.0), (5.0, 5.0)])
    def test_node_rows_against_reflected_samples(self, g):
        # oracle: per axis, product-formula Lagrange rows on the evenly
        # reflected axis (width - 1 mirrored nodes, then the nodes), applied
        # to the samples reflected the same way
        plan, grid = build_shift_plan(g, 48), build_tensor_grid(g, 8.0, 96)
        f = grid.sample(gauss)
        y = (1.1, 0.7)
        width = SHIFT_GRID_STENCIL
        mats, ext = [], f.values
        for ax, (x, yi, c, w) in enumerate(zip(grid.nodes, y, plan.cos_nodes,
                                               plan.weights)):
            xs = np.concatenate([-x[width - 2 :: -1], x])
            z = np.clip(_law_of_cosines(x[:, None], yi, c), 0.0, grid.x_max)
            s = np.clip(np.searchsorted(xs, z) - width // 2, 0, len(xs) - width)
            pos = s[..., None] + np.arange(width)
            xn, lag = xs[pos], np.ones(pos.shape)
            for a in range(width):
                for b in range(width):
                    if a != b:
                        lag[..., a] *= (z - xn[..., b]) / (xn[..., a] - xn[..., b])
            mat = np.zeros((len(x), len(xs)))
            np.add.at(mat, (np.arange(len(x))[:, None, None], pos), lag * w[:, None])
            mats.append(mat)
            mirrored = np.flip(np.take(ext, np.arange(width - 1), axis=ax), axis=ax)
            ext = np.concatenate([mirrored, ext], axis=ax)
        want = contract_axes(mats, ext)
        got = shift_grid(plan, f, y).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

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

    def test_truncation_warning_is_per_call(self, shift_plan):
        # the grid holds the stencil tables, not the clamp counts: a call
        # that clamps nothing after one that clamps 7% does not warn
        grid = build_tensor_grid(GAMMA, 8.0, 48)
        f = grid.sample(gauss)
        small = [1e-3, 1e-3]
        assert all(x[-1] + 1e-3 < grid.x_max for x in grid.nodes)  # no clamp
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            shift_grid(shift_plan, f, [6.0, 6.0])
            shift_grid(shift_plan, f, small)
        assert [w.category for w in seen] == [ShiftTruncationWarning]

    @pytest.mark.parametrize("g, points, angles", [
        ((0.05, 5.0), 48, 48), ((5.0, 0.7, 0.05), 24, 16)], ids=["n2", "n3"])
    def test_successive_calls_against_fresh_tables(self, g, points, angles):
        # every call on one grid reads the tables its first call built; each
        # result is bitwise that of a call on a copy of the grid whose
        # tables are computed afresh
        plan, grid = build_shift_plan(g, angles), build_tensor_grid(g, 8.0, points)
        f = grid.sample(lambda p: gauss(p) * (1.0 + p[..., 0]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftTruncationWarning)
            for y in ([1.1, 0.7, 0.3][: len(g)], [2.9, 0.2, 1.6][: len(g)]):
                got = shift_grid(plan, f, y).values
                fresh = TensorGrid(grid.gamma, grid.x_max, grid.nodes, grid.weights)
                want = shift_grid(plan, fresh.sample(lambda p: f.values), y).values
                assert np.array_equal(got, want)
        assert list(grid._tables) == [SHIFT_GRID_STENCIL]

    def test_gamma_mismatch(self, shift_plan):
        grid = build_tensor_grid((1.0, 1.0), 8.0, 16)
        with pytest.raises(ValueError):
            shift_grid(shift_plan, grid.sample(gauss), [1.0, 1.0])


@pytest.fixture(scope="module")
def small():
    grid = build_tensor_grid(GAMMA, 5.0, 20)
    return build_shift_plan(GAMMA, 20), grid


def _all_pairs_convolution(plan, f, factors):
    # direct oracle: the n-D product kernel shifted on every ordered (x, y)
    # pair, one grid node x at a time against the batch of all nodes y, on
    # the (batch, A_1, ..., A_n, n) law-of-cosines tensor built here
    grid, n = f.grid, f.grid.n
    phi = lambda p: np.prod([h(p[..., i]) for i, h in enumerate(factors)], axis=0)
    pts = grid.points().reshape(-1, n)
    w_f = (functools.reduce(np.multiply.outer, grid.weights) * f.values).reshape(-1)
    ys = pts.reshape((-1,) + (1,) * n + (n,))
    cos = [c.reshape((-1,) + (1,) * (n - 1 - i)) for i, c in enumerate(plan.cos_nodes)]
    w = functools.reduce(np.multiply.outer, plan.weights)
    out = []
    for x in pts:
        z = np.stack(np.broadcast_arrays(*[
            np.sqrt(np.maximum(x[i] ** 2 + ys[..., i] ** 2 - 2.0 * x[i] * ys[..., i] * c, 0.0))
            for i, c in enumerate(cos)]), axis=-1)
        out.append(np.dot(w_f, np.tensordot(phi(z), w, axes=n)))
    return np.array(out).reshape(grid.shape)


class TestBConvolve:

    def test_constant_phi_gives_total_mass(self, small):
        plan, grid = small
        f = grid.sample(gauss)
        out = b_convolve(plan, f, [np.ones_like] * 2)
        assert_allclose(out.values, integrate(f), rtol=1e-12)

    def test_commutativity_at_nodes(self, small):
        plan, grid = small
        phi = lambda p: np.exp(-1.5 * np.sum(p * p, axis=-1))
        ab = b_convolve(plan, grid.sample(gauss), [lambda z: np.exp(-1.5 * z * z)] * 2)
        ba = b_convolve(plan, grid.sample(phi), [lambda z: np.exp(-z * z)] * 2)
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
        out = b_convolve(plan, f, [lambda z: np.exp(-1.5 * z * z)] * 2)
        # smoothing preserves total mass: int (f * phi) = int f . int phi
        assert_allclose(integrate(out), integrate(grid.sample(phi)), rtol=1e-6)

    @pytest.mark.parametrize("g, points, angles", [
        ((0.7,), 10, 16),
        (GAMMA, 8, 6),
        ((0.5, 1.0, 1.5), 8, 4),
    ], ids=["n1", "n2", "n3"])
    def test_against_all_ordered_pairs(self, g, points, angles):
        # the kernel (1 + x_1^2) exp(-sum_i s_i x_i^2), given as its factors
        grid = build_tensor_grid(g, 3.0, points)
        plan = build_shift_plan(g, angles)
        scale = (1.5, 0.7, 1.1)[: len(g)]
        factors = [lambda z, s=s, k=k: (1.0 + (k == 0) * z * z) * np.exp(-s * z * z)
                   for k, s in enumerate(scale)]
        f = grid.sample(gauss)
        assert_allclose(b_convolve(plan, f, factors).values,
                        _all_pairs_convolution(plan, f, factors), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("g, points, angles", [
        ((0.5,), 24, 16),
        ((0.5, 1.5), 10, 8),
        ((0.5, 1.5, 1.0), 8, 4),
        (tuple(np.random.default_rng(31).uniform(0.05, 5.0, 1)), 24, 16),
        (tuple(np.random.default_rng(32).uniform(0.05, 5.0, 2)), 10, 8),
        (tuple(np.random.default_rng(33).uniform(0.05, 5.0, 3)), 8, 4),
    ], ids=["n1-dyadic", "n2-dyadic", "n3-dyadic", "n1-seeded", "n2-seeded", "n3-seeded"])
    def test_separable_against_direct(self, g, points, angles):
        grid = build_tensor_grid(g, 3.0, points)
        plan = build_shift_plan(g, angles)
        factors = _factors(len(g))
        f = grid.sample(gauss)
        assert_allclose(b_convolve(plan, f, factors).values,
                        _all_pairs_convolution(plan, f, factors), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("g, points, angles", [
        ((0.05,), 96, 48),
        ((5.0, 0.05), 24, 16),
        ((0.05, 1.3, 5.0), 12, 7),
        (tuple(np.random.default_rng(34).uniform(0.05, 5.0, 3)), 10, 6),
    ], ids=["n1", "n2", "n3", "n3-seeded"])
    def test_pair_kernels_bitwise_dense(self, g, points, angles):
        # each per-axis kernel, shifted once per unordered pair and mirrored,
        # is bitwise the dense kernel of _axis_shift on all ordered pairs
        # (T^{x_b} phi_i(x_a) for x = x[:, None], y = x[None, :]), so the
        # convolution is bitwise contract_axes of the dense kernels; at n = 1
        # the 4656 pairs take several SHIFT_BUDGET chunks
        grid = build_tensor_grid(g, 3.0, points)
        plan = build_shift_plan(g, angles)
        factors = [lambda z, i=i: normalized_j(g[i] - 0.5, 1.3 * z) if i % 2 else
                   np.exp(-(0.7 + i) * z * z) for i in range(len(g))]
        dense = [_axis_shift(h, x[:, None], x[None, :], c, w)
                 for h, x, c, w in zip(factors, grid.nodes, plan.cos_nodes, plan.weights)]
        assert all(np.array_equal(k, k.T) for k in dense)
        f = grid.sample(gauss)
        want = contract_axes([k * wx for k, wx in zip(dense, grid.weights)], f.values)
        assert np.array_equal(b_convolve(plan, f, factors).values, want)

    @pytest.mark.parametrize("phi", [[gauss], [gauss, gauss, gauss], [gauss, 1.0], gauss],
                             ids=["short", "long", "non-callable", "one-callable"])
    def test_separable_factors_validated(self, small, phi):
        plan, grid = small
        with pytest.raises(ValueError):
            b_convolve(plan, grid.sample(gauss), phi)


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
        # symmetry T^y f(x) = T^x f(y): one x, a batch of grid nodes y, read
        # from T^x f on the grid
        n = len(g)
        plan, grid = build_shift_plan(g, angles), build_tensor_grid(g, 4.0, points)
        rng = np.random.default_rng(20 + n)
        x = rng.uniform(0.3, 1.5, n)
        idx = tuple(rng.choice(np.flatnonzero((nodes >= 0.1) & (nodes <= 2.0)), 30)
                    for nodes in grid.nodes)
        ys = np.stack([nodes[i] for nodes, i in zip(grid.nodes, idx)], axis=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShiftTruncationWarning)
            tx = shift_grid(plan, grid.sample(gauss), x)
        ref = [shift(plan, gauss, x, y, adaptive=False) for y in ys]
        assert np.max(np.abs(tx.values[idx] - ref)) < 1e-7
