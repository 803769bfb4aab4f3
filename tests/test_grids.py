import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bhk import special
from bhk.grids import (
    GammaIndex,
    GridFunction,
    GridInterpolator,
    TensorGrid,
    _sample_tensor,
    build_sphere_rule,
    build_tensor_grid,
    contract_axes,
    hemisphere_measure,
    integrate,
    lp_norm,
)
from bhk.meanvalue import (mean_value_check, pizzetti_coeffs, pizzetti_mean,
                           shifted_mean_value_check, sphere_mean, v_sequence)
from bhk.polys import b_harmonic_basis
from bhk.riesz import build_riesz_kernel, pv_kernel_transform, riesz_spatial
from bhk.shift import build_shift_plan
from bhk.special import angle_rule
from bhk.transform import gaussian_transform, pv_regularized_limit

from conftest import GAMMA, gauss, layout_callables, planar


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


def _measure(grid):
    """mu_gamma((0, x_max]^n), the integral of 1: the product of the per-axis
    weight sums."""
    return math.prod(float(np.sum(w)) for w in grid.weights)


class TestTensorGrid:
    def test_measure_examples(self):
        assert_allclose(_measure(build_tensor_grid((0.5,), 1.0, 32)), 0.5, rtol=1e-13)
        assert_allclose(
            _measure(build_tensor_grid((0.5, 1.5), 1.0, 32)), 0.125, rtol=1e-13
        )
        assert_allclose(
            _measure(build_tensor_grid((1.0,), 2.0, 32)), 8.0 / 3.0, rtol=1e-13
        )

    def test_measure_fractional_gamma(self):
        # x^{2g} absorbed into the rule: exact for non-integer 2g too
        g = 0.31
        grid = build_tensor_grid((g,), 2.0, 16)
        assert_allclose(_measure(grid), 2.0 ** (2 * g + 1) / (2 * g + 1), rtol=1e-13)

    def test_nodes_positive_increasing(self):
        grid = build_tensor_grid(GAMMA, 8.0, 24)
        for x in grid.nodes:
            assert np.all(x > 0)
            assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_points_against_meshgrid(self, n):
        # bitwise the stacked meshgrid, axis-major (one contiguous plane per
        # coordinate), with no per-axis mesh copies: the traced peak stays
        # within 10% of the result itself
        # about 1-5 MB of points, so small allocations do not count
        size = (2**17, 400, 60, 20)[n - 1]
        nodes = tuple(np.linspace(0.1 * (i + 1), 4.0, size) for i in range(n))
        grid = TensorGrid(GammaIndex((0.5, 1.0, 1.5, 0.75)[:n]), 4.0, nodes, nodes)
        tracemalloc.start()
        try:
            pts = grid.points()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = np.stack(np.meshgrid(*grid.nodes, indexing="ij"), axis=-1)
        assert pts.shape == want.shape and np.array_equal(pts, want)
        assert np.moveaxis(pts, -1, 0).flags.c_contiguous
        assert peak <= 1.1 * pts.nbytes

    @pytest.mark.parametrize("n,points", [(1, 96), (2, 96), (3, 16), (3, 48), (4, 12)])
    def test_sample_bitwise_on_c_ordered_copy(self, n, points):
        # fn gets axis-major points and returns bitwise what it returns on a
        # C-ordered copy; n = 3 at 48 points and n = 4 at 12 are chunked
        grid = build_tensor_grid((0.5, 1.0, 1.5, 0.75)[:n], 8.0, points)
        assert (math.prod(grid.shape) > special.SHIFT_BUDGET) == ((n, points) in ((3, 48), (4, 12)))
        seen = []
        for fn in layout_callables(grid.gamma).values():
            want = grid.sample(lambda p: fn(np.ascontiguousarray(p))).values
            assert np.array_equal(grid.sample(planar(fn, seen)).values, want)
        assert seen and all(seen)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sample_chunks_equal_points(self, n, monkeypatch):
        # chunks of 3 first-axis slices, and a last one of 2: bitwise the
        # callable on the whole point array
        grid = build_tensor_grid((0.5, 1.0, 1.5)[:n], 4.0, 11)
        fn = lambda p: np.exp(-np.sum(p * p, axis=-1)) * p[..., 0]
        monkeypatch.setattr(special, "SHIFT_BUDGET", 3 * 11 ** (n - 1) + 5)
        f = grid.sample(fn)
        assert np.array_equal(f.values, fn(grid.points()))
        with pytest.raises(ValueError, match="shape"):
            grid.sample(lambda p: np.ones(p.shape))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_chunk_sample_holds_fn_values(self, n, monkeypatch):
        # a grid within SHIFT_BUDGET is one call, and the sample holds the
        # array fn returned; over the budget the chunked path gives the same
        # values bitwise; either path refuses a wrong value shape
        grid = build_tensor_grid((0.05, 1.0, 5.0)[:n], 4.0, 11)
        returned = []

        def fn(p):
            returned.append(np.exp(-np.sum(p * p, axis=-1)) * p[..., 0])
            return returned[-1]

        whole = grid.sample(fn)
        assert len(returned) == 1 and whole.values is returned[0]
        wrong = lambda p: np.ones(p.shape)
        with pytest.raises(ValueError, match="fn returned shape"):
            _sample_tensor(wrong, grid.nodes)
        monkeypatch.setattr(special, "SHIFT_BUDGET", 2 * 11 ** (n - 1))
        assert np.array_equal(grid.sample(fn).values, whole.values)
        assert len(returned) == 1 + 6
        with pytest.raises(ValueError, match="fn returned shape"):
            _sample_tensor(wrong, grid.nodes)

    @pytest.mark.parametrize("budget,sizes", [(100, [8 * 12, 4 * 12] * 12),
                                              (10, [10, 2] * 144)],
                             ids=["budget100", "budget10"])
    def test_sample_splits_slices_over_budget(self, budget, sizes, monkeypatch):
        # a 12 x 12 first-axis slice is over the budget: the calls take whole
        # slices of the first axis whose trailing block fits (8 and 4 rows
        # of the second axis at 100 points, 10 and 2 points of the third at
        # 10), at most `budget` points each, and the values are bitwise
        # those of one call on all points
        grid = build_tensor_grid((0.5, 1.0, 1.5), 4.0, 12)
        seen = []

        def fn(p):
            seen.append(p.size // 3)
            return gauss(p)

        want = gauss(grid.points())
        monkeypatch.setattr(importlib.import_module("bhk.special"), "SHIFT_BUDGET", budget)
        got = grid.sample(fn).values
        assert seen == sizes and max(seen) <= budget
        assert np.array_equal(got, want)

    def test_sample_transient_memory(self):
        # n = 4, 48 points: 48.9 MiB traced with the 40.5 MiB result; on the
        # whole (*shape, n) point array it traced 364.5 MiB
        grid = build_tensor_grid((0.5, 1.0, 1.5, 0.75), 8.0, 48)
        tracemalloc.start()
        try:
            grid.sample(gauss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

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

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_non_finite_p_rejected(self, p):
        # lp_norm(f, inf) read 1.0 for any f, lp_norm(f, nan) nan
        grid = build_tensor_grid((0.5,), 1.0, 32)
        with pytest.raises(ValueError, match="finite p"):
            lp_norm(grid.sample(gauss), p)


class TestJacobiAngleRule:
    """`special.angle_rule`, the Gauss-Jacobi rule in cos(alpha) against
    sin^{2 gamma - 1}(alpha), normalized to sum 1."""

    def test_weight_sums(self):
        _, w = angle_rule(0.5, 16)
        assert_allclose(np.sum(w), 1.0, rtol=1e-13)
        _, w = angle_rule(1.0, 16)
        assert_allclose(np.sum(w), 1.0, rtol=1e-13)
        for g in (0.3, 0.5, 1.0, 2.7):
            _, w = angle_rule(g, 24)
            assert_allclose(np.sum(w), 1.0, rtol=1e-12)

    def test_odd_moment_vanishes(self):
        c, w = angle_rule(1.5, 16)
        assert abs(np.dot(w, c)) < 1e-14

    def test_symmetry_about_half_pi(self):
        # nodes in increasing alpha, mirrored about alpha = pi/2 exactly
        c, w = angle_rule(0.75, 20)
        assert np.all(np.diff(c) < 0)
        assert np.array_equal(c + c[::-1], np.zeros(20))
        assert np.array_equal(w, w[::-1])

    def test_polynomial_exactness(self):
        # degree 2m-1 in cos(alpha) against sin^{2g-1}; the weights times
        # B(g, 1/2) are the raw rule's
        g, m = 1.25, 8
        c, w = angle_rule(g, m)
        beta = math.sqrt(math.pi) * math.gamma(g) / math.gamma(g + 0.5)
        from scipy.integrate import quad

        for deg in (2, 5, 2 * m - 1):
            got = float(np.dot(w, c**deg)) * beta
            ref, _ = quad(
                lambda t: math.cos(t) ** deg * math.sin(t) ** (2 * g - 1), 0, math.pi
            )
            assert_allclose(got, ref, atol=1e-13)

    def test_validation(self):
        with pytest.raises(ValueError):
            angle_rule(-1.0, 16)
        with pytest.raises(ValueError):
            angle_rule(1.0, 2)


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

    @pytest.mark.parametrize("points", [8, 16])
    @pytest.mark.parametrize("gam", [(0.05, 5.0), (5.0, 0.5, 0.05), (0.05, 1.5, 5.0, 0.3)])
    def test_weighted_monomial_moments(self, gam, points):
        # sum w theta^{2 beta} = int theta^{2 (gamma + beta)} dS = m_{gamma + beta}(S_+),
        # exact for |beta| <= 4 (per angle a polynomial of degree <= 4 in u)
        rule = build_sphere_rule(gam, points)
        for beta in itertools.product(range(5), repeat=len(gam)):
            if sum(beta) <= 4:
                monomial = np.prod(rule.nodes ** (2 * np.array(beta)), axis=1)
                got = np.sum(rule.weights * monomial)
                want = hemisphere_measure(np.add(gam, beta))
                assert_allclose(got, want, rtol=1e-13, atol=0, err_msg=str(beta))

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


def _tensordot_loop(mats, values):
    """The earlier contract_axes, kept as an oracle: one tensordot per axis,
    then moveaxis back into place."""
    acc = values
    for ax, mat in enumerate(mats):
        acc = np.moveaxis(np.tensordot(mat, acc, axes=([1], [ax])), 0, ax)
    return acc


class TestContractions:
    """The shared separable contractions against a dense einsum oracle and
    the tensordot loop they replaced."""

    @pytest.mark.parametrize("shape", [(7,), (5, 6), (4, 5, 3), (3, 5, 4, 6)])
    def test_contract_axes(self, shape):
        rng = np.random.default_rng(len(shape))
        # non-square mats: axes grow and shrink
        mats = [rng.standard_normal((m + 2 if i % 2 == 0 else m - 1, m))
                for i, m in enumerate(shape)]
        axes, out = "abcd"[: len(shape)], "wxyz"[: len(shape)]
        spec = ",".join(o + a for o, a in zip(out, axes)) + f",{axes}->{out}"
        # a C-contiguous input, and a strided transposed view of a larger one
        big = rng.standard_normal(tuple(2 * m for m in reversed(shape)))
        strided = big.T[(slice(None, None, 2),) * len(shape)]
        assert strided.shape == shape and not strided.flags.c_contiguous
        for values in (rng.standard_normal(shape), strided):
            ref = np.einsum(spec, *mats, values)
            got = contract_axes(mats, values)
            assert got.shape == tuple(m.shape[0] for m in mats)
            assert got.flags.c_contiguous
            atol = 1e-13 * np.max(np.abs(ref))
            assert_allclose(got, ref, rtol=0, atol=atol)
            assert_allclose(got, _tensordot_loop(mats, values), rtol=0, atol=atol)


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


def _table_stencil(interp, axis, z):
    """Signed coordinates and node columns of each clamped query's stencil,
    read off the table at the start whose centre pair brackets z,
    coords[s, width/2 - 1] < z <= coords[s, width/2] (the last start beyond)."""
    coords, cols, _ = interp.stencils[axis]
    s = np.minimum(np.searchsorted(coords[:, interp.width // 2], z), len(coords) - 1)
    return coords[s], cols[s]


class TestGridInterpolator:
    @pytest.mark.parametrize("width", [4, 8, 10])
    def test_table_windows_the_reflected_axis(self, width):
        # oracle: width - 1 nodes mirrored through 0, then the nodes; start s
        # is the window at position s, and each denominator a product formula
        grid = build_tensor_grid((0.3, 2.7), 4.0, 24)
        interp = GridInterpolator(grid, width=width)
        for x, (coords, cols, den) in zip(grid.nodes, interp.stencils):
            xs = np.concatenate([-x[width - 2 :: -1], x])
            assert np.array_equal(coords, xs[np.arange(len(x))[:, None] + np.arange(width)])
            assert np.array_equal(np.abs(coords), x[cols])
            want = np.ones_like(den)
            for a in range(width):
                for b in range(width):
                    if a != b:
                        want[:, a] *= coords[:, a] - coords[:, b]
            assert_allclose(den, want, rtol=1e-14, atol=0)

    def test_tables_held_per_width(self):
        # interpolators of several widths on one grid: each width's tables
        # are built once, read-only, and equal to those of a fresh grid copy
        grid = build_tensor_grid((0.3, 2.7), 4.0, 24)
        for width in (4, 10, 4, 8, 10):
            interp = GridInterpolator(grid, width=width)
            assert interp.stencils is grid.stencil_tables(width)
            fresh = TensorGrid(grid.gamma, grid.x_max, grid.nodes, grid.weights)
            for table, want in zip(interp.stencils, fresh.stencil_tables(width)):
                for arr, ref in zip(table, want):
                    assert arr.shape == (24, width) and np.array_equal(arr, ref)
                    with pytest.raises(ValueError, match="read-only"):
                        arr[0, 0] = 0
        assert sorted(grid._tables) == [4, 8, 10]

    @pytest.mark.parametrize("width", [4, 8, 10])
    def test_stencil_against_product_formula(self, width):
        # oracle: prod_{b != a} (z - x_b) / (x_a - x_b), width^2 factors per query
        grid = build_tensor_grid(GAMMA, 4.0, 24)
        interp = GridInterpolator(grid, width=width)
        z = np.random.default_rng(width).uniform(0.0, 4.5, (40, 6))
        idx, w = interp.axis_stencil(1, z)
        zc = np.clip(z, 0.0, 4.0)
        xn, cols = _table_stencil(interp, 1, zc)
        assert np.array_equal(idx, cols)
        want = np.ones_like(w)
        for a in range(width):
            for b in range(width):
                if a != b:
                    want[..., a] *= (zc - xn[..., b]) / (xn[..., a] - xn[..., b])
        assert_allclose(w, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("width", [4, 8, 10])
    def test_stencil_exact_at_nodes(self, width):
        grid = build_tensor_grid((0.3, 2.7), 4.0, 24)
        interp = GridInterpolator(grid, width=width)
        for ax in range(2):
            idx, w = interp.axis_stencil(ax, grid.nodes[ax])
            xn, cols = _table_stencil(interp, ax, grid.nodes[ax])
            assert np.array_equal(idx, cols)
            assert np.array_equal(w, (xn == grid.nodes[ax][:, None]).astype(float))

    @pytest.mark.parametrize("width", [4, 8, 10])
    def test_stencil_reproduces_polynomials(self, width):
        # any polynomial of degree width - 1 in the signed coordinate
        grid = build_tensor_grid(GAMMA, 4.0, 24)
        interp = GridInterpolator(grid, width=width)
        z = np.random.default_rng(width).uniform(0.0, 4.0, 200)
        coef = np.random.default_rng(width + 1).standard_normal(width)
        idx, w = interp.axis_stencil(0, z)
        xn, cols = _table_stencil(interp, 0, z)
        assert np.array_equal(idx, cols)
        at_nodes = np.polyval(coef, xn)
        got = np.sum(w * at_nodes, axis=-1)
        assert_allclose(got, np.polyval(coef, z), rtol=0,
                        atol=1e-13 * np.max(np.abs(at_nodes)))

    def test_weighted_axis_matrix(self):
        # rows are angle-weighted sums of single-point stencil rows, built
        # here densely as the oracle (a mirrored node adds into its node);
        # normalized weights give T^y 1 = 1
        grid = build_tensor_grid(GAMMA, 4.0, 16)
        interp = GridInterpolator(grid, width=6)
        c, w = angle_rule(GAMMA[1], 8)
        x, y = np.random.default_rng(3).uniform(0.1, 2.0, (2, 5, 1))
        z = np.sqrt(x * x + y * y - 2.0 * x * y * c)  # (5, 8)
        got = interp.dense_axis_matrix(1, z, w)
        assert got.shape == (5, grid.shape[1])
        idx, lw = interp.axis_stencil(1, z)
        assert np.any(idx[..., :-1] == idx[..., 1:])  # some stencil holds a node twice
        single = np.zeros(z.shape + (grid.shape[1],))
        rows, angles = np.indices(z.shape)
        np.add.at(single, (rows[..., None], angles[..., None], idx), lw)
        assert_allclose(got, np.tensordot(w, single, axes=([0], [1])), rtol=0,
                        atol=1e-15)
        assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-13)

    def test_clip_counting(self):
        grid = build_tensor_grid(GAMMA, 4.0, 24)
        interp = GridInterpolator(grid)
        interp.axis_stencil(0, np.array([5.0, 1.0]))
        interp.axis_stencil(1, np.array([1.0, 1.0]))
        assert interp.clipped == 1
        assert interp.clip_fraction == 0.25  # one of four axis queries


NAN, INF = math.nan, math.inf

# the library's evaluators, each replaced by one that fails: a refused
# argument must raise before any of them runs
_EVALUATORS = [("bhk.meanvalue", "eval_poly"), ("bhk.meanvalue", "_axis_shift"),
               ("bhk.meanvalue", "apply_bessel"), ("bhk.meanvalue", "_antiderivative"),
               ("bhk.riesz", "eval_poly"), ("bhk.riesz", "_axis_shift"),
               ("bhk.riesz", "_multiplier"), ("bhk.riesz", "gauss_jacobi_on"),
               ("bhk.transform", "gauss_jacobi_on"), ("bhk.special", "gauss_jacobi_on")]


def _evaluated(*args, **kwargs):
    raise AssertionError("evaluated before the arguments were checked")


class TestArgumentContract:
    """Non-finite points, non-positive or non-finite radii and mismatched
    gamma indices raise ValueError at the library's entry points; each of
    these cases once gave a wrong number or NaN."""

    @pytest.fixture
    def args(self, monkeypatch):
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        out = {"p2": p2, "rule": build_sphere_rule(GAMMA, 16),
               "plan": build_shift_plan(GAMMA, 16), "kernel": build_riesz_kernel(p2, GAMMA),
               "factors": [_evaluated] * 2}
        for module, name in _EVALUATORS:
            monkeypatch.setattr(importlib.import_module(module), name, _evaluated)
        return out

    @pytest.mark.parametrize("case, match", [
        ("shifted-plan-gamma", "plan and rule gamma"),
        ("shifted-plan-n1", "plan and rule gamma"),
        ("shifted-y-nan", "finite"),
        ("shifted-y-inf", "finite"),
        ("shifted-R-nan", "R must be positive"),
        ("mvt-R-inf", "R must be positive"),
        ("sphere-mean-R-nan", "R must be positive"),
        ("pizzetti-mean-R-nan", "R must be positive"),
        ("pizzetti-R-negative", "R must be positive"),
        ("pizzetti-R-zero", "R must be positive"),
        ("v-R-negative", "R must be positive"),
        ("v-R-zero", "R must be positive"),
        ("riesz-x-nan", "finite"),
        ("riesz-x_max-nan", "x_max must be positive"),
        ("riesz-x_max-inf", "x_max must be positive"),
        ("pv-kernel-y-nan", "finite"),
        ("pv-kernel-y-length", "components"),
        ("gaussian-alpha-nan", "alpha must be positive"),
        ("pv-limit-r_max-inf", "r_max must be positive"),
        ("grid-x_max-nan", "x_max must be positive"),
    ])
    def test_refused_before_evaluation(self, args, case, match):
        p2, rule, plan = args["p2"], args["rule"], args["plan"]
        calls = {
            "shifted-plan-gamma": lambda: shifted_mean_value_check(
                p2, rule, 1.0, build_shift_plan((1.0, 1.0), 16), (0.7, 0.4)),
            "shifted-plan-n1": lambda: shifted_mean_value_check(
                p2, rule, 1.0, build_shift_plan((0.5,), 16), (0.7, 0.4)),
            "shifted-y-nan": lambda: shifted_mean_value_check(p2, rule, 1.0, plan, (NAN, 0.4)),
            "shifted-y-inf": lambda: shifted_mean_value_check(p2, rule, 1.0, plan, (0.7, INF)),
            "shifted-R-nan": lambda: shifted_mean_value_check(p2, rule, NAN, plan, (0.7, 0.4)),
            "mvt-R-inf": lambda: mean_value_check(p2, rule, INF),
            "sphere-mean-R-nan": lambda: sphere_mean(_evaluated, rule, NAN),
            "pizzetti-mean-R-nan": lambda: pizzetti_mean(p2, GAMMA, NAN, 2),
            "pizzetti-R-negative": lambda: pizzetti_coeffs(GAMMA, -1.0, 3),
            "pizzetti-R-zero": lambda: pizzetti_coeffs(GAMMA, 0.0, 3),
            "v-R-negative": lambda: v_sequence(GAMMA, -1.0, 1),
            "v-R-zero": lambda: v_sequence(GAMMA, 0.0, 1),
            "riesz-x-nan": lambda: riesz_spatial(args["kernel"], args["factors"],
                                                 (NAN, 1.0), plan, rule, 8.0),
            "riesz-x_max-nan": lambda: riesz_spatial(args["kernel"], args["factors"],
                                                     (1.0, 1.0), plan, rule, NAN),
            "riesz-x_max-inf": lambda: riesz_spatial(args["kernel"], args["factors"],
                                                     (1.0, 1.0), plan, rule, INF),
            "pv-kernel-y-nan": lambda: pv_kernel_transform(p2, GAMMA, (NAN, 1.0)),
            "pv-kernel-y-length": lambda: pv_kernel_transform(p2, GAMMA, (1.0, 1.0, 1.0)),
            "gaussian-alpha-nan": lambda: gaussian_transform(GAMMA, NAN, np.ones((3, 2))),
            "pv-limit-r_max-inf": lambda: pv_regularized_limit(_evaluated, _evaluated, rule,
                                                               r_max=INF),
            "grid-x_max-nan": lambda: build_tensor_grid(GAMMA, NAN, 16),
        }
        with pytest.raises(ValueError, match=match):
            calls[case]()
