import dataclasses
import importlib
import math

import numpy as np
import pytest
import sympy
from numpy.testing import assert_allclose

from bhk.grids import (
    GridFunction,
    TensorGrid,
    build_sphere_rule,
    build_tensor_grid,
    lp_norm,
)
from bhk.polys import EvenPoly, b_harmonic_basis, eval_poly
from bhk.riesz import (
    _multiplier,
    build_riesz_kernel,
    lp_boundedness_probe,
    priori_bound_probe,
    pv_kernel_transform,
    riesz_multiplier,
    riesz_spatial,
    riesz_spectral,
)
from bhk.shift import build_shift_plan
from bhk.transform import (
    build_fb_plan,
    fb_forward,
    fb_forward_at,
    fb_inverse,
    gaussian_transform,
)

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
        assert kernel.degree == 2

    def test_rejects_bad_numerators(self):
        with pytest.raises(ValueError, match="B-harmonic"):
            build_riesz_kernel(EvenPoly.from_terms(2, {(2, 0): 1.0}), GAMMA)
        with pytest.raises(ValueError, match="even degree"):
            build_riesz_kernel(
                EvenPoly.from_terms(2, {(1, 0): 1.0}), GAMMA
            )

    def test_angular_mean_zero(self, kernel, sphere96):
        vals = eval_poly(kernel.poly, sphere96.nodes)
        mean = float(sphere96.weights @ vals)
        scale = float(sphere96.weights @ np.abs(vals))
        assert abs(mean) < 1e-10 * scale


class TestPvKernelTransform:
    """The p.v. kernel's transform is the Riesz multiplier over c_k_printed,
    from the one kernel that build_riesz_kernel assembles."""

    def test_one_public_name(self):
        bhk = importlib.import_module("bhk")
        assert bhk.pv_kernel_transform is pv_kernel_transform
        assert not hasattr(importlib.import_module("bhk.transform"), "pv_kernel_transform")

    @pytest.mark.parametrize("gamma", [GAMMA, (0.5, 1.0, 1.5)], ids=["n2", "n3"])
    def test_multiplier_over_printed_constant(self, gamma):
        p = P2_SPEC if gamma == GAMMA else b_harmonic_basis(3, 2, gamma)[0]
        kern = build_riesz_kernel(p, gamma)
        for y in ([1.0, 0.5, 0.25], [0.3, 2.0, 1.1], [1.0, 0.0, 0.0]):
            y = np.array(y[: len(gamma)])
            want = float(_multiplier(kern, y)) / kern.c_k_printed
            assert pv_kernel_transform(p, gamma, y) == want

    def test_underflowing_origin_refused(self, kernel):
        # |y|^2 underflows to 0, where _multiplier alone reads 0
        y = np.array([1e-200, 0.0])
        assert float(_multiplier(kernel, y)) == 0.0
        with pytest.raises(ValueError, match="singular"):
            pv_kernel_transform(P2_SPEC, GAMMA, y)


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


@pytest.fixture(scope="module", params=[GAMMA, (0.5, 1.0, 1.5)], ids=["n2", "n3"])
def open_mesh_case(request):
    """A 48-point plan, its degree-2 and degree-4 B-harmonic kernels, and a
    Gaussian sampled on its grid."""
    g = request.param
    n = len(g)
    plan = build_fb_plan(build_tensor_grid(g, 8.0, 48))
    kernels = [build_riesz_kernel(b_harmonic_basis(n, k, g)[0], g) for k in (2, 4)]
    return plan, kernels, plan.grid.sample(gauss)


class TestSpectralRoute:
    def test_multiplier_in_place_bitwise(self, open_mesh_case):
        # the multiplier scales fb_forward's fresh output in place
        plan, kernels, f = open_mesh_case
        for kernel in kernels:
            got = riesz_spectral(kernel, f, plan)
            mult = riesz_multiplier(kernel, plan.freq_grid)
            f_hat = fb_forward(plan, f)
            want = fb_inverse(plan, GridFunction(plan.freq_grid, mult * f_hat.values))
            assert got.values.flags.c_contiguous
            assert np.array_equal(got.values, want.values)


class TestMultipliersOnOpenMesh:
    """The spectral multipliers, built from per-axis nodes, are bitwise those
    of the (*shape, n) point-array formulas, and no point array is built."""

    def test_riesz_multiplier(self, open_mesh_case):
        plan, kernels, _ = open_mesh_case
        pts = plan.freq_grid.points()
        r2 = np.sum(pts * pts, axis=-1)
        for kernel in kernels:
            sign = -1.0 if (kernel.degree // 2) % 2 else 1.0
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = sign * eval_poly(kernel.poly, pts) / r2 ** (0.5 * kernel.degree)
            ref = np.where(r2 == 0.0, 0.0, ref)
            assert np.array_equal(riesz_multiplier(kernel, plan.freq_grid), ref)

    def test_bessel_poly_and_apriori_multipliers(self, open_mesh_case, monkeypatch):
        # with F f = 1 and F^{-1} the identity, priori_bound_probe hands its
        # multipliers themselves to fb_inverse: xi_1 xi_2, and the Bessel
        # polynomial sum_j a_j B_j as -sum_j a_j xi_j^2
        plan, _, f = open_mesh_case
        n = plan.gamma.n
        seen = []
        riesz_mod = importlib.import_module("bhk.riesz")
        monkeypatch.setattr(riesz_mod, "fb_inverse", lambda pl, h: (
            seen.append(h.values), GridFunction(pl.grid, h.values))[1])
        pts = plan.freq_grid.points()
        a = (1.0, 2.0) + (1.0,) * (n - 2)
        ones = GridFunction(plan.freq_grid, np.ones(plan.freq_grid.shape))
        priori_bound_probe(plan, 2.0, [("gauss", ones, f)])
        assert np.array_equal(seen[0], pts[..., 0] * pts[..., 1])
        assert np.array_equal(seen[1], -sum(a[j] * pts[..., j] ** 2 for j in range(n)))

    def test_no_point_array(self, open_mesh_case, monkeypatch):
        plan, kernels, f = open_mesh_case

        def refuse(self):
            raise AssertionError("a spectral route built the (*shape, n) point array")

        monkeypatch.setattr(TensorGrid, "points", refuse)
        riesz_spectral(kernels[0], f, plan)
        f_hat = fb_forward(plan, f)
        priori_bound_probe(plan, 2.0, [("gauss", f_hat, f)])
        lp_boundedness_probe(kernels[0], (2.0,), [("gauss", f, f_hat)], plan)


def _counted_builds(monkeypatch):
    """Count the multiplier fields `riesz_multiplier` builds."""
    riesz_mod = importlib.import_module("bhk.riesz")
    builds = []
    build = riesz_mod._multiplier
    monkeypatch.setattr(riesz_mod, "_multiplier",
                        lambda kernel, xs: (builds.append(kernel), build(kernel, xs))[1])
    return builds


class TestHeldMultiplier:
    """The kernel holds its multiplier field for the last grid object asked
    for: one slot, read-only, outside equality and hashing."""

    @staticmethod
    def _fresh(kernel, grid):
        return _multiplier(kernel, np.meshgrid(*grid.nodes, indexing="ij", sparse=True))

    def test_held_field_read_only_and_fresh(self, open_mesh_case):
        plan, kernels, _ = open_mesh_case
        grid = plan.freq_grid
        for kernel in kernels:
            kernel = build_riesz_kernel(kernel.poly, kernel.gamma)
            m = riesz_multiplier(kernel, grid)
            assert not m.flags.writeable
            assert np.array_equal(m, self._fresh(kernel, grid))
            assert riesz_multiplier(kernel, grid) is m

    def test_alternating_grids(self, open_mesh_case):
        # same shape, other field: the slot is keyed by the grid object.  The
        # field is homogeneous of degree 0, so grid_b stretches one axis only
        plan, kernels, _ = open_mesh_case
        g = plan.gamma
        grid_a = plan.freq_grid
        grid_b = TensorGrid(g, grid_a.x_max, (2.0 * grid_a.nodes[0],) + grid_a.nodes[1:],
                            grid_a.weights)
        kernel = build_riesz_kernel(kernels[0].poly, g)
        assert not np.array_equal(self._fresh(kernel, grid_a), self._fresh(kernel, grid_b))
        for grid in (grid_a, grid_b, grid_a):
            assert np.array_equal(riesz_multiplier(kernel, grid), self._fresh(kernel, grid))

    def test_equality_ignores_slot(self, open_mesh_case):
        plan, kernels, _ = open_mesh_case
        a, b = (build_riesz_kernel(kernels[0].poly, plan.gamma) for _ in range(2))
        riesz_multiplier(a, plan.freq_grid)
        assert a == b and hash(a) == hash(b)
        riesz_multiplier(b, build_tensor_grid(plan.gamma.values, 6.0, 16))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)

    def test_replace_starts_empty(self, open_mesh_case):
        # dataclasses.replace builds a new kernel: it does not inherit the
        # field of the kernel it was made from
        plan, kernels, _ = open_mesh_case
        grid = plan.freq_grid
        k2 = build_riesz_kernel(kernels[0].poly, plan.gamma)
        riesz_multiplier(k2, grid)
        k4 = dataclasses.replace(k2, poly=kernels[1].poly, degree=4)
        assert np.array_equal(riesz_multiplier(k4, grid), self._fresh(kernels[1], grid))

    def test_spectral_builds_once(self, open_mesh_case, monkeypatch):
        plan, kernels, f = open_mesh_case
        kernel = build_riesz_kernel(kernels[0].poly, plan.gamma)
        builds = _counted_builds(monkeypatch)
        first, *rest = (riesz_spectral(kernel, f, plan) for _ in range(3))
        assert all(np.array_equal(r.values, first.values) for r in rest)
        assert len(builds) == 1

    def test_gamma_mismatch(self, kernel, monkeypatch):
        # a (0.5, 1.5) kernel on a (1, 1) plan: refused, and no field is built
        plan = build_fb_plan(build_tensor_grid((1.0, 1.0), 8.0, 48))
        f = plan.grid.sample(gauss)
        builds = _counted_builds(monkeypatch)
        for call in (lambda: riesz_multiplier(kernel, plan.freq_grid),
                     lambda: riesz_spectral(kernel, f, plan),
                     lambda: lp_boundedness_probe(kernel, (2.0,), [("gauss", f, f)], plan)):
            with pytest.raises(ValueError, match="kernel and grid gamma"):
                call()
        assert builds == []


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


# the Gaussian gauss(p) = prod_i exp(-p_i^2) as riesz_spatial takes it
GAUSS_FACTORS = [lambda z: np.exp(-z * z)] * 2
X_MAX = 8.0


@pytest.fixture(scope="module")
def spatial_rules():
    """(shift plan, sphere rule) for riesz_spatial at GAMMA."""
    return build_shift_plan(GAMMA, 48), build_sphere_rule(GAMMA, 64)


def _nearest_node(grid, x):
    """(index, point) of the grid node nearest x, axis by axis."""
    idx = tuple(int(np.argmin(np.abs(nodes - xi))) for nodes, xi in zip(grid.nodes, x))
    return idx, np.array([nodes[k] for nodes, k in zip(grid.nodes, idx)])


def _node_pairs(kernel, grid, fb_plan, plan, rule, targets):
    """(node, spatial result, spectral value) at the grid nodes nearest the
    targets; riesz_spectral's output is read there without interpolation."""
    rf = riesz_spectral(kernel, grid.sample(gauss), fb_plan)
    factors = [lambda z: np.exp(-z * z)] * grid.n
    out = []
    for x in targets:
        idx, node = _nearest_node(grid, x)
        out.append((node, riesz_spatial(kernel, factors, node, plan, rule, X_MAX),
                    float(rf.values[idx])))
    return out


@pytest.fixture(scope="module")
def interior_pairs(kernel, fb_plan96, grid96, spatial_rules):
    """(node, spatial result, spectral value) at two interior grid nodes."""
    return _node_pairs(kernel, grid96, fb_plan96, *spatial_rules,
                       ([1.0, 1.0], [1.5, 0.7]))


class TestSpatialAgainstSpectral:
    def test_interior_points(self, interior_pairs):
        for _, res, spec in interior_pairs:
            assert res.converged
            assert abs(res.limit - spec) <= 1e-2 * max(abs(spec), 1e-3)

    def test_grid_nodes_agree_96(self, interior_pairs):
        # read at grid nodes, the routes differ by 7.1e-11 and 1.3e-11 relative
        for _, res, spec in interior_pairs:
            assert abs(res.limit - spec) <= 1e-7 * max(abs(spec), 1e-3)

    def test_grid_nodes_agree_n3(self):
        # README's n = 3 config (48 points, 16 angles, 16 sphere points): the
        # routes differ by 2.5e-10, 3.1e-10 and 8.1e-11 relative at these nodes
        g = (0.5, 1.0, 1.5)
        grid = build_tensor_grid(g, X_MAX, 48)
        kernel3 = build_riesz_kernel(b_harmonic_basis(3, 2, g)[0], g)
        pairs = _node_pairs(kernel3, grid, build_fb_plan(grid), build_shift_plan(g, 16),
                            build_sphere_rule(g, 16),
                            ([1.0, 1.0, 1.0], [1.5, 0.7, 1.2], [0.6, 1.7, 0.9]))
        for _, res, spec in pairs:
            assert res.converged
            assert abs(res.limit - spec) <= 1e-7 * max(abs(spec), 1e-3)

    def test_rules_converged(self, kernel, interior_pairs, monkeypatch):
        # doubling the angle, sphere and radial rules moves the value by
        # 2.1e-14 and 1.7e-14 relative; with 8 angles per axis it moves by
        # 1.2e-10 and 3.8e-8, and with 8/16 radial nodes by 2.9e-9 and 1.8e-8
        riesz_mod = importlib.import_module("bhk.riesz")
        monkeypatch.setattr(riesz_mod, "RADIAL_INNER", 2 * riesz_mod.RADIAL_INNER)
        monkeypatch.setattr(riesz_mod, "RADIAL_OUTER", 2 * riesz_mod.RADIAL_OUTER)
        plan, rule = build_shift_plan(GAMMA, 96), build_sphere_rule(GAMMA, 128)
        for x, res, _ in interior_pairs:
            ref = riesz_spatial(kernel, GAUSS_FACTORS, x, plan, rule, X_MAX)
            assert abs(res.limit - ref.limit) <= 1e-12 * abs(ref.limit)

    def test_far_point_decays(self, kernel, spatial_rules):
        res = riesz_spatial(kernel, GAUSS_FACTORS, np.array([9.0, 9.0]), *spatial_rules,
                            X_MAX)
        assert abs(res.limit) < 1e-3

    def test_zero_input(self, kernel, spatial_rules):
        zero = [lambda z: np.zeros_like(z)] * 2
        res = riesz_spatial(kernel, zero, np.array([1.0, 1.0]), *spatial_rules, X_MAX)
        assert res.limit == 0.0

    def test_nonzero_mean_numerator_not_converged(self, kernel, spatial_rules):
        # x_1^2 + x_2^2 has a nonzero hemisphere mean: the subtracted
        # integrand keeps its 1/r singularity, which the flag reports
        bad = dataclasses.replace(
            kernel, poly=EvenPoly.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0}))
        res = riesz_spatial(bad, GAUSS_FACTORS, np.array([1.0, 1.0]), *spatial_rules,
                            X_MAX)
        assert not res.converged

    @pytest.mark.parametrize("arg", ["plan", "rule"])
    def test_gamma_mismatch(self, kernel, arg):
        # one argument built for another gamma than the kernel's
        g = {name: (0.5, 1.0) if name == arg else GAMMA for name in ("plan", "rule")}
        with pytest.raises(ValueError, match="kernel, plan and rule gamma"):
            riesz_spatial(kernel, GAUSS_FACTORS, np.array([1.0, 1.0]),
                          plan=build_shift_plan(g["plan"], 8),
                          rule=build_sphere_rule(g["rule"], 8), x_max=X_MAX)

    @pytest.mark.parametrize("which", ["grid-function", "n-d-callable", "one-factor"])
    def test_refuses_all_but_n_factors(self, kernel, grid96, spatial_rules, which):
        f = {"grid-function": grid96.sample(gauss), "n-d-callable": gauss,
             "one-factor": GAUSS_FACTORS[:1]}[which]
        with pytest.raises(ValueError, match="callables"):
            riesz_spatial(kernel, f, np.array([1.0, 1.0]), *spatial_rules, X_MAX)


def _bessel_poly(p, f, plan):
    """P(B_1, ..., B_n) f through the multiplier P(-xi_1^2, ..., -xi_n^2)."""
    pts = plan.freq_grid.points()
    mult = eval_poly(p, -pts * pts)
    return fb_inverse(plan, GridFunction(plan.freq_grid, mult * fb_forward(plan, f).values))


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
        got = _bessel_poly(p, f, fb_plan96)
        pts = grid96.points()
        expected = ref(pts[..., 0], pts[..., 1])
        assert np.max(np.abs(got.values - expected)) < 1e-7 * np.max(np.abs(expected))

    def test_sum_gives_laplace_bessel(self, fb_plan96, grid96):
        p = EvenPoly.from_terms(2, {(1, 0): 1.0, (0, 1): 1.0})
        f = grid96.sample(gauss)
        got = _bessel_poly(p, f, fb_plan96)
        ref = grid96.sample(
            lambda q: (4.0 * np.sum(q * q, axis=-1) - 12.0) * gauss(q)
        )
        assert np.max(np.abs(got.values - ref.values)) < 1e-7 * np.max(np.abs(ref.values))

    def test_zero_function(self, fb_plan96, grid96):
        p = EvenPoly.from_terms(2, {(2, 0): 1.0})
        z = grid96.sample(lambda q: np.zeros(q.shape[:-1]))
        assert np.all(_bessel_poly(p, z, fb_plan96).values == 0.0)


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


def apriori_entries(plan, family):
    """priori_bound_probe's family: each (label, f, Bf) with f by its transform."""
    return [(label, fb_forward(plan, f), bf) for label, f, bf in family]


def lp_entries(plan, family):
    """lp_boundedness_probe's family: each (label, f) with its transform."""
    return [(label, f, fb_forward(plan, f)) for label, f, _ in family]


def _three_transform_apply(plan, mult, f):
    """The probes' former multiplier route: a fresh forward transform of f per
    multiplier, scaled in place."""
    f_hat = fb_forward(plan, f)
    f_hat.values *= mult
    return fb_inverse(plan, f_hat)


def _three_transform_ratios(kernel, plan, family):
    """The a-priori and riesz-lp ratios as the probes computed them when each
    multiplier transformed f afresh (three forward transforms per member)."""
    g = plan.gamma
    a = (1.0, 2.0) + (1.0,) * (g.n - 2)
    xs = np.meshgrid(*plan.freq_grid.nodes, indexing="ij", sparse=True)
    mixed, elliptic = xs[0] * xs[1], -sum(a[j] * xs[j] ** 2 for j in range(g.n))
    riesz = riesz_multiplier(kernel, plan.freq_grid)
    apriori, lp = [], []
    for _, f, bf in family:
        norm_bf = lp_norm(bf, 2.0)
        norm_dd = lp_norm(_three_transform_apply(plan, mixed, f), 2.0)
        norm_pf = lp_norm(_three_transform_apply(plan, elliptic, f), 2.0)
        apriori += [norm_dd / norm_bf, norm_bf / norm_pf]
        rf = _three_transform_apply(plan, riesz, f)
        lp += [lp_norm(rf, p) / lp_norm(f, p) for p in (2.0, 4.0)]
    return apriori, lp


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
        rows = priori_bound_probe(fb_plan96, 2.0, apriori_entries(fb_plan96, family))
        for check in ("apriori-mixed-derivative", "apriori-elliptic"):
            ratios = [r["ratio"] for r in rows if r["check"] == check]
            assert all(np.isfinite(ratios))
            assert (max(ratios) - min(ratios)) / max(ratios) < 0.1

    def test_apriori_probe_needs_two_axes(self):
        plan = build_fb_plan(build_tensor_grid((0.5,), 8.0, 48))
        with pytest.raises(ValueError, match="n >= 2"):
            priori_bound_probe(plan, 2.0, [])

    def test_lp_ratios(self, kernel, fb_plan96, family):
        rows = lp_boundedness_probe(kernel, (2.0, 4.0), lp_entries(fb_plan96, family),
                                    fb_plan96)
        p2 = [r for r in rows if r["p"] == 2.0]
        for r in p2:
            assert r["ratio"] <= r["max_multiplier"] + 1e-6
        for p in (2.0, 4.0):
            ratios = [r["ratio"] for r in rows if r["p"] == p]
            assert (max(ratios) - min(ratios)) / max(ratios) < 0.05

    def test_lp_ratios_are_the_spectral_route(self, kernel, fb_plan96, family):
        rows = lp_boundedness_probe(kernel, (2.0, 4.0), lp_entries(fb_plan96, family),
                                    fb_plan96)
        want = [lp_norm(riesz_spectral(kernel, f, fb_plan96), p) / lp_norm(f, p)
                for _, f, _ in family for p in (2.0, 4.0)]
        assert [r["ratio"] for r in rows] == want

    @pytest.mark.parametrize("g, points", [(GAMMA, 96), ((0.5, 1.0, 1.5), 48)],
                             ids=["n2", "n3"])
    def test_one_transform_per_member_is_bitwise_three(self, g, points):
        # one transform shared by the mixed, elliptic and Riesz multipliers
        # gives bitwise the ratios of a fresh transform per multiplier
        plan = build_fb_plan(build_tensor_grid(g, 8.0, points))
        kernel = build_riesz_kernel(b_harmonic_basis(len(g), 2, g)[0], g)
        q = len(g) + 2.0 * sum(g)
        family = [(f"s{s}", plan.grid.sample(lambda p: np.exp(-s * np.sum(p * p, axis=-1))),
                   plan.grid.sample(lambda p: (4 * s * s * np.sum(p * p, axis=-1) - 2 * s * q)
                                    * np.exp(-s * np.sum(p * p, axis=-1))))
                  for s in (0.5, 1.0, 2.0)]
        apriori = priori_bound_probe(plan, 2.0, apriori_entries(plan, family))
        lp = lp_boundedness_probe(kernel, (2.0, 4.0), lp_entries(plan, family), plan)
        assert ([r["ratio"] for r in apriori], [r["ratio"] for r in lp]) \
            == _three_transform_ratios(kernel, plan, family)

    def test_spatial_function_for_a_transform_is_refused(self, kernel, fb_plan96, family):
        # an entry whose transform slot holds a spatial GridFunction is not
        # read on the frequency grid
        label, f, bf = family[0]
        with pytest.raises(ValueError, match="frequency grid"):
            priori_bound_probe(fb_plan96, 2.0, [(label, f, bf)])
        with pytest.raises(ValueError, match="frequency grid"):
            lp_boundedness_probe(kernel, (2.0,), [(label, f, f)], fb_plan96)
