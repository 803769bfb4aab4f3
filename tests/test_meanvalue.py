import importlib
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bhk.grids import build_sphere_rule, hemisphere_measure
from bhk.meanvalue import (
    PizzettiCoefficients,
    _eval_terms,
    _radial_bessel,
    mean_value_check,
    pizzetti_coeffs,
    pizzetti_mean,
    shifted_mean_value_check,
    sphere_mean,
    v_sequence,
)
from bhk.polys import EvenPoly, apply_bessel, b_harmonic_basis, eval_poly
from bhk.report import DEFAULT_TOLERANCES
from bhk.shift import build_shift_plan, shift

from conftest import GAMMA, bessel_laplacian_fd, exact_power_shift, gauss

R2 = EvenPoly.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0})


class TestSphereMean:
    def test_constant(self, sphere96):
        got = sphere_mean(lambda p: np.ones(p.shape[:-1]), sphere96, 1.0)
        assert_allclose(got, 0.25, rtol=1e-12)

    def test_harmonic_vanishes(self, sphere96):
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        assert abs(sphere_mean(p2, sphere96, 1.3)) < 1e-10

    def test_radius_squared(self, sphere96):
        assert_allclose(sphere_mean(R2, sphere96, 1.0), 0.25, rtol=1e-12)
        assert_allclose(sphere_mean(R2, sphere96, 2.0), 4 * 0.25, rtol=1e-12)

    def test_radius_validated(self, sphere96):
        with pytest.raises(ValueError):
            sphere_mean(R2, sphere96, -1.0)


class TestBesselLaplacianFd:
    # the finite-difference oracle of test_polys, against closed forms
    def test_gaussian_analytic(self):
        for x in ([0.6, 0.8], [1.5, 0.3]):
            got = bessel_laplacian_fd(gauss, GAMMA, x)
            r2 = float(np.sum(np.asarray(x) ** 2))
            ref = (4.0 * r2 - 2 * 2 - 4 * 2.0) * math.exp(-r2)
            assert_allclose(got, ref, rtol=1e-6)

    def test_even_limit_at_origin(self):
        got = bessel_laplacian_fd(gauss, GAMMA, [0.0, 0.0])
        assert_allclose(got, -(2 * 2 + 4 * 2.0), rtol=1e-7)

    def test_on_axis_point(self):
        got = bessel_laplacian_fd(gauss, GAMMA, [0.0, 1.0])
        ref = (4.0 - 12.0) * math.exp(-1.0)
        assert_allclose(got, ref, rtol=1e-6)


class TestMeanValueCheck:
    def test_constant(self, sphere96):
        row = mean_value_check(EvenPoly.from_terms(2, {(0, 0): 1.0}), sphere96, 1.0)
        assert row["residual_ok"]
        assert row["residual"] == 0.0
        assert_allclose(row["lhs"], row["rhs"], rtol=1e-12)

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("R", [0.7, 1.0, 1.6])
    def test_b_harmonic(self, sphere96, k, R):
        p = b_harmonic_basis(2, k, GAMMA)[0]
        row = mean_value_check(p, sphere96, R)
        assert row["residual_ok"]
        assert row["rhs"] == 0.0
        assert row["abs_err"] <= 1e-8 * row["scale"]

    @pytest.mark.parametrize("k", [2, 4])
    @pytest.mark.parametrize("gam", [(5.0, 0.05), (0.05, 5.0), (0.4314, 0.2019, 0.1802),
                                     (0.5, 1.0, 1.5, 0.75)])
    def test_b_harmonic_residual_is_exact_zero(self, gam, k):
        # B u = 0 is read off apply_bessel's coefficients, at any gamma and n
        rule = build_sphere_rule(gam, 16)
        basis = b_harmonic_basis(len(gam), k, gam)
        assert basis
        for p in basis:
            row = mean_value_check(p, rule, 1.0)
            assert row["residual"] == 0.0
            assert row["residual_ok"]

    def test_non_solution_flagged(self, sphere96):
        # B|x|^2 = 2 (1 + 2 gamma_1) + 2 (1 + 2 gamma_2) = 12 at gamma = (0.5, 1.5)
        row = mean_value_check(R2, sphere96, 1.0)
        assert row["residual"] == 12.0
        assert not row["residual_ok"]

    def test_shifted_form(self, sphere96, shift_plan):
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        rng = np.random.default_rng(21)
        for _ in range(5):
            y = rng.uniform(0.2, 1.5, 2)
            row = shifted_mean_value_check(p2, sphere96, 1.0, shift_plan, y)
            assert row["abs_err"] <= 1e-5 * row["scale"]

    def test_shifted_constant(self, sphere96, shift_plan):
        one = EvenPoly.from_terms(2, {(0, 0): 1.0})
        row = shifted_mean_value_check(one, sphere96, 1.0, shift_plan, [0.4, 0.9])
        assert_allclose(row["lhs"], hemisphere_measure(GAMMA), rtol=1e-10)

    def test_shifted_at_zero_is_the_plain_mean(self, sphere96, shift_plan):
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        row = shifted_mean_value_check(p2, sphere96, 1.3, shift_plan, [0.0, 0.0])
        assert row["lhs"] == sphere_mean(p2, sphere96, 1.3)

    def test_shifted_y_validated(self, sphere96, shift_plan):
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        with pytest.raises(ValueError):
            shifted_mean_value_check(p2, sphere96, 1.0, shift_plan, [0.4, 0.9, 1.2])

    @pytest.mark.parametrize("R", [0.0, -1.0])
    def test_radius_validated(self, sphere96, shift_plan, R):
        # at R = 0 every node is the origin, where lhs = m(S_+) u(0) = rhs
        # holds trivially for y = 0
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        with pytest.raises(ValueError, match="R must be positive"):
            mean_value_check(p2, sphere96, R)
        with pytest.raises(ValueError, match="R must be positive"):
            shifted_mean_value_check(p2, sphere96, R, shift_plan, [0.0, 0.0])
        with pytest.raises(ValueError, match="R must be positive"):
            shifted_mean_value_check(p2, sphere96, R, shift_plan, [0.4, 0.9])

    def test_shifted_poly_dimension_validated(self, sphere96, shift_plan):
        with pytest.raises(ValueError):
            shifted_mean_value_check(b_harmonic_basis(3, 2, (0.5, 1.5, 1.0))[0],
                                     sphere96, 1.0, shift_plan, [0.4, 0.9])
        # only an EvenPoly is shifted: a callable u is refused
        with pytest.raises(ValueError, match="EvenPoly"):
            shifted_mean_value_check(gauss, sphere96, 1.0, shift_plan, [0.4, 0.9])

    @pytest.mark.parametrize("gam, sphere_points, angles", [
        (GAMMA, 24, 8),
        ((0.3, 2.2, 4.1), 6, 6),
        ((0.5, 1.0, 1.5, 0.75), 4, 4),
    ], ids=["n2", "n3", "n4"])
    def test_shifted_poly_against_exact_shift(self, gam, sphere_points, angles):
        # T^y of a monomial is the product of its 1-D shifts, each exact in
        # Fraction arithmetic; degree <= 4 per axis needs at most 3 angles
        n = len(gam)
        rule, plan = build_sphere_rule(gam, sphere_points), build_shift_plan(gam, angles)
        rng = np.random.default_rng(50 + n)
        terms = {a: float(rng.uniform(0.5, 2.0))
                 for a in itertools.product(range(0, 5, 2), repeat=n) if sum(a) == 4}
        u = EvenPoly.from_terms(n, terms)
        R, y = 0.9, rng.uniform(0.2, 1.5, n)
        row = shifted_mean_value_check(u, rule, R, plan, y)
        ref = sum(Fraction(wk) * sum(Fraction(c) * math.prod(
                      exact_power_shift(gi, ai // 2, xi, yi)
                      for gi, ai, xi, yi in zip(gam, alpha, x, y))
                  for alpha, c in terms.items())
                  for wk, x in zip(rule.weights, R * rule.nodes))
        assert abs(row["lhs"] - float(ref)) <= 1e-13 * float(ref)

    @pytest.mark.parametrize("gam, sphere_points, angles, step", [
        (GAMMA, 48, 12, 7),
        ((0.3, 2.2, 4.1), 8, 6, 10),
    ], ids=["n2", "n3"])
    def test_shifted_poly_chunks(self, monkeypatch, gam, sphere_points, angles, step):
        # per-axis chunks of `step` nodes: boundaries fall mid-rule, the last
        # is short; chunking changes no value, and the per-axis route agrees
        # with the n-D route on the same polynomial
        n = len(gam)
        rule = build_sphere_rule(gam, sphere_points)
        plan = build_shift_plan(gam, angles)
        nodes = rule.nodes.shape[0]
        assert nodes > step and nodes % step
        u = EvenPoly.from_terms(n, {a: 1.0 + sum(a) / 4 + a[0]
                                    for a in itertools.product(range(0, 5, 2), repeat=n)
                                    if sum(a) == 4})
        y = np.linspace(0.4, 1.2, n)
        whole = shifted_mean_value_check(u, rule, 0.9, plan, y)
        monkeypatch.setattr(importlib.import_module("bhk.special"), "SHIFT_BUDGET",
                            step * angles)
        row = shifted_mean_value_check(u, rule, 0.9, plan, y)
        assert row["lhs"] == whole["lhs"]
        vals = [shift(plan, lambda p: eval_poly(u, p), 0.9 * x, y, adaptive=False)
                for x in rule.nodes]
        assert_allclose(row["lhs"], np.dot(rule.weights, vals), rtol=1e-13, atol=0)

    def test_shifted_transient_memory(self):
        # the n = 3 size of the shift-pointwise benchmark: 64 nodes, 16
        # angles per axis; the per-axis route traced about 41 kB (the n-D
        # route, all nodes in one chunk, about 12 MB)
        gam = (0.7, 2.3, 4.1)
        rule, plan = build_sphere_rule(gam, 8), build_shift_plan(gam, 16)
        u = b_harmonic_basis(3, 2, gam)[0]
        assert rule.nodes.shape[0] == 64
        tracemalloc.start()
        try:
            shifted_mean_value_check(u, rule, 1.0, plan, [0.4, 0.9, 1.2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * 2**10


class TestPizzettiCoefficients:
    def test_worked_values(self):
        assert pizzetti_coeffs(GAMMA, 2.0, 1).c == (1.0, 1.0 / 3.0)
        assert_allclose(pizzetti_coeffs(GAMMA, 1.0, 1).c[1], 1.0 / 12.0, rtol=1e-15)

    def test_matches_gamma_formula(self):
        for gam, R in ((GAMMA, 0.5), ((0.5, 0.5), 1.0), ((1.0, 1.0), 2.0)):
            g = np.asarray(gam)
            s = g.sum() + 0.5 * len(g)
            c = pizzetti_coeffs(gam, R, 10).c
            for eta in range(11):
                ref = ((0.5 * R) ** (2 * eta) * math.gamma(s)
                       / (math.factorial(eta) * math.gamma(eta + s)))
                assert_allclose(c[eta], ref, rtol=1e-13)

    def test_ratio_identity(self):
        s = 2.0 + 1.0
        c = pizzetti_coeffs(GAMMA, 1.0, 10).c
        for eta in range(10):
            ref = 0.25 / ((eta + 1.0) * (eta + s))
            assert abs(c[eta + 1] / c[eta] - ref) <= 1e-13 * ref

    def test_validation(self):
        with pytest.raises(ValueError):
            pizzetti_coeffs(GAMMA, 1.0, -1)
        with pytest.raises(ValueError):
            PizzettiCoefficients(1.0, __import__("bhk").GammaIndex(GAMMA), (1.0, 99.0))


class TestPizzettiMean:
    def test_radius_squared_exact(self, sphere96):
        got = pizzetti_mean(R2, GAMMA, 1.0, 1)
        assert_allclose(got, 1.0, rtol=1e-15)
        normalized = sphere_mean(R2, sphere96, 1.0) / hemisphere_measure(GAMMA)
        assert_allclose(normalized, got, rtol=1e-9)

    def test_polynomial_exactness_all_radii(self, sphere96):
        # degree <= 2m polynomials are reproduced exactly
        p4 = EvenPoly.from_terms(2, {(4, 0): 1.0, (2, 2): 2.0, (0, 4): 0.5})
        for R in (0.5, 1.0, 2.0):
            normalized = sphere_mean(p4, sphere96, R) / hemisphere_measure(GAMMA)
            series = pizzetti_mean(p4, GAMMA, R, 2)
            assert_allclose(series, normalized, rtol=1e-9)

    def test_constant(self):
        one = EvenPoly.from_terms(2, {(0, 0): 1.0})
        for m in (0, 1, 3):
            assert pizzetti_mean(one, GAMMA, 1.0, m) == 1.0

    def test_harmonic_gives_zero(self):
        p2 = b_harmonic_basis(2, 2, GAMMA)[0]
        for m in (0, 1, 2):
            assert pizzetti_mean(p2, GAMMA, 1.0, m) == 0.0

    def test_one_bessel_pass(self, monkeypatch):
        # B^eta u for eta <= m in one pass: m calls of apply_bessel, where
        # applying B^eta afresh for each term took m (m + 1) / 2 (10 at m = 4)
        u = EvenPoly.from_terms(2, {(8, 0): 1.0, (4, 4): -3.0, (2, 6): 0.5, (0, 8): 2.0})
        mod = importlib.import_module("bhk.meanvalue")
        calls = []

        def counted(p, gamma):
            calls.append(p.degree)
            return apply_bessel(p, gamma)

        monkeypatch.setattr(mod, "apply_bessel", counted)
        got = pizzetti_mean(u, GAMMA, 1.3, 4)
        assert calls == [8, 6, 4, 2]
        c, terms, p = pizzetti_coeffs(GAMMA, 1.3, 4).c, [], u
        for eta in range(5):
            terms.append(c[eta] * float(p.as_dict().get((0, 0), 0)))
            p = apply_bessel(p, GAMMA)
        assert got == math.fsum(terms) != 0.0

    def test_callable_refused(self, sphere96):
        # B is applied exactly, on EvenPoly coefficients only
        with pytest.raises(ValueError, match="EvenPoly"):
            pizzetti_mean(gauss, GAMMA, 1.0, 1)
        with pytest.raises(ValueError, match="EvenPoly"):
            mean_value_check(gauss, sphere96, 1.0)


class TestVRecursion:
    def test_v0_closed_form(self):
        v0 = v_sequence(GAMMA, 1.0, 0)[0]
        q = 2 + 2 * 2.0 - 2
        m_s = hemisphere_measure(GAMMA)
        for r in (0.3, 0.7, 1.0):
            ref = (r ** (-q) - 1.0) / (m_s * q)
            assert_allclose(v0(r), ref, rtol=1e-13)

    def test_boundary_conditions(self):
        vs = v_sequence(GAMMA, 1.0, 3)
        assert vs[0](1.0) == 0.0
        for eta in (1, 2, 3):
            assert abs(vs[eta](1.0)) < 1e-8
            assert abs(vs[eta].derivative(1.0)) < 1e-8

    def test_radial_operator_consistency(self):
        q = 2 + 2 * 2.0 - 2
        vs = v_sequence(GAMMA, 1.0, 3)
        r = np.linspace(0.2, 0.9, 15)
        h = 1e-3
        for eta in (0, 1, 2):
            vp = vs[eta + 1]
            d2 = (-vp(r + 2 * h) + 16 * vp(r + h) - 30 * vp(r) + 16 * vp(r - h)
                  - vp(r - 2 * h)) / (12 * h * h)
            d1 = (-vp(r + 2 * h) + 8 * vp(r + h) - 8 * vp(r - h)
                  + vp(r - 2 * h)) / (12 * h)
            rel = np.max(np.abs(d2 + (q + 1) / r * d1 - vs[eta](r))
                         / np.abs(vs[eta](r)))
            assert rel < 1e-5

    def test_exact_radial_operator_on_a_log_term(self):
        # B(r^3 ln^2 r) at q = 2 is r [15 ln^2 r + 16 ln r + 2]
        got = _radial_bessel({(Fraction(3), 2): 1.0}, Fraction(2))
        assert got == {(Fraction(1), 2): 15.0, (Fraction(1), 1): 16.0, (Fraction(1), 0): 2.0}
        # B(r^3 ln^3 r) at q = 2 is r [15 ln^3 r + 24 ln^2 r + 6 ln r]: the
        # ln^{l-2} path, which no report config reaches
        got = _radial_bessel({(Fraction(3), 3): 1.0}, Fraction(2))
        assert got == {(Fraction(1), 3): 15.0, (Fraction(1), 2): 24.0, (Fraction(1), 1): 6.0}

    @pytest.mark.parametrize("gam", [GAMMA, (0.5, 0.5), (0.7,), (0.05, 0.05), (5.0, 5.0)])
    def test_exact_radial_operator_inverts_recursion(self, gam):
        # B v_{eta+1} = v_eta on the terms: at most 4.6e-9 over these gammas,
        # where finite differences at step 1e-3 read up to 7.4e-4
        q = len(gam) + 2 * sum(map(Fraction, gam)) - 2
        vs = v_sequence(gam, 1.0, 3)
        r = np.linspace(0.2, 0.9, 15)
        for eta in (0, 1, 2):
            bv = _eval_terms(_radial_bessel(vs[eta + 1].terms, q), r)
            assert np.max(np.abs(bv - vs[eta](r)) / np.abs(vs[eta](r))) < 1e-7

    def test_moment_identity_ties_to_coefficients(self):
        for gam, R in ((GAMMA, 1.0), (GAMMA, 2.0), ((0.5, 0.5), 1.0), ((1.0, 1.0), 0.5)):
            vs = v_sequence(gam, R, 3)
            c = pizzetti_coeffs(gam, R, 4).c
            for eta in range(4):
                assert_allclose(vs[eta].mu_moment, c[eta + 1], rtol=1e-10)

    @pytest.mark.parametrize("gam", [(0.1, 2.5), (0.7,)])
    def test_non_dyadic_gamma_keeps_exponents_exact(self, gam):
        # float exponent sums once split r^4 into keys 4.0 and
        # 3.999999999999999 at (0.1, 2.5), and v-moment/c_3 read 0.112
        vs = v_sequence(gam, 1.0, 3)
        c = pizzetti_coeffs(gam, 1.0, 4).c
        tol = DEFAULT_TOLERANCES["v-moment"]
        for eta in range(4):
            assert abs(vs[eta].mu_moment / c[eta + 1] - 1.0) <= tol
            powers = sorted(float(p) for p, l in vs[eta].terms if l == 0)
            assert np.all(np.diff(powers) > 1e-6)

    def test_log_case_q2(self):
        # n = 2, |gamma| = 1 gives q = 2: the recursion produces log terms
        vs = v_sequence((0.5, 0.5), 1.0, 2)
        assert any(l > 0 for _, l in vs[1].terms)
        assert abs(vs[1](1.0)) < 1e-12 and abs(vs[1].derivative(1.0)) < 1e-10

    def test_exponent_validated(self):
        with pytest.raises(ValueError):
            v_sequence((0.25,), 1.0, 1)  # n + 2|gamma| = 1.5 <= 2
