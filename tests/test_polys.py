import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from bhk.polys import (
    EvenPoly,
    apply_bessel,
    b_harmonic_basis,
    eval_poly,
)
from bhk.shift import build_shift_plan, shift

from conftest import GAMMA, bessel_laplacian_fd

P2_SPEC = EvenPoly.from_terms(2, {(2, 0): 4.0, (0, 2): -2.0})


class TestEvenPoly:
    def test_drops_zero_coefficients(self):
        p = EvenPoly.from_terms(2, {(2, 0): 1.0, (0, 2): 0.0})
        assert p.coeffs == (((2, 0), 1.0),)

    def test_repeated_multi_index_sums(self):
        assert EvenPoly(1, 2, (((2,), 1.0), ((2,), 1.0))).coeffs == (((2,), 2),)
        # terms that cancel leave no stored zero
        p = EvenPoly(2, 2, (((2, 0), 1.0), ((0, 2), 3.0), ((2, 0), -1.0)))
        assert p.coeffs == (((0, 2), 3),)

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            EvenPoly.from_terms(2, {(2, 0): 1.0, (1, 0): 1.0})


class TestEvalPoly:
    def test_examples(self):
        assert eval_poly(EvenPoly.from_terms(2, {(2, 0): 1.0}), [2.0, 3.0]) == 4.0
        assert eval_poly(P2_SPEC, [1.0, 1.0]) == 2.0
        assert eval_poly(
            EvenPoly.from_terms(2, {(2, 2): 1.0}), [2.0, 0.5]
        ) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_poly(P2_SPEC, [1.0, 2.0, 3.0])

    @given(st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=0.1, max_value=2.0),
           st.sampled_from([0.5, 2.0]))
    @settings(max_examples=40)
    def test_homogeneity(self, x1, x2, t):
        x = np.array([x1, x2])
        assert_allclose(
            eval_poly(P2_SPEC, t * x),
            t**2 * eval_poly(P2_SPEC, x),
            rtol=1e-13,
        )


class TestApplyBessel:
    def test_single_monomial(self):
        p = EvenPoly.from_terms(1, {(2,): 1.0})
        out = apply_bessel(p, (0.5,))
        assert out.coeffs == (((0,), 4.0),)

    def test_spec_harmonic_example(self):
        assert apply_bessel(P2_SPEC, GAMMA).is_zero

    def test_radius_squared(self):
        p = EvenPoly.from_terms(2, {(2, 0): 1.0, (0, 2): 1.0})
        out = apply_bessel(p, GAMMA)
        assert out.coeffs == (((0, 0), 12.0),)  # 2n + 4|gamma|

    def test_exponent_one_rejected(self):
        p = EvenPoly.from_terms(2, {(1, 1): 1.0})
        with pytest.raises(ValueError, match="exponent 1"):
            apply_bessel(p, GAMMA)

    def test_matches_finite_differences(self):
        # rel. 1e-6 against the polynomial's local magnitude (the FD stencil
        # cancels values of that size, so an exact-zero target inherits its
        # roundoff scale)
        rng = np.random.default_rng(3)
        for p in b_harmonic_basis(2, 4, GAMMA) + [P2_SPEC,
                                                  EvenPoly.from_terms(2, {(4, 0): 1.0})]:
            bp = apply_bessel(p, GAMMA)
            p_abs = EvenPoly.from_terms(2, {a: abs(c) for a, c in p.coeffs})
            for _ in range(20):
                x = rng.uniform(0.4, 2.0, 2)
                fd = bessel_laplacian_fd(lambda q: eval_poly(p, q), GAMMA, x, h=1e-4)
                ref = eval_poly(bp, x)
                scale = max(1.0, eval_poly(p_abs, x))
                assert abs(fd - ref) <= 1e-6 * max(scale, abs(ref))


class TestBHarmonicBasis:
    def test_k2_span(self):
        basis = b_harmonic_basis(2, 2, GAMMA)
        assert len(basis) == 1
        # spanned ray: (1 + 2 g2) x1^2 - (1 + 2 g1) x2^2 ~ 4 x1^2 - 2 x2^2
        q = basis[0]
        c = q.as_dict()
        assert c[(2, 0)] / c[(0, 2)] == -2

    def test_n1_trivial(self):
        assert b_harmonic_basis(1, 2, (0.5,)) == []

    def test_k4_kernel_dimension_matches_fd_rank(self):
        basis = b_harmonic_basis(2, 4, (0.5, 0.5))
        assert len(basis) == 1
        # independent route: rank of the FD-sampled map on monomials
        monos = [(4, 0), (2, 2), (0, 4)]
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.5, 1.5, (8, 2))
        cols = []
        for alpha in monos:
            p = EvenPoly.from_terms(2, {alpha: 1.0})
            cols.append(
                [bessel_laplacian_fd(lambda q: eval_poly(p, q), (0.5, 0.5), x, 1e-3)
                 for x in pts]
            )
        m = np.array(cols).T
        s = np.linalg.svd(m, compute_uv=False)
        assert np.sum(s > 1e-6 * s[0]) == 2  # rank 2 -> kernel dim 1

    def test_images_are_exactly_zero(self):
        for gam, k in ((GAMMA, 2), (GAMMA, 4), ((0.5, 0.5), 4), ((1.0, 1.0), 4)):
            for p in b_harmonic_basis(2, k, gam):
                assert apply_bessel(p, gam).coeffs == ()

    @given(st.data())
    @settings(max_examples=40)
    def test_exact_over_gamma_range(self, data):
        # the README's range: every gamma_i > 0 (drawn in [0.05, 5]), n <= 3 here
        n = data.draw(st.sampled_from([1, 2, 3]))
        draw_point = lambda lo, hi: tuple(
            data.draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))
        gam = draw_point(0.05, 5.0)
        for k, dim in ((2, n - 1), (4, n * (n - 1) // 2)):
            basis = b_harmonic_basis(n, k, gam)
            assert len(basis) == dim
            for p in basis:
                assert apply_bessel(p, gam).coeffs == ()
        plan = build_shift_plan(gam, 24)
        one = lambda p: np.ones(p.shape[:-1])
        x, y = draw_point(0.1, 3.0), draw_point(0.1, 3.0)
        assert abs(shift(plan, one, x, y, adaptive=False) - 1.0) < 1e-12

    def test_even_degree_required(self):
        with pytest.raises(ValueError):
            b_harmonic_basis(2, 3, GAMMA)
        with pytest.raises(ValueError):
            b_harmonic_basis(2, 0, GAMMA)

    def test_orthogonal_to_constants_on_weighted_sphere(self, sphere96):
        for k in (2, 4):
            for p in b_harmonic_basis(2, k, GAMMA):
                mean = float(sphere96.weights @ eval_poly(p, sphere96.nodes))
                scale = float(sphere96.weights @ np.abs(eval_poly(p, sphere96.nodes)))
                assert abs(mean) < 1e-10 * scale
