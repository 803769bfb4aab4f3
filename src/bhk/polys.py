"""Exact-coefficient algebra on homogeneous polynomials: symbolic application
of the Bessel operator

    B x^alpha = sum_i alpha_i (alpha_i - 1 + 2 gamma_i) x^{alpha - 2 e_i},

and construction of B-harmonic polynomials (B P_k = 0) by exact nullspace
computation over rationals.  Coefficients are Fractions (floats, gamma
included, are dyadic, so Fraction(float) is exact): B P_k = 0 holds exactly
for every gamma_i > 0.

B-harmonic construction is restricted to even multi-indices: a monomial with
alpha_i = 1 maps to the non-polynomial term 2 gamma_i x^{alpha - 2 e_i}
(negative exponent), so odd exponents of 1 are rejected rather than dropped.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .grids import as_gamma

__all__ = ["EvenPoly", "eval_poly", "apply_bessel", "b_harmonic_basis"]


@dataclass(frozen=True)
class EvenPoly:
    """Homogeneous polynomial as a multi-index -> Fraction coefficient mapping.

    All stored multi-indices have |alpha| = degree; zero coefficients are not
    stored.  B-harmonic constructions use even multi-indices only.
    """

    n: int
    degree: int
    coeffs: Tuple[Tuple[Tuple[int, ...], Fraction], ...]

    def __post_init__(self):
        if self.n < 1 or self.degree < 0:
            raise ValueError("need n >= 1 and degree >= 0")
        clean = {}
        for alpha, c in self.coeffs:  # a repeated multi-index sums its terms
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.n or any(a < 0 for a in alpha):
                raise ValueError(f"bad multi-index {alpha} for n={self.n}")
            if sum(alpha) != self.degree:
                raise ValueError(
                    f"multi-index {alpha} has degree {sum(alpha)}, expected {self.degree}"
                )
            c = Fraction(c) if isinstance(c, numbers.Rational) else Fraction(float(c))
            clean[alpha] = clean.get(alpha, 0) + c
        object.__setattr__(
            self, "coeffs", tuple(sorted((a, c) for a, c in clean.items() if c))
        )

    @classmethod
    def from_terms(cls, n: int, terms: Dict[Sequence[int], float]) -> "EvenPoly":
        terms = {tuple(a): c for a, c in terms.items() if c != 0}
        if not terms:
            return cls(n, 0, ())
        degs = {sum(a) for a in terms}
        if len(degs) != 1:
            raise ValueError(f"terms are not homogeneous: degrees {sorted(degs)}")
        return cls(n, degs.pop(), tuple(terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def as_dict(self) -> Dict[Tuple[int, ...], Fraction]:
        return dict(self.coeffs)


def eval_poly(p: EvenPoly, x) -> float | np.ndarray:
    """Evaluate sum a_alpha prod x_i^{alpha_i} at points x of shape (..., n)."""
    out = _eval_axes(p, np.moveaxis(np.asarray(x, dtype=float), -1, 0))
    return float(out) if out.ndim == 0 else out


def _eval_axes(p: EvenPoly, coords: Sequence) -> np.ndarray:
    """p at per-axis coordinate arrays that broadcast together, such as an
    open mesh (np.meshgrid(..., sparse=True)); each term is c * prod x_i^a_i
    in axis order, so the values are those of eval_poly on the full points."""
    if len(coords) != p.n:
        raise ValueError(f"point dimension {len(coords)} != n = {p.n}")
    shape = np.broadcast_shapes(*(np.shape(xi) for xi in coords))
    return _sum_terms(p, [{a: xi**a for a in exps}
                          for xi, exps in zip(coords, _axis_exponents(p))], shape)


def _axis_exponents(p: EvenPoly) -> List[List[int]]:
    """Per axis, the distinct nonzero exponents of p's terms, increasing."""
    return [sorted({alpha[i] for alpha, _ in p.coeffs} - {0}) for i in range(p.n)]


def _sum_terms(p: EvenPoly, powers: Sequence, shape) -> np.ndarray:
    """sum_alpha c_alpha prod_{alpha_i > 0} powers[i][alpha_i] as an array of
    the given shape, each term multiplied in axis order.

    powers[i][a] stands for x_i^a: `_eval_axes` passes the powers
    themselves, the shifted mean value check passes T^{y_i} of z^a.
    """
    out = np.zeros(shape)
    for alpha, c in p.coeffs:
        term = float(c)
        for pw, a in zip(powers, alpha):
            if a:
                term = term * pw[a]
        out += term
    return out


def _b_terms(alpha: Tuple[int, ...], gamma: Sequence[Fraction]
             ) -> Iterator[Tuple[Tuple[int, ...], Fraction]]:
    """Terms of B x^alpha: alpha_i (alpha_i - 1 + 2 gamma_i) x^{alpha - 2 e_i}.

    Every gamma_i > 0, so an exponent of 1 leaves the polynomial ring and is
    an error.
    """
    for i, a in enumerate(alpha):
        if a == 1:
            raise ValueError(
                f"monomial {alpha}: exponent 1 on axis {i} maps to the "
                f"non-polynomial term x_{i+1}^(-1) under B"
            )
        if a >= 2:
            yield alpha[:i] + (a - 2,) + alpha[i + 1 :], a * (a - 1 + 2 * gamma[i])


def apply_bessel(p: EvenPoly, gamma) -> EvenPoly:
    """Exact image of the full operator B = sum_i [d_i^2 + (2 gamma_i/x_i) d_i].

    On x^alpha the i-th term contributes alpha_i (alpha_i - 1 + 2 gamma_i)
    x^{alpha - 2 e_i}; a monomial with alpha_i = 1 would leave the polynomial
    ring and is reported as an error.
    """
    g = as_gamma(gamma)
    if g.n != p.n:
        raise ValueError(f"gamma has {g.n} axes, polynomial has {p.n}")
    gfrac = [Fraction(gi) for gi in g]
    out: Dict[Tuple[int, ...], Fraction] = {}
    for alpha, c in p.coeffs:
        for beta, m in _b_terms(alpha, gfrac):
            out[beta] = out.get(beta, 0) + c * m
    return EvenPoly(p.n, max(p.degree - 2, 0), tuple(out.items()))


def _require_b_harmonic(p: EvenPoly, gamma) -> None:
    """Reject p unless apply_bessel(p, gamma) is exactly zero."""
    if not apply_bessel(p, gamma).is_zero:
        raise ValueError("polynomial is not B-harmonic (apply_bessel != 0)")


def _monomials(n: int, k: int) -> List[Tuple[int, ...]]:
    """Degree-k even multi-indices in lexicographic order."""
    return [a for a in itertools.product(range(0, k + 1, 2), repeat=n) if sum(a) == k]


def _nullspace_fractions(rows: List[List[Fraction]], ncols: int) -> List[List[Fraction]]:
    """Exact nullspace basis of a rational matrix via Gauss-Jordan."""
    mat = [row[:] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][fc]
        basis.append(v)
    return basis


def _tidy(vec: List[Fraction]) -> List[int]:
    """Scale a nonzero rational vector to coprime integers, first nonzero > 0."""
    den = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * den) for f in vec]
    g = math.gcd(*ints)
    if next(i for i in ints if i) < 0:
        g = -g
    return [i // g for i in ints]


def b_harmonic_basis(n: int, k: int, gamma) -> List[EvenPoly]:
    """Basis of homogeneous degree-k polynomials annihilated by B.

    The kernel of the coefficient map (degree-k even monomials -> degree-(k-2)
    even monomials) is computed exactly over rationals (floats are dyadic), so
    returned polynomials satisfy apply_bessel(p, gamma) == 0 as an exact
    coefficient map, not just numerically; each is scaled to coprime integer
    coefficients with a positive leading term.  Returns [] when the kernel is
    trivial.
    """
    g = as_gamma(gamma)
    if g.n != n:
        raise ValueError(f"gamma has {g.n} axes, expected {n}")
    if k % 2 or k < 2:
        raise ValueError("B-harmonic basis requires even k >= 2")
    sources = _monomials(n, k)
    tindex = {b: i for i, b in enumerate(_monomials(n, k - 2))}
    gfrac = [Fraction(gi) for gi in g]
    rows = [[Fraction(0)] * len(sources) for _ in tindex]
    for j, alpha in enumerate(sources):
        for beta, m in _b_terms(alpha, gfrac):
            rows[tindex[beta]][j] += m
    return [EvenPoly.from_terms(n, dict(zip(sources, _tidy(vec))))
            for vec in _nullspace_fractions(rows, len(sources))]
