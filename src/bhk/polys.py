"""Exact-coefficient algebra on homogeneous polynomials: symbolic application
of the Bessel operator

    B x^alpha = sum_i alpha_i (alpha_i - 1 + 2 gamma_i) x^{alpha - 2 e_i},

construction of B-harmonic polynomials (B P_k = 0) by exact nullspace
computation over rationals, and a sampled ellipticity check.  Coefficients
are Fractions (floats, gamma included, are dyadic, so Fraction(float) is
exact): B P_k = 0 holds exactly for every gamma_i > 0.

B-harmonic construction is restricted to even multi-indices: a monomial with
alpha_i = 1 maps to the non-polynomial term 2 gamma_i x^{alpha - 2 e_i}
(negative exponent), so odd exponents of 1 are rejected rather than dropped.
Odd total degree is only reachable through the classical-harmonic flag
(kernel of the plain Laplacian), which exists for the experimental
first-order transforms and carries no multiplier guarantee.
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

__all__ = ["EvenPoly", "eval_poly", "apply_bessel", "b_harmonic_basis", "is_elliptic"]


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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.degree,
            "terms": [{"alpha": list(a), "c": float(c)} for a, c in self.coeffs],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EvenPoly":
        terms = {tuple(t["alpha"]): float(t["c"]) for t in obj["terms"]}
        p = cls.from_terms(int(obj["n"]), terms)
        if p.coeffs and p.degree != int(obj["k"]):
            raise ValueError(f"declared degree {obj['k']} != actual {p.degree}")
        return p


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
    out = np.zeros(np.broadcast_shapes(*(np.shape(xi) for xi in coords)))
    for alpha, c in p.coeffs:
        term = float(c)
        for xi, a in zip(coords, alpha):
            if a:
                term = term * xi**a
        out += term
    return out


def _b_terms(alpha: Tuple[int, ...], gamma: Sequence[Fraction]
             ) -> Iterator[Tuple[Tuple[int, ...], Fraction]]:
    """Terms of B x^alpha: alpha_i (alpha_i - 1 + 2 gamma_i) x^{alpha - 2 e_i}.

    gamma = 0 gives the plain Laplacian, which admits alpha_i = 1; for
    gamma_i > 0 that exponent leaves the polynomial ring and is an error.
    """
    for i, a in enumerate(alpha):
        if a == 1 and gamma[i]:
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


def _monomials(n: int, k: int, even_only: bool) -> List[Tuple[int, ...]]:
    """Degree-k multi-indices in lexicographic order."""
    exps = range(0, k + 1, 2 if even_only else 1)
    return [a for a in itertools.product(exps, repeat=n) if sum(a) == k]


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


def b_harmonic_basis(n: int, k: int, gamma, *, classical_harmonic: bool = False) -> List[EvenPoly]:
    """Basis of homogeneous degree-k polynomials annihilated by B.

    The kernel of the coefficient map (degree-k even monomials -> degree-(k-2)
    even monomials) is computed exactly over rationals (floats are dyadic), so
    returned polynomials satisfy apply_bessel(p, gamma) == 0 as an exact
    coefficient map, not just numerically; each is scaled to coprime integer
    coefficients with a positive leading term.  Returns [] when the kernel is
    trivial.  With classical_harmonic=True the plain Laplacian is used instead
    and odd degrees/monomials are admitted (experimental surface).
    """
    g = as_gamma(gamma)
    if g.n != n:
        raise ValueError(f"gamma has {g.n} axes, expected {n}")
    if not classical_harmonic:
        if k % 2 or k < 2:
            raise ValueError(
                "B-harmonic basis requires even k >= 2 "
                "(odd degrees only via classical_harmonic=True)"
            )
    elif k < 1:
        raise ValueError("degree must be >= 1")
    sources = _monomials(n, k, even_only=not classical_harmonic)
    targets = _monomials(n, k - 2, even_only=not classical_harmonic) if k >= 2 else []
    tindex = {b: i for i, b in enumerate(targets)}
    gfrac = [Fraction(0) if classical_harmonic else Fraction(gi) for gi in g]
    rows = [[Fraction(0)] * len(sources) for _ in targets]
    for j, alpha in enumerate(sources):
        for beta, m in _b_terms(alpha, gfrac):
            rows[tindex[beta]][j] += m
    return [EvenPoly.from_terms(n, dict(zip(sources, _tidy(vec))))
            for vec in _nullspace_fractions(rows, len(sources))]


def _angles_to_point(phi: np.ndarray, n: int) -> np.ndarray:
    """Hyperspherical angles in [0, pi/2]^(n-1) -> point on S_+^{n-1}."""
    theta = np.empty(phi.shape[:-1] + (n,))
    sin_run = np.ones(phi.shape[:-1])
    for j in range(n - 1):
        theta[..., j] = sin_run * np.cos(phi[..., j])
        sin_run = sin_run * np.sin(phi[..., j])
    theta[..., n - 1] = sin_run
    return theta


def is_elliptic(p: EvenPoly, samples: int = 256) -> bool:
    """Sampled sufficient check that P vanishes only at the origin.

    Deterministic low-discrepancy angle sample of the closed positive
    hemisphere, followed by deterministic local minimization of |P| from the
    best candidates; P is scaled to unit max coefficient first.  Not a
    decision procedure: a true minimum below threshold ~1e-9 reports False.
    """
    if samples < 100:
        raise ValueError("is_elliptic requires samples >= 100")
    if p.is_zero:
        return False
    scale = max(abs(c) for _, c in p.coeffs)
    q = EvenPoly(p.n, p.degree, tuple((a, c / scale) for a, c in p.coeffs))

    if p.n == 1:
        return abs(eval_poly(q, np.array([1.0]))) > 1e-9

    d = p.n - 1
    # Kronecker (R_d) sequence on the angle box
    root = 1.0
    for _ in range(40):
        root = (1.0 + root) ** (1.0 / (d + 1))
    alphas = np.array([root ** -(i + 1) for i in range(d)])
    j = np.arange(samples)[:, None]
    phi = ((0.5 + j * alphas) % 1.0) * (0.5 * np.pi)
    vals = np.abs(eval_poly(q, _angles_to_point(phi, p.n)))
    order = np.argsort(vals, kind="stable")

    from scipy.optimize import minimize

    best = float(vals[order[0]])
    for idx in order[:3]:
        res = minimize(
            lambda a: abs(eval_poly(q, _angles_to_point(np.asarray(a), p.n))),
            phi[idx],
            method="Nelder-Mead",
            bounds=[(0.0, 0.5 * np.pi)] * d,
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 400},
        )
        best = min(best, float(res.fun))
    return best > 1e-9
