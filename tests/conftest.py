import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from bhk.corpus import b_harmonic
from bhk.grids import build_sphere_rule, build_tensor_grid
from bhk.polys import eval_poly
from bhk.report import _b_gauss, _gauss
from bhk.shift import ShiftTruncationWarning, build_shift_plan
from bhk.transform import build_fb_plan

GAMMA = (0.5, 1.5)

# the same examples on every run (derandomize also turns off the example database)
settings.register_profile("bhk", derandomize=True, deadline=None)
settings.load_profile("bhk")


def gauss(p):
    return np.exp(-np.sum(p * p, axis=-1))


def layout_callables(g):
    """The report's n-D test callables, each checked against itself on a
    C-ordered copy of its points: the Gaussian, B e^{-|x|^2} and, for n >= 2,
    P_2 times the Gaussian, P_2 the first B-harmonic polynomial of degree 2."""
    fns = {"gauss": _gauss, "b_gauss": _b_gauss(g, 1.0)}
    if g.n >= 2:
        p2 = b_harmonic(g, 2)
        fns["p2_gauss"] = lambda p: eval_poly(p2, p) * _gauss(p)
    return fns


def planar(fn, seen):
    """fn, recording in seen whether each call's points are axis-major."""
    def recorded(p):
        seen.append(np.moveaxis(p, -1, 0).flags.c_contiguous)
        return fn(p)
    return recorded


def bessel_laplacian_fd(u, gamma, x, h: float = 1e-4) -> float:
    """B u at one point x of shape (n,) by 4th-order finite differences: an
    oracle for apply_bessel that shares none of its algebra.

    On the axis (x_i <= 1e-9) the singular term takes its even limit,
    B_i u -> (1 + 2 gamma_i) d_i^2 u; stencil arguments that cross zero are
    reflected (u is even in each variable).
    """
    x = np.asarray(x, dtype=float)
    u0 = float(u(x))
    total = 0.0
    for i, gi in enumerate(gamma):
        vals = []
        for t in (-2.0, -1.0, 1.0, 2.0):
            y = x.copy()
            y[i] = abs(x[i] + t * h)
            vals.append(float(u(y)))
        um2, um1, up1, up2 = vals
        d2 = (-up2 + 16.0 * up1 - 30.0 * u0 + 16.0 * um1 - um2) / (12.0 * h * h)
        d1 = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * h)
        total += d2 + 2.0 * gi / x[i] * d1 if x[i] > 1e-9 else (1.0 + 2.0 * gi) * d2
    return total


def exact_power_shift(g, m, x, y) -> Fraction:
    """1-D T^y x^{2m} in exact arithmetic, from the product formula
    T^y j(x t) = j(x t) j(y t) matched power by power in t:

        sum_j C(m, j) (g+1/2)_m / ((g+1/2)_j (g+1/2)_{m-j}) x^{2j} y^{2(m-j)}.

    g, x and y are floats (dyadic, so Fraction reads them exactly).
    """
    a = Fraction(g) + Fraction(1, 2)
    poch = [Fraction(1)]
    for i in range(m):
        poch.append(poch[-1] * (a + i))
    x2, y2 = Fraction(x) ** 2, Fraction(y) ** 2
    return sum(math.comb(m, j) * poch[m] / (poch[j] * poch[m - j]) * x2**j * y2 ** (m - j)
               for j in range(m + 1))


@pytest.fixture(scope="session")
def grid96():
    return build_tensor_grid(GAMMA, 8.0, 96)


@pytest.fixture(scope="session")
def fb_plan96(grid96):
    return build_fb_plan(grid96)


@pytest.fixture(scope="session")
def shift_plan():
    return build_shift_plan(GAMMA, 48)


@pytest.fixture(scope="session")
def sphere96():
    return build_sphere_rule(GAMMA, 96)


@pytest.fixture(autouse=True)
def _quiet_truncation_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ShiftTruncationWarning)
        yield
