"""Registered test-function corpus shared by the CLI and the verification
suites.  Every entry is Gaussian-localized (or a polynomial times a Gaussian),
so grid truncation error stays far below the verification tolerances; the
suites also check and build their Riesz kernels from `b_harmonic`."""

from __future__ import annotations

from functools import partial

import numpy as np

from .grids import as_gamma
from .polys import EvenPoly, b_harmonic_basis, eval_poly

__all__ = ["corpus_names", "corpus_function", "b_harmonic"]


def _gaussian(scale: float):
    return lambda p: np.exp(-scale * np.sum(p * p, axis=-1))


def b_harmonic(gamma, k: int) -> EvenPoly:
    """The first polynomial of b_harmonic_basis(n, k, gamma)."""
    g = as_gamma(gamma)
    if g.n < 2:
        raise ValueError(f"no B-harmonic degree-{k} polynomials exist for n = 1")
    return b_harmonic_basis(g.n, k, g)[0]


def _harmonic_gaussian(g):
    p_2 = b_harmonic(g, 2)  # built once per callable, not per sampled chunk
    return lambda p: eval_poly(p_2, p) * np.exp(-np.sum(p * p, axis=-1))


_REGISTRY = {
    "gaussian": lambda g: _gaussian(1.0),
    "gaussian-s05": lambda g: _gaussian(0.5),
    "gaussian-s2": lambda g: _gaussian(2.0),
    "b-harmonic-k2": lambda g: partial(eval_poly, b_harmonic(g, 2)),
    "b-harmonic-k4": lambda g: partial(eval_poly, b_harmonic(g, 4)),
    "harmonic-gaussian-k2": _harmonic_gaussian,
}


def corpus_names() -> list:
    return sorted(_REGISTRY)


def corpus_function(name: str, gamma):
    """Callable(points (..., n)) -> values for a registered corpus entry."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown corpus function {name!r}; known: {', '.join(corpus_names())}"
        ) from None
    return factory(as_gamma(gamma))
