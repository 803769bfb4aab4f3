"""bhk: numerical harmonic analysis for the Laplace-Bessel operator

    B = sum_i [ d^2/dx_i^2 + (2 gamma_i / x_i) d/dx_i ],   gamma_i > 0,

on the positive orthant with the weighted measure dmu_gamma = prod x_i^{2 gamma_i} dx.
Provides the Bessel generalized shift operator and B-convolution, Fourier-Bessel
transforms, B-harmonic polynomials, the weighted-hemisphere mean value formula with
its Pizzetti-type expansion, high-order Riesz-Bessel transforms, and a verification
CLI (`bhk`) that checks the identities numerically.
"""

from .special import gamma, normalized_j, angle_rule, poisson_representation
from .grids import (
    GammaIndex,
    TensorGrid,
    GridFunction,
    SphereRule,
    GridInterpolator,
    build_tensor_grid,
    integrate,
    lp_norm,
    build_sphere_rule,
    hemisphere_measure,
)
from .polys import EvenPoly, eval_poly, apply_bessel, b_harmonic_basis
from .shift import (
    ShiftOperatorPlan,
    ShiftTruncationWarning,
    build_shift_plan,
    shift,
    shift_grid,
    b_convolve,
)
from .transform import (
    FBPlan,
    build_fb_plan,
    fb_forward,
    fb_forward_at,
    fb_inverse,
    gaussian_transform,
    harmonic_gaussian_transform,
    spectral_convolution_factor,
    pv_regularized_limit,
)
from .meanvalue import (
    PizzettiCoefficients,
    sphere_mean,
    mean_value_check,
    shifted_mean_value_check,
    pizzetti_coeffs,
    pizzetti_mean,
    v_sequence,
)
from .riesz import (
    RieszKernel,
    build_riesz_kernel,
    pv_kernel_transform,
    riesz_multiplier,
    riesz_spatial,
    riesz_spectral,
    priori_bound_probe,
    lp_boundedness_probe,
)

__version__ = "0.1.0"
