"""Spherical mean transforms of radial and single-harmonic functions in odd
dimensions: exact range identities, forward evaluation, range tests, spectral
cross-checks, inversion, and unique-continuation counterexamples."""

__version__ = "0.1.0"

from .exactmath import (
    binom,
    coeff_C,
    identity_sweeps,
    verify_Cj_closed_form,
    verify_abel_aigner,
    verify_dp_expansion,
    verify_gamma_contour,
    verify_lemma35a,
    verify_lemma35b,
    verify_necessity_identity,
)
from .inverse import InversionConfig, InversionResult, invert_radial
from .rangecheck import (
    RangeReport,
    SampledH,
    general_range_check,
    range_residual,
)
from .specfun import (
    Jet,
    bessel_zero,
    d_operator,
    dp_cosc,
    dp_sinc,
    sph_bessel_j,
)
from .spectral import (
    bessel_zero_vanishing,
    cross_product_terms,
    hankel,
    hankel_h,
    mk_residual,
)
from .transform import (
    DEFAULT_QUAD,
    BumpProfile,
    DerivativeProfile,
    Dimension,
    HarmonicForwardData,
    QuadratureRule,
    SmtProfile,
)
from .ucp import UcpSpec, build_counterexample, verify_counterexample

__all__ = [
    "__version__",
    "binom", "coeff_C", "identity_sweeps",
    "verify_Cj_closed_form", "verify_abel_aigner", "verify_dp_expansion",
    "verify_gamma_contour", "verify_lemma35a", "verify_lemma35b",
    "verify_necessity_identity",
    "InversionConfig", "InversionResult", "invert_radial",
    "RangeReport", "SampledH", "general_range_check", "range_residual",
    "Jet", "bessel_zero", "d_operator", "dp_cosc", "dp_sinc", "sph_bessel_j",
    "bessel_zero_vanishing", "cross_product_terms",
    "hankel", "hankel_h", "mk_residual",
    "DEFAULT_QUAD", "BumpProfile", "DerivativeProfile", "Dimension",
    "HarmonicForwardData", "QuadratureRule", "SmtProfile",
    "UcpSpec", "build_counterexample", "verify_counterexample",
]
