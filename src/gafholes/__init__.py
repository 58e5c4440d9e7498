"""Simulation and certified verification toolkit for hole probabilities of
Gaussian Taylor series on the unit disk.

Submodules
----------
coeffs     coefficient models (hyperbolic, power law, flat, explicit) and
           log-scale series sums
rng        counter-based splittable random streams (bit-exact, order-free)
gaf        truncated series sampling, evaluation, and tail certificates
spectra    circulant covariance spectra on scaled roots of unity and the
           independence-producing splitting
ladder     the certificate kernel: one ladder of certified circle bounds
intervals  binomial confidence intervals (Wilson)
holes      certified hole/zero decisions and the three hole-probability
           estimators (direct, threshold lower bound, tilted lower bound)
oracles    special-function reference values and numerical lemma checkers
envelopes  asymptotic guide curves for -log P[Hole(r)]
cli        command-line interface and the self-verification suite
"""

__version__ = "0.1.0"

from .coeffs import (
    CoefficientModel,
    coefficient,
    coefficients,
    constant_unit,
    explicit,
    hyperbolic,
    is_nonincreasing,
    log_plus_sum,
    power_law,
    sigma_sq,
)
from .envelopes import (
    BoundEnvelope,
    decaying_band,
    flat_band,
    hyperbolic_envelope,
    moment_exponent_certificate,
)
from .gaf import GafSample, evaluate, sample, tail_sup_bound, truncation_degree
from .holes import (
    HoleDecision,
    HoleEstimate,
    default_threshold,
    determinantal_hole_probability,
    estimate_hole_direct,
    estimate_hole_lower_threshold,
    estimate_hole_lower_tilted,
    hole_decision,
    log_determinantal_hole_probability,
    min_modulus_certified,
    wilson_interval,
    winding_number_certified,
)
from .oracles import (
    CheckReport,
    exp_integral_e1,
    gaf_coupling_sample,
    gaussian_coupling_sample,
    log_abs_moment_exact,
    neg_moment_exact,
    neg_moment_quadrature,
    unity_average_defect,
)
from .spectra import (
    CirculantSpectrum,
    SplitModel,
    circulant_eigenvalues,
    covariance_matrix,
    principal_minor_min_eigen,
    split_coefficients,
    split_sample_batch,
    split_variance_gap,
)

__all__ = [
    "__version__",
    "CoefficientModel", "coefficient", "coefficients", "constant_unit",
    "explicit", "hyperbolic", "is_nonincreasing", "log_plus_sum",
    "power_law", "sigma_sq",
    "BoundEnvelope", "decaying_band", "flat_band", "hyperbolic_envelope",
    "moment_exponent_certificate",
    "GafSample", "evaluate", "sample", "tail_sup_bound", "truncation_degree",
    "HoleDecision", "HoleEstimate", "default_threshold",
    "determinantal_hole_probability", "estimate_hole_direct",
    "estimate_hole_lower_threshold", "estimate_hole_lower_tilted",
    "hole_decision", "log_determinantal_hole_probability",
    "min_modulus_certified", "wilson_interval", "winding_number_certified",
    "CheckReport", "exp_integral_e1", "gaf_coupling_sample",
    "gaussian_coupling_sample", "log_abs_moment_exact", "neg_moment_exact",
    "neg_moment_quadrature", "unity_average_defect",
    "CirculantSpectrum", "SplitModel", "circulant_eigenvalues",
    "covariance_matrix", "principal_minor_min_eigen", "split_coefficients",
    "split_sample_batch", "split_variance_gap",
]
