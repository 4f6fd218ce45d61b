"""Ostrowski numeration, alpha-multiplicative functions, and spectral checks.

Public API re-exported from the submodules:

- cfrac: continued-fraction quotient specs and convergent tables
- numeration: digit strings, truncations, block structure
- alphafun: atom tables, evaluation, twisting
- spectral: correlations, Fourier tables, scale sums, spectrum scans
- harness: check reports, experiments, the verify battery
"""

from .alphafun import (
    AlphaFunction,
    evaluate,
    from_theta,
    load_atoms,
    parse_fn_spec,
    twist,
    values_range,
)
from .cfrac import (
    GOLDEN,
    SILVER,
    ConvergentTable,
    QuotientSpec,
    TailValue,
    alpha_value,
    expand,
    expand_max,
    format_alpha_spec,
    parse_alpha_spec,
    scale_for,
    tail,
)
from .errors import CapError, RangeError, ValidationError
from .harness import (
    CheckReport,
    ExperimentConfig,
    carry_bound_sweep,
    density_formula,
    density_sweep,
    gap_structure_check,
    pseudorandomness_experiment,
    spectrum_experiment,
    verify_all,
)
from .numeration import (
    LONG,
    SHORT,
    BlockIndex,
    DigitString,
    block_counts,
    decode,
    encode,
    psi,
    psi_range,
    sigma,
    sigma_range,
    validate,
    w_sequence,
)
from .spectral import (
    CorrelationProfile,
    FourierTable,
    SpectrumScan,
    correlation,
    correlation_profile,
    cyclic_identity_sweep,
    exponential_sum,
    fejer_check,
    fourier_coeffs,
    large_sieve_check,
    parseval_check,
    quadratic_mean,
    scale_sums,
    spectrum_scan,
    vdc_check,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "CapError", "RangeError", "ValidationError",
    # cfrac
    "QuotientSpec", "ConvergentTable", "TailValue", "GOLDEN", "SILVER",
    "parse_alpha_spec", "format_alpha_spec", "expand", "expand_max",
    "scale_for", "alpha_value", "tail",
    # numeration
    "DigitString", "BlockIndex", "LONG", "SHORT", "encode", "decode",
    "validate", "sigma", "psi", "w_sequence", "block_counts",
    "psi_range", "sigma_range",
    # alphafun
    "AlphaFunction", "from_theta", "twist", "evaluate", "values_range",
    "load_atoms", "parse_fn_spec",
    # spectral
    "CorrelationProfile", "FourierTable", "SpectrumScan", "correlation",
    "correlation_profile", "quadratic_mean", "fourier_coeffs",
    "parseval_check", "cyclic_identity_sweep", "exponential_sum",
    "scale_sums", "spectrum_scan",
    "fejer_check", "large_sieve_check", "vdc_check",
    # harness
    "CheckReport", "ExperimentConfig", "carry_bound_sweep",
    "density_formula", "density_sweep",
    "gap_structure_check", "pseudorandomness_experiment",
    "spectrum_experiment", "verify_all",
]
