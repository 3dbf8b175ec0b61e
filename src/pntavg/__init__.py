"""Numerical study of averaged prime-number-theorem errors.

Submodules:

    sieve      von Mangoldt sieve, psi/theta/pi, error series, binary cache
    averaging  iterated averages, weighted Lambda sums, differenced statistics
    weights    exact rational binomial weight families
    zeros      Riemann-zero ingestion and truncated explicit-formula sums
    perron     Perron kernel integral in closed form against its main term and bound
    cli        command-line interface
"""

from .averaging import (
    IteratedAverage,
    RangeSummary,
    average_via_weights,
    hat_prime_r,
    hat_r,
    iterated_average,
    range_summary,
    tilde_r,
    weighted_psi,
)
from .perron import PerronResult, dirichlet_perron_check, lemma1_error_bound, perron_integral
from .sieve import (
    ErrorSeries,
    LambdaTable,
    build_lambda_table,
    error_series,
    prime_pi,
    psi,
    theta,
)
from .weights import WeightFamily, WeightScheme, weight
from .zeros import (
    ZeroSet,
    ZeroSumResult,
    explicit_formula_residual,
    gamma_square_tail,
    lambda_factor,
    load_zeros,
    zero_sum,
)

__version__ = "0.1.0"

__all__ = [
    "IteratedAverage",
    "RangeSummary",
    "average_via_weights",
    "hat_prime_r",
    "hat_r",
    "iterated_average",
    "range_summary",
    "tilde_r",
    "weighted_psi",
    "PerronResult",
    "dirichlet_perron_check",
    "lemma1_error_bound",
    "perron_integral",
    "ErrorSeries",
    "LambdaTable",
    "build_lambda_table",
    "error_series",
    "prime_pi",
    "psi",
    "theta",
    "WeightFamily",
    "WeightScheme",
    "weight",
    "ZeroSet",
    "ZeroSumResult",
    "explicit_formula_residual",
    "gamma_square_tail",
    "lambda_factor",
    "load_zeros",
    "zero_sum",
]
