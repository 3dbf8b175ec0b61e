"""Numerical study of averaged prime-number-theorem errors.

Submodules:

    sieve      von Mangoldt sieve, psi/theta/pi fold, Lambda and r arrays, binary cache
    averaging  iterated averages, weighted Lambda sums, differenced statistics
    zeros      Riemann-zero ingestion and truncated explicit-formula sums
    perron     Perron kernel integral in closed form against its main term and bound
    cli        command-line interface
"""

from .averaging import IteratedAverage, RangeSummary, iterated_average, range_summary
from .perron import PerronResult, dirichlet_perron_check, lemma1_error_bound, perron_integral
from .sieve import build_lambda_table, error_series
from .zeros import (
    ZeroSet,
    ZeroSumResult,
    explicit_formula_residual,
    gamma_square_tail,
    load_zeros,
    zero_sum,
)

__version__ = "0.1.0"

__all__ = [
    "IteratedAverage",
    "RangeSummary",
    "iterated_average",
    "range_summary",
    "PerronResult",
    "dirichlet_perron_check",
    "lemma1_error_bound",
    "perron_integral",
    "build_lambda_table",
    "error_series",
    "ZeroSet",
    "ZeroSumResult",
    "explicit_formula_residual",
    "gamma_square_tail",
    "load_zeros",
    "zero_sum",
]
