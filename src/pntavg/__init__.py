"""Numerical study of averaged prime-number-theorem errors.

Submodules:

    sieve      von Mangoldt sieve, psi/theta/pi fold, Lambda and r arrays, binary cache
    averaging  iterated averages, weighted Lambda sums, differenced statistics
    zeros      Riemann-zero ingestion and truncated explicit-formula sums
    perron     Perron kernel integral in closed form against its main term and bound
    cli        command-line interface

The names in __all__ are resolved on first access (PEP 562), each loading
only the submodule that defines it, so a command that never reads the zeros
or the Perron integral does not import those modules.
"""

import importlib

__version__ = "0.1.0"

# each exported name and the submodule that defines it
_HOMES = {
    "IteratedAverage": "averaging",
    "RangeSummary": "averaging",
    "iterated_average": "averaging",
    "range_summary": "averaging",
    "PerronResult": "perron",
    "dirichlet_perron_check": "perron",
    "lemma1_error_bound": "perron",
    "perron_integral": "perron",
    "build_lambda_table": "sieve",
    "error_series": "sieve",
    "ZeroSumResult": "zeros",
    "explicit_formula_residual": "zeros",
    "gamma_square_tail": "zeros",
    "load_zeros": "zeros",
    "zero_sum": "zeros",
}

__all__ = list(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
