"""The names pntavg exports: each one resolves to an attribute of the
package, and each one but dirichlet_perron_check, which no command calls
yet, is used by a command or a check."""

import pntavg

PUBLIC = [
    "ErrorSeries",
    "IteratedAverage",
    "LambdaTable",
    "PerronResult",
    "RangeSummary",
    "ZeroSet",
    "ZeroSumResult",
    "build_lambda_table",
    "dirichlet_perron_check",
    "error_series",
    "explicit_formula_residual",
    "gamma_square_tail",
    "iterated_average",
    "lemma1_error_bound",
    "load_zeros",
    "perron_integral",
    "psi",
    "range_summary",
    "zero_sum",
]


def test_public_names():
    assert sorted(pntavg.__all__) == PUBLIC
    assert [n for n in PUBLIC if getattr(pntavg, n, None) is None] == []
