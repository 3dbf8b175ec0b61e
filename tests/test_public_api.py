"""The names pntavg exports: each one resolves to an attribute of the
package.  Each is used by a command or a check, except three:
iterated_average and explicit_formula_residual are called only by the
benchmark and the tests, and dirichlet_perron_check by nothing yet."""

import pntavg

PUBLIC = [
    "IteratedAverage",
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
    "range_summary",
    "zero_sum",
]


def test_public_names():
    assert sorted(pntavg.__all__) == PUBLIC
    assert [n for n in PUBLIC if getattr(pntavg, n, None) is None] == []
