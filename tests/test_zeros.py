import cmath
import io
import math
import warnings

import numpy as np
import pytest

from pntavg import averaging, sieve, zeros
from pntavg.zeros import (
    ZeroFormatError,
    explicit_formula_residual,
    gamma_square_tail,
    lambda_factor,
    load_zeros,
    zero_sum,
)

from oracles import explicit_formula_limit, zero_sum_loop

GAMMA_1 = 14.134725141734695


# -- parsing ----------------------------------------------------------------


def test_parse_basic():
    z = load_zeros(io.StringIO("14.134725142\n21.022039639\n"))
    assert len(z) == 2
    assert z.gammas[0] == pytest.approx(14.134725142)


def test_parse_empty_stream():
    z = load_zeros(io.StringIO(""))
    assert len(z) == 0
    assert zero_sum(z, 100.0, 50.0).value == 0.0


def test_parse_comments_and_blanks():
    z = load_zeros(io.StringIO("# header\n\n14.1\n\n21.0\n"))
    assert len(z) == 2


def test_parse_rejects_decreasing():
    with pytest.raises(ZeroFormatError):
        load_zeros(io.StringIO("21.0\n14.1\n"))


def test_parse_rejects_garbage():
    with pytest.raises(ZeroFormatError):
        load_zeros(io.StringIO("14.1\nnot-a-number\n"))
    with pytest.raises(ZeroFormatError):
        load_zeros(io.StringIO("-3.0\n"))


def test_dataset_sane(zeros_2000):
    gs = zeros_2000.gammas
    assert len(gs) == 2000
    assert gs[0] == pytest.approx(GAMMA_1, abs=1e-9)
    assert np.all(np.diff(gs) > 0)
    assert gs[0] > 14


# -- zero sums --------------------------------------------------------------


def _oracle_sum_unpaired(gammas, x, k):
    """Separate rho and conjugate(rho) terms, summed via fsum."""
    total = 0j
    for g in gammas:
        for rho in (complex(0.5, g), complex(0.5, -g)):
            den = rho
            for j in range(1, k + 1):
                den *= rho + j
            total += cmath.exp(rho * math.log(x)) / den
    return total


def test_zero_sum_matches_unpaired_oracle(zeros_2000):
    sub = zeros_2000.gammas[:50]
    for x, k in [(1e4, 1), (500.0, 2), (123.0, 3)]:
        paired = zero_sum(zeros_2000, x, float(sub[-1]), k).value
        oracle = _oracle_sum_unpaired(sub, x, k)
        assert abs(oracle.imag) < 1e-12 * max(1.0, abs(oracle.real))
        assert paired == pytest.approx(oracle.real, abs=1e-12 * max(1.0, abs(oracle.real)) + 1e-12)


def test_zero_sum_triangle_bound(zeros_2000):
    x, T, k = 1e4, 100.0, 1
    res = zero_sum(zeros_2000, x, T, k)
    gs = zeros_2000.gammas[zeros_2000.gammas <= T]
    bound = sum(2 * math.sqrt(x) / abs(complex(0.5, g) * complex(1.5, g)) for g in gs)
    assert abs(res.value) <= bound
    assert res.count_used == len(gs)
    # cruder gamma^2 bound with slack
    assert abs(res.value) <= math.sqrt(x) * 2 * sum(1 / (g * g) for g in gs) * 1.5


def test_zero_sum_additive_over_ranges(zeros_2000):
    x = 3000.0
    t1, t2 = 100.0, 500.0
    full = zero_sum(zeros_2000, x, t2).value
    head = zero_sum(zeros_2000, x, t1).value
    mid_gammas = zeros_2000.gammas[
        (zeros_2000.gammas > t1) & (zeros_2000.gammas <= t2)
    ]
    tail = _oracle_sum_unpaired(mid_gammas, x, 1).real
    assert full == pytest.approx(head + tail, abs=1e-12)


def test_zero_sum_bitwise_equals_loop(zeros_2000):
    """The one-pass array form reproduces the scalar cmath loop bit for bit:
    numpy's own complex product and quotient round differently from
    CPython's, so any term formed with them breaks this."""
    gammas = zeros_2000.gammas
    rng = np.random.default_rng(13)
    xs = [float(v) for v in rng.integers(2, 10**7, size=4)]
    xs += [float(v) for v in np.exp(rng.uniform(0.01, math.log(1e7), size=4))]
    Ts = [float(gammas[0]) / 2, float(gammas[0]), 100.0, 1000.0, float(gammas[-1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs:
            for k in range(1, 9):
                for T in Ts:
                    got = zero_sum(zeros_2000, x, T, k)
                    value, count_used = zero_sum_loop(gammas, x, T, k)
                    assert got.value.hex() == value.hex(), (x, T, k)
                    assert got.count_used == count_used


def test_zero_sum_validation(zeros_2000):
    with pytest.raises(ValueError):
        zero_sum(zeros_2000, 0.5, 100.0)
    with pytest.raises(ValueError):
        zero_sum(zeros_2000, 100.0, 1e9)  # beyond data
    for k in (0, 9, 400, 2.0, 1.5):  # outside the orders of iterated_average
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            zero_sum(zeros_2000, 100.0, 100.0, k=k)
    for x, T in [
        (math.nan, 100.0),
        (math.inf, 100.0),
        (100.0, math.nan),
        (100.0, -math.inf),
        (100.0, -1.0),
    ]:
        with pytest.raises(ValueError):
            zero_sum(zeros_2000, x, T)
    # T exactly at an ordinate includes that zero
    gammas = zeros_2000.gammas
    assert zero_sum(zeros_2000, 100.0, float(gammas[0])).count_used == 1
    assert zero_sum(zeros_2000, 100.0, float(gammas[-1])).count_used == 2000
    with pytest.raises(ValueError):
        zero_sum(zeros_2000, 100.0, float(np.nextafter(gammas[-1], np.inf)))


def test_lambda_factor(zeros_2000):
    x, T = 1e4, 200.0
    for i in (1, 2, 3):
        lf = lambda_factor(zeros_2000, x, T, i)
        assert lf == pytest.approx(zero_sum(zeros_2000, x, T, i).value / math.sqrt(x))
    gs = zeros_2000.gammas[zeros_2000.gammas <= T]
    b1 = 2 * sum(1 / abs(complex(0.5, g) * complex(1.5, g)) for g in gs)
    assert abs(lambda_factor(zeros_2000, x, T, 1)) <= b1
    b3 = 2 * sum(1 / g**4 for g in gs) * 1.3
    assert abs(lambda_factor(zeros_2000, x, T, 3)) <= b3
    with pytest.raises(ValueError):
        lambda_factor(zeros_2000, x, T, 4)
    with pytest.raises(ValueError, match=r"\[1, 8\]"):
        lambda_factor(zeros_2000, x, T, 2.0)
    assert lambda_factor(zeros.ZeroSet(np.array([])), x, T, 1) == 0.0


# -- explicit formula residual ---------------------------------------------


def test_residual_empty_sum(zeros_2000, series_small):
    avg = averaging.iterated_average(series_small, 1)
    assert explicit_formula_residual(avg, zeros_2000, 100, 10.0) == avg.values[100]


def test_residual_validation(zeros_2000, series_small):
    avg1 = averaging.iterated_average(series_small, 1)
    avg2 = averaging.iterated_average(series_small, 2)
    with pytest.raises(ValueError):
        explicit_formula_residual(avg2, zeros_2000, 100, 50.0)
    with pytest.raises(ValueError):
        explicit_formula_residual(avg1, zeros_2000, 1, 50.0)
    for x in (100.5, math.nan, math.inf, np.float64(2.25)):
        with pytest.raises(ValueError, match="^x must be an integer"):
            explicit_formula_residual(avg1, zeros_2000, x, 50.0)
    # integral floats and numpy integers index like the int
    want = explicit_formula_residual(avg1, zeros_2000, 100, 50.0)
    for x in (100.0, np.int64(100), np.float64(100.0)):
        assert explicit_formula_residual(avg1, zeros_2000, x, 50.0) == want


def test_residual_spread_shrinks_with_more_zeros(table_full, zeros_2000):
    """Convergence of the truncated formula: the residual's dispersion
    around its limit collapses as the zero cutoff grows."""
    series = sieve.error_series(table_full, 10_000)
    avg = averaging.iterated_average(series, 1)
    xs = np.linspace(1000, 10_000, 100).astype(int)
    spreads = []
    for count in (20, 2000):
        T = float(zeros_2000.gammas[count - 1])
        res = np.array(
            [explicit_formula_residual(avg, zeros_2000, int(x), T) for x in xs]
        )
        spreads.append(float(np.std(res)))
    assert spreads[1] < spreads[0] / 5


def test_residual_limit_matches_explicit_formula(table_full, zeros_2000):
    """At T = gamma_2000 the residual sits on its limit M(x).

    The median of residual - M(x) is about 4e-5.  Without the
    (zeta'/zeta)(-1)/x term of M(x) it is about 6e-4, and without
    1/2 - log(2*pi) about 1.34, so the 2e-4 bound pins both terms.
    """
    series = sieve.error_series(table_full, 10_000)
    avg = averaging.iterated_average(series, 1)
    xs = np.linspace(1000, 10_000, 100).astype(int)
    T = float(zeros_2000.gammas[-1])
    res = np.array([explicit_formula_residual(avg, zeros_2000, int(x), T) for x in xs])
    assert abs(float(np.median(res - explicit_formula_limit(xs)))) <= 2e-4


def test_gamma_square_tail(zeros_2000):
    assert gamma_square_tail(zeros_2000, 0.0) == 0.0
    one = gamma_square_tail(zeros_2000, 15.0)
    assert one == pytest.approx(2 / GAMMA_1**2, rel=1e-9)
    assert gamma_square_tail(zeros_2000, 100.0) <= gamma_square_tail(zeros_2000, 1000.0)
    # bounded: full-data value stays modest
    assert gamma_square_tail(zeros_2000, float(zeros_2000.gammas[-1])) < 0.1
    # T beyond the data keeps every zero; NaN is refused, not read as 0
    assert gamma_square_tail(zeros_2000, math.inf) == gamma_square_tail(
        zeros_2000, float(zeros_2000.gammas[-1])
    )
    for T in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^T must be >= 0"):
            gamma_square_tail(zeros_2000, T)
