import math
from fractions import Fraction

import numpy as np
import pytest

from pntavg import averaging, sieve
from pntavg.averaging import (
    average_via_weights,
    hat_prime_r,
    hat_r,
    hat_r_series,
    hat_prime_r_series,
    iterated_average,
    range_summary,
    tilde_r,
    tilde_r_series,
    weighted_psi,
    weighted_psi_hat_series,
    weighted_psi_series,
    weighted_psi_tilde_series,
)
from pntavg.weights import WeightFamily, WeightScheme, weight

from oracles import binom_column_comb, binom_weight_average, nested_average, psi_lcm

LOG2 = math.log(2)


def exact_weighted_sum(table, family, i, n, scale=1):
    """sum_j w(i, n, j) Lambda(j) with the exact weights of pntavg.weights,
    each times scale and rounded once, summed by math.fsum."""
    scheme = WeightScheme(family, i)
    return math.fsum(
        float(weight(scheme, n, j) * scale) * table.lam[j] for j in range(1, n + 1)
    )


@pytest.mark.parametrize("k", range(1, 9))
def test_binom_column_bitwise_equals_comb(k):
    for n_max in [*range(51), 100_000]:
        col = averaging._binom_column(n_max, k)
        ref = binom_column_comb(n_max, k)
        assert col.dtype == ref.dtype and col.tobytes() == ref.tobytes(), (n_max, k)


# -- iterated averages ------------------------------------------------------


def test_average_trivial(series_small):
    for k in (1, 2, 3):
        avg = iterated_average(series_small, k)
        assert avg.values[1] == -1.0
    avg = iterated_average(series_small, 1)
    # (r(1) + r(2))/2 = (-1 + (log 2 - 2))/2
    assert avg.values[2] == pytest.approx((-1 + (LOG2 - 2)) / 2, abs=1e-12)


def test_average_matches_nested_sum_oracle(series_small):
    r = series_small.r
    for k in (1, 2, 3):
        avg = iterated_average(series_small, k)
        for n in (1, 2, 3, 7, 50, 300):
            assert abs(avg.values[n] - nested_average(r, k, n)) <= 1e-9, (k, n)


def test_average_via_weights_matches_prefix_form(series_small):
    # a view of the series: bitwise its value, truncated at n or not
    for k in (1, 2, 3):
        avg = iterated_average(series_small, k)
        for n in (1, 2, 17, 100, 1000):
            view = average_via_weights(series_small, k, n)
            assert view == iterated_average(series_small, k, n).values[n] == avg.values[n]


def test_average_via_weights_matches_rational_oracle(series_small):
    r = series_small.r
    for k in (1, 2, 3):
        for n in (2, 30, 300):
            assert average_via_weights(series_small, k, n) == pytest.approx(
                binom_weight_average(r, k, n), abs=1e-10
            )


def test_average_invalid_args(series_small):
    with pytest.raises(ValueError):
        iterated_average(series_small, 0)
    with pytest.raises(ValueError):
        iterated_average(series_small, 9)
    for k in (2.0, 1.5, np.float64(3.0)):  # non-integral orders, even integral floats
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            iterated_average(series_small, k)
    with pytest.raises(ValueError):
        iterated_average(series_small, 1, series_small.n_max + 1)


# -- weighted Lambda sums ---------------------------------------------------


def test_weighted_psi_order_zero(table_small):
    assert weighted_psi(table_small, 0, 10) == pytest.approx(psi_lcm(10), abs=1e-9)
    assert weighted_psi(table_small, 0, 10) == sieve.psi(table_small, 10)


def test_weighted_psi_trivial(table_small):
    assert weighted_psi(table_small, 1, 1) == 0.0


def test_weighted_psi_identity(table_small, series_small):
    # rbar_i(n) = psi_i(n) - (n + i)/(i + 1)
    for i in (1, 2, 3):
        avg = iterated_average(series_small, i)
        for n in (1, 2, 100, 1000, 2000):
            lhs = avg.values[n]
            rhs = weighted_psi(table_small, i, n) - (n + i) / (i + 1)
            assert lhs == pytest.approx(rhs, abs=1e-8), (i, n)


def test_weighted_psi_series_matches_pointwise(table_small):
    for i in (1, 2, 3):
        batch = weighted_psi_series(table_small, i, 500)
        for n in (1, 2, 33, 500):
            assert batch[n] == pytest.approx(
                exact_weighted_sum(table_small, WeightFamily.A, i, n), abs=1e-9
            )
            assert weighted_psi(table_small, i, n) == batch[n]


def test_weighted_psi_hat_series_matches_pointwise(table_small):
    for i in (1, 2, 4):
        batch = weighted_psi_hat_series(table_small, i, 500)
        for n in (2, 3, 33, 500):
            assert batch[n] == pytest.approx(
                exact_weighted_sum(table_small, WeightFamily.B, i, n), abs=1e-9
            )
        assert np.isnan(batch[1])


def test_weighted_psi_tilde_series_matches_pointwise(table_small):
    for i in (2, 3, 5):
        batch = weighted_psi_tilde_series(table_small, i, 500)
        for n in (1, 2, 33, 500):
            assert batch[n] == pytest.approx(
                exact_weighted_sum(table_small, WeightFamily.H, i, n), abs=1e-8
            )


@pytest.mark.parametrize(
    "series_fn", [weighted_psi_series, weighted_psi_hat_series, weighted_psi_tilde_series]
)
def test_weighted_series_range_checked(table_small, series_fn):
    with pytest.raises(ValueError, match="outside table range"):
        series_fn(table_small, 2, table_small.n_max + 1)
    for i in (2.0, 2.5):
        with pytest.raises(ValueError, match="order i must be >= 0"):
            series_fn(table_small, i, 100)


# -- differenced statistics -------------------------------------------------


def test_hat_r_hand_value(series_small):
    avg = iterated_average(series_small, 1)
    # 2*(rbar(2) - rbar(1)) = log 2 - 1 = Lambda(2) - 1
    assert hat_r(avg, 2) == pytest.approx(LOG2 - 1, abs=1e-12)


def test_hat_prime_scaling(series_small):
    # (i+1) * hat_prime = (n-1) * hat
    for i in (1, 2, 3):
        avg = iterated_average(series_small, i)
        for n in (2, 10, 500, 2000):
            assert hat_prime_r(avg, n) * (i + 1) == pytest.approx(
                hat_r(avg, n) * (n - 1), abs=1e-9
            )
        assert hat_prime_r(avg, 2) == pytest.approx(hat_r(avg, 2) / (i + 1), abs=1e-12)


def test_hat_identity_weighted_form(table_small, series_small):
    # hat_r(i, n) = psi-hat_i(n) - 1
    for i in (1, 2, 3, 4, 5):
        avg = iterated_average(series_small, i)
        psi_hat = weighted_psi_hat_series(table_small, i, 2000)
        hat = hat_r_series(avg)
        gap = np.max(np.abs(hat[2:] - (psi_hat[2:] - 1.0)))
        assert gap <= 1e-8, (i, gap)


def test_hat_prime_identity_weighted_form(table_small, series_small):
    # hat_prime_r(i, n) = psi-hat'_i(n) - (n-1)/(i+1)
    for i in (1, 3, 5):
        avg = iterated_average(series_small, i)
        hp = hat_prime_r_series(avg)
        for n in (2, 3, 50, 777, 2000):
            # psi-hat'_i(n) = (n-1)/(i+1) psi-hat_i(n)
            scale = Fraction(n - 1, i + 1)
            psi_hat_prime = exact_weighted_sum(table_small, WeightFamily.B, i, n, scale)
            rhs = psi_hat_prime - (n - 1) / (i + 1)
            assert hp[n] == pytest.approx(rhs, abs=1e-7), (i, n)


def test_tilde_identity_weighted_form(table_small, series_small):
    # tilde_r(i, n) = psi-tilde_i(n) - (n-1)/(i+1)
    for i in (2, 3, 4, 5, 6):
        avg = iterated_average(series_small, i)
        psi_tilde = weighted_psi_tilde_series(table_small, i, 2000)
        tilde = tilde_r_series(avg)
        n = np.arange(3, 2001, dtype=float)
        gap = np.max(np.abs(tilde[3:] - (psi_tilde[3:] - (n - 1) / (i + 1))))
        assert gap <= 1e-7, (i, gap)


def test_tilde_small_n_both_sides(table_small, series_small):
    avg = iterated_average(series_small, 2)
    lhs = tilde_r(avg, 3)
    rhs = exact_weighted_sum(table_small, WeightFamily.H, 2, 3) - (3 - 1) / (2 + 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_scalar_differences_equal_the_difference_formulas(series_small):
    """hat_r, hat_prime_r and tilde_r give, bit for bit, the literal
    differences of rbar_i at n, for every order and every n."""
    for i in range(1, 9):
        avg = iterated_average(series_small, i)
        v = [float(x) for x in avg.values]
        for n in range(2, avg.n_max + 1):
            step = v[n] - v[n - 1]
            assert hat_r(avg, n) == (i + 1) * step, (i, n)
            assert hat_prime_r(avg, n) == (n - 1) * step, (i, n)
            if i >= 2 and n >= 3:
                fr = n * (n - 1) * step - (n - 1) * (n - 2) * (v[n - 1] - v[n - 2])
                assert tilde_r(avg, n) == fr / 2.0, (i, n)
        for fn in (hat_r, hat_prime_r, tilde_r):
            if fn is tilde_r and i < 2:
                continue
            with pytest.raises(ValueError, match="outside average range"):
                fn(avg, avg.n_max + 1)


def test_differences_invalid_args(series_small):
    avg1 = iterated_average(series_small, 1)
    avg2 = iterated_average(series_small, 2)
    with pytest.raises(ValueError):
        hat_r(avg1, 1)
    with pytest.raises(ValueError):
        hat_prime_r(avg1, 1)
    with pytest.raises(ValueError):
        tilde_r(avg1, 5)  # order < 2
    with pytest.raises(ValueError):
        tilde_r(avg2, 2)  # n < 3


# -- range summaries --------------------------------------------------------


def test_range_summary_basic():
    vals = np.array([np.nan, 3.0, -1.0, 2.0, -1.0, 5.0])
    s = range_summary(vals, 1, 5)
    assert (s.min, s.argmin) == (-1.0, 2)  # first attaining index
    assert (s.max, s.argmax) == (5.0, 5)
    assert s.lo == 1 and s.hi == 5


def test_range_summary_constant():
    vals = np.full(10, 2.5)
    s = range_summary(vals, 3, 9)
    assert s.min == s.max == 2.5


def test_range_summary_errors():
    vals = np.arange(5.0)
    with pytest.raises(ValueError):
        range_summary(vals, 3, 2)
    with pytest.raises(ValueError):
        range_summary(vals, 0, 7)
    with pytest.raises(ValueError):
        range_summary(np.array([1.0, np.nan, 2.0]), 0, 2)


def test_rbar3_max_attained_at_1(series_small):
    avg = iterated_average(series_small, 3)
    s = range_summary(avg.values, 1, series_small.n_max)
    assert s.argmax == 1
    assert s.max == -1.0


def test_monotone_range_containment(averages_full):
    # range of rbar_(k+1) inside range of rbar_k, k = 1, 2
    for k in (1, 2):
        outer = range_summary(averages_full[k].values, 1, averages_full[k].n_max)
        inner = range_summary(averages_full[k + 1].values, 1, averages_full[k + 1].n_max)
        assert outer.min <= inner.min and inner.max <= outer.max


def test_concentration_mean(averages_full):
    vals = averages_full[3].values[10_000 : 100_001]
    assert -1.4 <= float(np.mean(vals)) <= -1.0
