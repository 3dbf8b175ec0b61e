from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pntavg.weights import (
    WeightFamily,
    WeightScheme,
    row_sum,
    weight,
    weight_a,
    weight_b,
    weight_h,
)


def test_a_examples():
    # a(2, 5, 3) = C(4,2)/C(6,2) = 6/15 = 2/5
    assert weight_a(2, 5, 3) == Fraction(2, 5)
    for n, i in [(3, 1), (7, 2), (10, 5)]:
        assert weight_a(i, n, 1) == 1


def test_b_examples():
    assert weight_b(1, 3, 2) == Fraction(1, 3)
    assert weight_b(1, 3, 3) == Fraction(2, 3)
    assert weight_b(1, 3, 1) == 0
    assert row_sum(WeightScheme(WeightFamily.B, 1), 3) == 1


def test_matches_direct_binomials():
    for i, n, j in [(2, 9, 4), (3, 12, 7), (1, 5, 5), (4, 20, 13)]:
        assert weight_a(i, n, j) == Fraction(comb(n + i - j, i), comb(n + i - 1, i))
        assert weight_b(i, n, j) == Fraction(
            (j - 1) * comb(n + i - 1 - j, i - 1), comb(n + i - 1, i + 1)
        )
    for i, n, j in [(2, 9, 4), (3, 12, 7), (5, 20, 13)]:
        assert weight_h(i, n, j) == Fraction(
            comb(n + i - 2 - j, i - 2) * comb(j, 2), comb(n + i - 1, i)
        )


def test_b_rows_sum_to_one_exactly():
    for i in range(1, 6):
        for n in (2, 3, 10, 57, 200, 500):
            assert row_sum(WeightScheme(WeightFamily.B, i), n) == 1, (i, n)


def test_weight_scheme_validation():
    with pytest.raises(ValueError):
        WeightScheme(WeightFamily.H, 1)
    with pytest.raises(ValueError):
        WeightScheme(WeightFamily.B, 0)
    with pytest.raises(ValueError):
        weight(WeightScheme(WeightFamily.A, 2), 5, 6)
    with pytest.raises(ValueError):
        weight(WeightScheme(WeightFamily.A, 2), 5, 0)


@given(
    i=st.integers(min_value=0, max_value=8),
    n=st.integers(min_value=1, max_value=10_000),
    j=st.integers(min_value=1, max_value=10_000),
)
@settings(max_examples=200)
def test_a_weights_in_unit_interval(i, n, j):
    if j > n:
        j = 1 + j % n
    w = weight_a(i, n, j)
    assert 0 <= w <= 1
    assert w == 1 or j > 1 or i == 0


@given(
    i=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=2, max_value=2_000),
)
@settings(max_examples=60)
def test_b_row_normalization(i, n):
    assert row_sum(WeightScheme(WeightFamily.B, i), n) == 1


@given(
    i=st.integers(min_value=2, max_value=6),
    n=st.integers(min_value=1, max_value=5_000),
    j=st.integers(min_value=1, max_value=5_000),
)
@settings(max_examples=200)
def test_h_nonnegative(i, n, j):
    if j > n:
        j = 1 + j % n
    assert weight_h(i, n, j) >= 0


def test_no_overflow_at_large_n():
    # math.comb never forms n!, and the reduced Fraction stays small at n = 1e6
    w = weight_a(8, 1_000_000, 500_000)
    assert 0 < w < 1
    assert w.denominator.bit_length() < 200
