"""The exact rational weight oracle of tests/oracles.py: hand values, the
b rows summing to 1, the argument checks of each weight family, and the
psi-tilde oracle against the h weights."""

from fractions import Fraction
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import row_sum, weight_a, weight_b, weight_h, weighted_psi_tilde_series


def test_a_examples():
    # a(2, 5, 3) = C(4,2)/C(6,2) = 6/15 = 2/5
    assert weight_a(2, 5, 3) == Fraction(2, 5)
    for n, i in [(3, 1), (7, 2), (10, 5)]:
        assert weight_a(i, n, 1) == 1


def test_b_examples():
    assert weight_b(1, 3, 2) == Fraction(1, 3)
    assert weight_b(1, 3, 3) == Fraction(2, 3)
    assert weight_b(1, 3, 1) == 0
    assert row_sum(weight_b, 1, 3) == 1


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
            assert row_sum(weight_b, i, n) == 1, (i, n)


def test_weight_functions_check_their_arguments():
    for fn, least in ((weight_a, 0), (weight_b, 1), (weight_h, 2)):
        for i in (3.0, True, least - 1):
            with pytest.raises(ValueError, match=f"^order i must be >= {least}, got "):
                fn(i, 5, 2)
    # each family checks the row and column itself
    for j in (6, 0):
        with pytest.raises(ValueError, match=rf"^j must be in \[1, 5\], got {j}$"):
            weight_a(2, 5, j)
    with pytest.raises(ValueError, match=r"^j must be in \[1, 3\], got 5$"):
        weight_h(2, 3, 5)
    for fn, i in ((weight_a, 0), (weight_b, 1), (weight_h, 2)):
        with pytest.raises(ValueError, match=r"^j must be in \[1, 4\], got 5$"):
            fn(i, 4, 5)
        with pytest.raises(ValueError, match="^n must be >= "):
            fn(i, 0, 1)
    for j in (1.5, True, 4):
        with pytest.raises(ValueError, match=r"^j must be in \[1, 3\], got "):
            weight_a(2, 3, j)
    for n in (3.0, True, 0):
        with pytest.raises(ValueError, match="^n must be >= 1, got "):
            weight_a(2, n, 1)
    # family b divides by C(n+i-1, i+1), which is 0 at n = 1
    for i in (1, 2, 5):
        with pytest.raises(ValueError, match="^n must be >= 2, got 1"):
            weight_b(i, 1, 1)
        with pytest.raises(ValueError, match="^n must be >= 2, got 1"):
            row_sum(weight_b, i, 1)
    # a numpy integer gives the int's exact weight, even past 2**63
    assert weight_b(4, np.int64(2_000_000), np.int64(30_000)) == weight_b(4, 2_000_000, 30_000)
    assert weight_h(np.int64(3), np.int64(50), np.int64(7)) == weight_h(3, 50, 7)


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
    assert row_sum(weight_b, i, n) == 1


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


def test_weighted_psi_tilde_series_matches_pointwise(lam_small):
    """psi-tilde_i(n) is sum_j h(i, n, j) Lambda(j), each weight rounded once."""
    for i, batch in enumerate(weighted_psi_tilde_series(lam_small, 5), start=2):
        for n in (1, 2, 33, 500):
            want = fsum(float(weight_h(i, n, j)) * lam_small[j] for j in range(1, n + 1))
            assert batch[n] == pytest.approx(want, abs=1e-8), (i, n)
    assert i == 5
