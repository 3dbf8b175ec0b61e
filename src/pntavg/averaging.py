"""Iterated averages of the psi error and their differenced statistics.

For r(n) = psi(n) - n, the k-fold averaged error is

    rbar_k(n) = S_k(n) / C(n+k-1, k)

where S_k is the k-fold prefix sum of r, so rbar_0 = r.  Differencing
rbar_k in n gives three derived statistics, each of which also has an
equivalent representation as a binomial-weighted sum over Lambda:

    hat_r(i, n)       = (i+1) * (rbar_i(n) - rbar_i(n-1))       [weights b]
    hat_prime_r(i, n) = (n-1) * (rbar_i(n) - rbar_i(n-1))
    tilde_r(i, n)     = (fr(n) - fr(n-1)) / 2,
                        fr(m) = m*(m-1)*(rbar_i(m) - rbar_i(m-1))  [weights h]

Every series comes from _folded_ratio: compensated prefix passes over a
sequence g, divided by an exact binomial column.  g is r for rbar_k, and
Lambda, (j-1) Lambda(j) or C(j, 2) Lambda(j) for the weighted series psi_i,
psi-hat_i and psi-tilde_i, a data path disjoint from the prefix sums of r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb

import numpy as np

from ._args import check_int
from .accum import neumaier_prefix_sum
from .sieve import ErrorSeries, LambdaTable

MAX_ORDER = 8


@dataclass(frozen=True)
class IteratedAverage:
    """values[n] = rbar_order(n) for 1 <= n <= n_max (index 0 unused)."""

    order: int
    n_max: int
    values: np.ndarray


@dataclass(frozen=True)
class RangeSummary:
    lo: int
    hi: int
    min: float
    argmin: int
    max: float
    argmax: int


def _binom_column(n_max: int, k: int) -> np.ndarray:
    """float C(n+k-1, k) for n = 1..n_max, exact integers rounded once."""
    return np.fromiter(map(comb, range(k, n_max + k), repeat(k)), float, n_max)


def _folded_ratio(g: np.ndarray, folds: int, k: int) -> np.ndarray:
    """out[n] = (folds-fold compensated prefix sum of g)(n) / C(n+k-1, k)
    for n = 1..len(g); out[0] = 0."""
    for _ in range(folds):
        g = neumaier_prefix_sum(g)
    out = np.zeros(len(g) + 1)
    out[1:] = g / _binom_column(len(g), k)
    return out


def iterated_average(series: ErrorSeries, k: int) -> IteratedAverage:
    """rbar_k(n) for every n in the series via k compensated prefix-sum passes;
    k = 0 is r.  Raises ValueError unless k is an integer in [0, MAX_ORDER]."""
    check_int("order k", k, 0, MAX_ORDER)
    values = _folded_ratio(series.r[1:], k, k)
    values.flags.writeable = False
    return IteratedAverage(k, series.n_max, values)


# -- weighted Lambda sums ---------------------------------------------------


def weighted_psi_series(table: LambdaTable, i: int) -> np.ndarray:
    """psi_i(n) = sum_{j <= n} C(n+i-j, i) Lambda(j) / C(n+i-1, i) for every n
    in the table in O(i * n); psi_0 = psi.

    The numerator is the (i+1)-fold prefix sum of Lambda, so the whole
    series costs i+1 compensated passes.  Index 0 unused.
    """
    check_int("order i", i, 0, MAX_ORDER)
    return _folded_ratio(table.lam[1:], i + 1, i)


def weighted_psi_hat_series(table: LambdaTable, i: int) -> np.ndarray:
    """psi-hat_i(n) for all n in the table: i-fold prefix sum of (j-1) Lambda(j)
    over C(n+i-1, i+1).  Index 1 is nan: C(i, i+1) = 0."""
    check_int("order i", i, 1, MAX_ORDER)
    # the j = 1 term is 0, so folding from j = 2 gives the same sums, and
    # position m of the fold is n = m + 1
    j = np.arange(2, table.n_max + 1, dtype=float)
    out = np.full(table.n_max + 1, np.nan)
    out[2:] = _folded_ratio((j - 1.0) * table.lam[2:], i, i + 1)[1:]
    return out


def weighted_psi_tilde_series(table: LambdaTable, i: int) -> np.ndarray:
    """psi-tilde_i(n) for all n in the table: (i-1)-fold prefix of C(j,2) Lambda(j)."""
    check_int("order i", i, 2, MAX_ORDER)
    j = np.arange(1, table.n_max + 1, dtype=float)
    g = j * (j - 1.0) / 2.0 * table.lam[1:]
    # (i-1)-fold prefix of g gives sum_j C(n-j+i-2, i-2) g(j), exactly the
    # weighted numerator.
    return _folded_ratio(g, i - 1, i)


# -- differenced statistics -------------------------------------------------


def hat_r_series(avg: IteratedAverage) -> np.ndarray:
    """hat_r for n = 2..n_max; out[n] aligned, out[0..1] = nan."""
    out = np.full(avg.n_max + 1, np.nan)
    out[2:] = (avg.order + 1) * np.diff(avg.values[1:])
    return out


def hat_prime_r_series(avg: IteratedAverage) -> np.ndarray:
    """hat_prime_r for n = 2..n_max; out[0..1] = nan."""
    out = np.full(avg.n_max + 1, np.nan)
    n = np.arange(2, avg.n_max + 1, dtype=float)
    out[2:] = (n - 1.0) * np.diff(avg.values[1:])
    return out


def tilde_r_series(avg: IteratedAverage) -> np.ndarray:
    """tilde_r for n = 3..n_max; out[0..2] = nan."""
    check_int("average order", avg.order, 2)
    out = np.full(avg.n_max + 1, np.nan)
    n = np.arange(2, avg.n_max + 1, dtype=float)
    fr = n * (n - 1.0) * np.diff(avg.values[1:])
    out[3:] = np.diff(fr) / 2.0
    return out


def range_summary(values: np.ndarray, lo: int, hi: int) -> RangeSummary:
    """Exact min/max with first-attaining indices over values[lo..hi].

    values is indexed like the series arrays (index = n).  NaN entries
    (undefined leading indices of differenced statistics) are rejected.
    """
    check_int("lo", lo, 0, len(values) - 1)
    check_int("hi", hi, lo, len(values) - 1)
    window = values[lo : hi + 1]
    if np.isnan(window).any():
        raise ValueError("range contains undefined (NaN) entries")
    imin = int(np.argmin(window))
    imax = int(np.argmax(window))
    return RangeSummary(
        lo=lo,
        hi=hi,
        min=float(window[imin]),
        argmin=lo + imin,
        max=float(window[imax]),
        argmax=lo + imax,
    )
