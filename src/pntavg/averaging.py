"""Iterated averages of the psi error and their differenced statistics.

For r(n) = psi(n) - n, the k-fold averaged error is

    rbar_k(n) = S_k(n) / C(n+k-1, k)

where S_k is the k-fold prefix sum of r.  Differencing rbar_k in n gives
three derived statistics, each of which also has an equivalent
representation as a binomial-weighted sum over Lambda:

    hat_r(i, n)       = (i+1) * (rbar_i(n) - rbar_i(n-1))       [weights b]
    hat_prime_r(i, n) = (n-1) * (rbar_i(n) - rbar_i(n-1))
    tilde_r(i, n)     = (fr(n) - fr(n-1)) / 2,
                        fr(m) = m*(m-1)*(rbar_i(m) - rbar_i(m-1))  [weights h]

Every series comes from _folded_ratio: compensated prefix passes over a
sequence g, divided by an exact binomial column.  g is r for rbar_k, and
Lambda, (j-1) Lambda(j) or C(j, 2) Lambda(j) for the weighted series psi_i,
psi-hat_i and psi-tilde_i, a data path disjoint from the prefix sums of r.
The scalar forms average_via_weights, weighted_psi, hat_r, hat_prime_r and
tilde_r are views of their series at one point.  The tests check all of these
against the exact weights of pntavg.weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import comb

import numpy as np

from .accum import neumaier_prefix_sum
from .sieve import ErrorSeries, LambdaTable


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


def iterated_average(series: ErrorSeries, k: int, n_max: int | None = None) -> IteratedAverage:
    """k-fold averaged error via k compensated prefix-sum passes.

    Raises ValueError for k outside [1, 8] or n_max beyond the series.
    """
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= 8:
        raise ValueError(f"order k must be in [1, 8], got {k}")
    if n_max is None:
        n_max = series.n_max
    if not 1 <= n_max <= series.n_max:
        raise ValueError(f"n_max = {n_max} outside series range [1, {series.n_max}]")

    values = _folded_ratio(series.r[1 : n_max + 1], k, k)
    values.flags.writeable = False
    return IteratedAverage(k, n_max, values)


def average_via_weights(series: ErrorSeries, k: int, n: int) -> float:
    """Single-point rbar_k(n): a view of iterated_average at n.

    The weighted numerator sum_{m <= n} C(n+k-m-1, k-1) r(m) is the k-fold
    prefix sum of r at n, so the binomial-weighted form and the series
    agree.  Raises what iterated_average raises for n_max = n.
    """
    return float(iterated_average(series, k, n).values[n])


# -- weighted Lambda sums ---------------------------------------------------


def _check_psi_args(table: LambdaTable, i: int, x: int) -> None:
    if not 1 <= x <= table.n_max:
        raise ValueError(f"x = {x} outside table range [1, {table.n_max}]")
    if not isinstance(i, (int, np.integer)) or i < 0:
        raise ValueError(f"order i must be >= 0, got {i}")


def weighted_psi(table: LambdaTable, i: int, x: int) -> float:
    """psi_i(x) = sum_{j <= x} a(i, x, j) Lambda(j); psi_0 = psi.

    A view of weighted_psi_series at x, so it costs O(i * x).
    """
    return float(weighted_psi_series(table, i, x)[x])


def weighted_psi_series(table: LambdaTable, i: int, n_max: int) -> np.ndarray:
    """psi_i(n) for all n <= n_max in O(i * n), via prefix sums of Lambda.

    sum_j C(n+i-j, i) Lambda(j) is the (i+1)-fold prefix sum of Lambda, so
    the whole series costs i+1 compensated passes.  Index 0 unused.
    """
    _check_psi_args(table, i, n_max)
    return _folded_ratio(table.lam[1 : n_max + 1], i + 1, i)


def weighted_psi_hat_series(table: LambdaTable, i: int, n_max: int) -> np.ndarray:
    """psi-hat_i(n) for all n <= n_max: i-fold prefix sum of (j-1) Lambda(j)
    over C(n+i-1, i+1).  Index 1 is nan: C(i, i+1) = 0."""
    _check_psi_args(table, i, n_max)
    if i < 1:
        raise ValueError("psi-hat needs i >= 1")
    # the j = 1 term is 0, so folding from j = 2 gives the same sums, and
    # position m of the fold is n = m + 1
    j = np.arange(2, n_max + 1, dtype=float)
    out = np.full(n_max + 1, np.nan)
    out[2:] = _folded_ratio((j - 1.0) * table.lam[2 : n_max + 1], i, i + 1)[1:]
    return out


def weighted_psi_tilde_series(table: LambdaTable, i: int, n_max: int) -> np.ndarray:
    """psi-tilde_i(n) for all n <= n_max: (i-1)-fold prefix sum of C(j,2) Lambda(j)."""
    _check_psi_args(table, i, n_max)
    if i < 2:
        raise ValueError("psi-tilde needs i >= 2")
    j = np.arange(1, n_max + 1, dtype=float)
    g = j * (j - 1.0) / 2.0 * table.lam[1 : n_max + 1]
    # (i-1)-fold prefix of g gives sum_j C(n-j+i-2, i-2) g(j), exactly the
    # weighted numerator.
    return _folded_ratio(g, i - 1, i)


# -- differenced statistics -------------------------------------------------


def _check_n(avg: IteratedAverage, n: int, lo: int, name: str) -> None:
    if n < lo:
        raise ValueError(f"{name} needs n >= {lo}")
    if n > avg.n_max:
        raise ValueError(f"n = {n} outside average range [{lo}, {avg.n_max}]")


def hat_r(avg: IteratedAverage, n: int) -> float:
    """(i+1) * (rbar_i(n) - rbar_i(n-1)); needs n >= 2.  A view of hat_r_series."""
    _check_n(avg, n, 2, "hat_r")
    return float(hat_r_series(avg)[n])


def hat_prime_r(avg: IteratedAverage, n: int) -> float:
    """(n-1) * (rbar_i(n) - rbar_i(n-1)); needs n >= 2.  A view of
    hat_prime_r_series."""
    _check_n(avg, n, 2, "hat_prime_r")
    return float(hat_prime_r_series(avg)[n])


def tilde_r(avg: IteratedAverage, n: int) -> float:
    """Second difference statistic; needs n >= 3 and order >= 2.  A view of
    tilde_r_series."""
    _check_n(avg, n, 3, "tilde_r")
    return float(tilde_r_series(avg)[n])


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
    if avg.order < 2:
        raise ValueError("tilde_r needs average order >= 2")
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
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    if lo < 0 or hi >= len(values):
        raise ValueError(f"range [{lo}, {hi}] outside array of length {len(values)}")
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
