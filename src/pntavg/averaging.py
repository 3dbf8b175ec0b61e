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

Every series is one fold chain over a sequence x, divided by a binomial
column (_chain): order k is one compensated pass over order k-1's sums,
fused with the division by C(n+k-1, k), one column block at a time, the
Neumaier state (s, c) carried from block to block.
Each column entry is the exact integer, formed in 32-bit limbs and rounded
once (_binom_column), so it is float(math.comb(n+k-1, k)) bit for bit.
Every order up to a bound comes from one chain, one pass per order.
The chains read the plain arrays of the sieve module, indexed by n:
iterated_averages runs over r = sieve.error_series(lam) and yields
rbar_0 = r, rbar_1..rbar_k, each an IteratedAverage, its order and its
values indexed like r.  It averages every series: psi's Lambda-weighted
averages, psi_i(n) = sum_{j <= n} C(n+i-j, i) Lambda(j) / C(n+i-1, i), are
iterated_averages(neumaier_prefix_sum(lam), i).  weighted_psi_hat_series
runs over (j-1) Lambda(j), a data path disjoint from the prefix sums of r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count, islice
from math import factorial

import numpy as np

from ._args import MAX_ORDER, check_int
from .accum import neumaier_fold

_FACTOR_LIMIT = 1 << 32  # every factor n + j of a binomial column lies below it
_BLOCK = 1 << 13  # n per binomial column block; bounds the limb work arrays
_MASK = np.uint64(0xFFFF_FFFF)  # one 32-bit limb


@dataclass(frozen=True)
class IteratedAverage:
    """values[n] = rbar_order(n) for 1 <= n <= n_max = len(values) - 1
    (index 0 unused), read-only once the average is made."""

    order: int
    values: np.ndarray

    def __post_init__(self):
        self.values.flags.writeable = False


@dataclass(frozen=True)
class RangeSummary:
    lo: int
    hi: int
    min: float
    argmin: int
    max: float
    argmax: int


def _limbs_to_float(limbs: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
    """out[m] = the integer sum_i limbs[i, m] * 2^(32 i), rounded once to the
    nearest float, ties to even.

    limbs holds 32-bit limbs L_i in uint64, at least two of them, and its
    values must ascend with m, so the values whose top non-zero limb is t
    form one contiguous run.  Values below 2^64 convert directly.  On the
    run of t >= 2, a value of bit length 32 t + b, b that of L_t (read from
    np.frexp, exact below 2^32), is rounded in one step: its 64-bit window
    ((L_t << 32 | L_{t-1}) << (32 - b)) | (L_{t-2} >> b) takes in bit 0 a
    sticky bit, set when any bit below the window is, (L_{t-2} << (64 - b))
    | L_{t-3} | ... | L_0, which decides the tie exactly; the uint64 ->
    float64 cast then rounds half to even and ldexp restores the scale
    2^(32 (t - 2) + b).  Every shift count lies in [0, 63].  work is a
    (2, m) uint64 scratch array.
    """
    end = limbs.shape[1]
    for t in range(len(limbs) - 1, 1, -1):
        start = int(np.searchsorted(limbs[t, :end], 1))  # the values here lie below 2^(32 (t + 1))
        run = slice(start, end)
        top, mid, low = limbs[t, run], limbs[t - 1, run], limbs[t - 2, run]
        window, sticky = work[:, run]
        e = np.frexp(top)[1]  # b, per value
        b = e.astype(np.uint64)
        np.left_shift(top, 32, out=window)
        window |= mid
        window <<= np.subtract(32, b, out=sticky)
        window |= np.right_shift(low, b, out=sticky)
        np.left_shift(low, np.subtract(64, b, out=sticky), out=sticky)  # limb t - 2's bits below the window
        sticky |= np.bitwise_or.reduce(limbs[: t - 2, run], axis=0)
        window |= np.minimum(sticky, 1, out=sticky)
        np.ldexp(window, e + 32 * (t - 2), out=out[run])
        end = start
    out[:end] = limbs[1, :end] << 32 | limbs[0, :end]


def max_column_n(k: int) -> int:
    """The largest n at which an average of order k >= 1 has its binomial
    column: the factors n, n+1, ..., n+k-1 of C(n+k-1, k) lie below 2^32,
    so n + k - 1 < 2^32.  Order 0 has no column and no such ceiling."""
    return _FACTOR_LIMIT - int(k)


def _binom_column(k: int, lo: int, hi: int):
    """Yield (n0, col), col[m] = float C(n0 + m + k - 1, k), over n in
    [lo, hi) in consecutive blocks of at most _BLOCK entries.  col is one
    buffer, overwritten by the next block.

    Each entry is exact before its one rounding: n (n+1) ... (n+k-1) is
    formed in 32-bit limbs by k - 1 limb multiplies, divided exactly by k!
    from the top limb down, and rounded once by _limbs_to_float, so col is
    bitwise float(math.comb(n + k - 1, k)) (Knuth, TAOCP vol. 2, 4.3.1).
    Raises ValueError unless every factor n + j lies below 2^32
    (max_column_n), which keeps every limb product below 2^64.
    """
    k = int(k)
    if hi - 1 > max_column_n(k):
        raise ValueError(f"C(n+k-1, k) needs n + k - 1 < 2^32, got n = {hi - 1}, k = {k}")
    d = factorial(k)
    block = min(_BLOCK, max(hi - lo, 0))
    # limb counts after each factor, one bound for every block: j factors
    # below 2^bits multiply to below 2^(j bits); a smaller value's top limbs are 0
    bits = (hi + k - 2).bit_length()
    used = [-(-j * bits // 32) for j in range(k + 1)]
    # one allocation for every block: the limbs, then rows for n, the factor
    # n + j, the limb product t and its carry c
    work = np.zeros((max(2, used[k]) + 4, block), np.uint64)
    col = np.empty(block)
    work[-4] = np.arange(lo, lo + block, dtype=np.uint64)
    for n0 in range(lo, hi, _BLOCK):
        m = min(_BLOCK, hi - n0)
        limbs, (n, f, t, c) = work[:-4, :m], work[-4:, :m]
        limbs[0] = n
        for j in range(1, k):
            np.add(n, j, out=f)
            np.multiply(limbs[0], f, out=t)
            for i in range(1, used[j]):
                np.right_shift(t, 32, out=c)
                np.bitwise_and(t, _MASK, out=limbs[i - 1])
                np.multiply(limbs[i], f, out=t)
                np.add(t, c, out=t)
            if used[j + 1] > used[j]:
                np.right_shift(t, 32, out=limbs[used[j]])
            np.bitwise_and(t, _MASK, out=limbs[used[j] - 1])
        if d > 1:
            c.fill(0)  # the remainder, carried down the limbs
            for i in range(used[k] - 1, -1, -1):
                np.left_shift(c, 32, out=t)
                np.bitwise_or(t, limbs[i], out=t)
                np.floor_divide(t, d, out=limbs[i])
                if i:
                    np.multiply(limbs[i], d, out=c)
                    np.subtract(t, c, out=c)
        _limbs_to_float(limbs[: max(2, used[k])], col[:m], work[-2:, :m])
        yield n0, col[:m]
        np.add(n, _BLOCK, out=n)


def _chain(x: np.ndarray, k_max: int, lift: int = 0):
    """Yield out[n + lift] = S_k(n) / C(n+k+lift-1, k+lift) for k = 1..k_max
    and n = 1..len(x), S_k(n) the k-fold compensated prefix sum of x[:n];
    out[n] for n <= lift is 0.0, or nan when lift is 1.

    Order k is one neumaier_fold pass over order k-1's sums, fused with
    the division: each _binom_column block is folded, the state (s, c)
    carried into the next, and divided.  The first pass writes a new
    array, never x; each later pass overwrites the sums it reads.  No
    order is kept once yielded, so a caller that drops it frees it."""
    sums = x
    for k in range(1, k_max + 1):
        folded = np.empty(len(x)) if sums is x else sums
        out = np.empty(len(x) + lift + 1)
        out[: lift + 1] = np.nan if lift else 0.0
        state = (0.0, 0.0)
        for n0, col in _binom_column(k + lift, 1, len(x) + 1):
            block = slice(n0 - 1, n0 - 1 + len(col))
            state = neumaier_fold(sums[block], state, out=folded[block])
            np.divide(folded[block], col, out=out[n0 + lift : n0 + lift + len(col)])
        sums = folded
        yield out
        del out  # the caller holds the order it drew, and no one else


def iterated_averages(r: np.ndarray, k_max: int):
    """An iterator over rbar_0, rbar_1, ..., rbar_k_max as IteratedAverage,
    each indexed like r = sieve.error_series(lam) and formed when it is
    drawn.  rbar_0 is r itself, zero folds over C(n-1, 0) = 1; the others
    come from one chain, order k's sums one compensated pass over order
    k-1's, so the orders up to k_max cost k_max passes.  Raises
    ValueError, before any work, unless k_max is an integer in
    [0, MAX_ORDER]."""
    check_int("order k", k_max, 0, MAX_ORDER)
    values = chain([r], _chain(r[1:], int(k_max)))
    return map(IteratedAverage, count(), values)


def iterated_average(r: np.ndarray, k: int) -> IteratedAverage:
    """rbar_k(n) for every n of r, the last average of the chain to k,
    each lower order dropped before the next is formed; k = 0 is r.
    Raises ValueError unless k is an integer in [0, MAX_ORDER]."""
    return next(islice(iterated_averages(r, k), k, None))


# -- weighted Lambda sums ---------------------------------------------------


def weighted_psi_hat_series(lam: np.ndarray, i_max: int):
    """An iterator over psi-hat_1..psi-hat_i_max for every n of lam:
    the i-fold prefix sum of (j-1) Lambda(j) over C(n+i-1, i+1), i_max
    passes in all.  Index 1 is nan: C(i, i+1) = 0.  Raises ValueError,
    before any work, unless i_max is an integer in [1, MAX_ORDER]."""
    check_int("order i", i_max, 1, MAX_ORDER)
    # the j = 1 term is 0, so the fold starts at j = 2 and its n-th sum is
    # psi-hat's numerator at n + 1, over C(n+i, i+1): lift 1
    x = np.arange(1, len(lam) - 1, dtype=float)  # j - 1 for j = 2..n_max
    x *= lam[2:]
    return _chain(x, int(i_max), lift=1)


# -- differenced statistics -------------------------------------------------


def _steps(avg: IteratedAverage) -> np.ndarray:
    """out[n] = rbar(n) - rbar(n-1), out[0..1] = nan: the array each
    differenced statistic is formed in."""
    v, out = avg.values, np.full(len(avg.values), np.nan)
    np.subtract(v[2:], v[1:-1], out=out[2:])
    return out


def hat_r_series(avg: IteratedAverage) -> np.ndarray:
    """hat_r for n = 2..n_max; out[n] aligned, out[0..1] = nan."""
    out = _steps(avg)
    out[2:] *= avg.order + 1
    return out


def hat_prime_r_series(avg: IteratedAverage) -> np.ndarray:
    """hat_prime_r for n = 2..n_max; out[0..1] = nan."""
    out = _steps(avg)
    out[2:] *= np.arange(1.0, len(avg.values) - 1)  # n - 1
    return out


def tilde_r_series(avg: IteratedAverage) -> np.ndarray:
    """tilde_r for n = 3..n_max; out[0..2] = nan."""
    check_int("average order", avg.order, 2)
    fr = np.arange(2.0, len(avg.values))  # n
    fr *= fr - 1.0  # n (n - 1), formed before the step multiplies it
    out = _steps(avg)
    fr *= out[2:]
    np.subtract(fr[1:], fr[:-1], out=out[3:])
    out[3:] /= 2.0
    out[:3] = np.nan
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
