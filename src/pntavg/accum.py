"""Compensated (Neumaier) summation.

Prefix sums of the error series are differenced later, so the running
sums must stay accurate to a few ulps regardless of length.  Plain
np.cumsum loses that; Kahan drops low-order bits when the increment
exceeds the running sum, Neumaier's variant (ZAMM 54, 1974) does not.
np.add.accumulate adds strictly left to right, so the vectorised pass
below does the scalar loop's operations in its order, bit for bit, and
a split of the values, with the state (s, c) carried across it, moves none.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 14  # elements per vectorised block; bounds the temporaries


def neumaier_fold(values, state=(0.0, 0.0), out: np.ndarray | None = None):
    """Carry the running sum and compensation state = (s, c) over values
    and return the new state; the sum so far is s + c.  Unless out is None,
    out[i] receives the sum through values[i].  out may be values itself:
    each block is read before its slice of out is written."""
    values = np.asarray(values, dtype=float)
    s, c = state
    for lo in range(0, len(values), _BLOCK):
        x = values[lo : lo + _BLOCK]
        t = np.add.accumulate(np.concatenate(([s], x)))
        prev, t = t[:-1], t[1:]
        err = np.where(np.abs(prev) >= np.abs(x), (prev - t) + x, (x - t) + prev)
        comp = np.add.accumulate(np.concatenate(([c], err)))[1:]
        if out is not None:
            np.add(t, comp, out=out[lo : lo + len(x)])
        s, c = t[-1], comp[-1]
    return s, c


def neumaier_prefix_sum(values: np.ndarray) -> np.ndarray:
    """Running compensated sums, a new array: out[i] = sum(values[: i + 1])."""
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    neumaier_fold(values, out=out)
    return out


def neumaier_sum(values) -> float:
    """Sum of an array or sequence of floats with Neumaier compensation."""
    s, c = neumaier_fold(values)
    return float(s + c)
