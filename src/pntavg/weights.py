"""Exact rational binomial weight families.

Three families of binomial-coefficient ratios express the averaged error
and its differences as weighted sums of Lambda:

    A:  a(i, n, j) = C(n+i-j, i) / C(n+i-1, i)
    B:  b(i, n, j) = (j-1) * C(n+i-1-j, i-1) / C(n+i-1, i+1)   (n >= 2)
    H:  h(i, n, j) = C(n+i-2-j, i-2) * C(j, 2) / C(n+i-1, i)   (i >= 2)

Each weight is one exact Fraction of math.comb values, as written above.
math.comb(m, k) multiplies k small factors and never forms m!, so at
order i the integers stay near n**i.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from ._args import check_int


class WeightFamily(enum.Enum):
    A = "a"
    B = "b"
    H = "h"


def _check_row(n: int, j: int, least_n: int = 1) -> None:
    check_int("n", n, least_n)
    check_int("j", j, 1, n)


def weight_a(i: int, n: int, j: int) -> Fraction:
    check_int("order i", i, 0)
    _check_row(n, j)
    return Fraction(comb(n + i - j, i), comb(n + i - 1, i))


def weight_b(i: int, n: int, j: int) -> Fraction:
    check_int("order i", i, 1)
    _check_row(n, j, 2)  # C(n+i-1, i+1) = 0 at n = 1
    # int(j): a numpy j would wrap the product at 2**63
    return Fraction((int(j) - 1) * comb(n + i - 1 - j, i - 1), comb(n + i - 1, i + 1))


def weight_h(i: int, n: int, j: int) -> Fraction:
    check_int("order i", i, 2)
    _check_row(n, j)
    return Fraction(comb(n + i - 2 - j, i - 2) * comb(j, 2), comb(n + i - 1, i))


_EVALUATORS = {
    WeightFamily.A: weight_a,
    WeightFamily.B: weight_b,
    WeightFamily.H: weight_h,
}


@dataclass(frozen=True)
class WeightScheme:
    """A weight family at fixed order i, evaluated exactly."""

    family: WeightFamily
    order: int

    def __post_init__(self):
        # the family's evaluator checks the order; row 2, column 1 is in
        # every family's domain
        _EVALUATORS[self.family](self.order, 2, 1)


def weight(scheme: WeightScheme, n: int, j: int) -> Fraction:
    """Exact weight value for row n, column j (1 <= j <= n)."""
    return _EVALUATORS[scheme.family](scheme.order, n, j)


def row_sum(scheme: WeightScheme, n: int) -> Fraction:
    """Exact sum over j = 1..n of the row-n weights."""
    total = Fraction(0)
    for j in range(1, n + 1):
        total += weight(scheme, n, j)
    return total
