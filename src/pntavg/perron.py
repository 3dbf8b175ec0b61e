"""Numerical verification of the truncated Perron kernel integral.

Evaluates

    I(a, b, T, k) = (1/2*pi*i) * int_{b-iT}^{b+iT} k! a^s / (s(s+1)...(s+k)) ds

in closed form and compares it with the residue main terms

    a > 1:  (1 - 1/a)^k          (residues at s = 0, -1, ..., -k)
    a < 1:  0
    a = 1:  1/(pi*T)             (k = 1 only)

against the error bound a^b * min(1/T, 1/(T^2 |log a|)) for a != 1 and the
alternating-tail bound (3b^2 + 3b + 1)/(3 pi T^3) at a = 1.  The a > 1 main
term is computed as ((a - 1)/a)^k: a - 1 is exact near a = 1 (Sterbenz), so
it keeps its digits where the k + 1 residues would cancel.

Partial fractions, k!/(s(s+1)...(s+k)) = sum_j (-1)^j C(k, j)/(s + j),
turn the integral into exponential integrals (DLMF 6.2; Abramowitz and
Stegun 5.1).  With lambda = log a,

    I - main = -(1/pi) sum_{j=0}^{k} (-1)^j C(k, j) a^(-j) Im E1(-lambda (b + j + iT));

for a > 1 the path crosses the cut of E1, whose 2 pi i jump is the residue
sum.  The terms agree to about T^k relative to one another (DLMF 6.12), so
mpmath sums them at 73 + k log2 T bits.  At a = 1 the gap is
(1/pi)(1/T - atan((b+1)/T) + atan(b/T)), at 73 + 2 log2 T bits.  These
precisions are set by the bound.  Where the gap lies many orders below it
(T << 1, |log a| tiny), 32 bits at a time are added, up to _MAX_EXTRA_BITS,
until 32 more move the gap by at most 2^-40 of itself; the error estimate
is that last change of the gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import comb

from ._args import check_int
from .accum import neumaier_sum

_MAX_EXTRA_BITS = 2048


@dataclass(frozen=True)
class PerronResult:
    """gap = |numeric - main_term| is computed directly; numeric is
    main_term plus the signed gap, rounded to float.  At a = 1 numeric is
    main_term - gap rounded, and at b = 1, T = 1e8 |numeric - main_term|
    exceeds the bound while gap does not, so bound checks use gap.
    quadrature_error_estimate is the change of the gap with 32 more bits."""

    a: float
    b: float
    T: float
    k: int
    numeric: float
    main_term: float
    bound: float
    gap: float
    quadrature_error_estimate: float


def _check_positive(**values: float) -> None:
    """Raise ValueError naming the first argument that is not finite and > 0."""
    for name, v in values.items():
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v}")


def _finite_bound(a: float, b: float, T: float, form) -> float:
    """form(), or ValueError naming a, b and T unless it is finite and > 0."""
    try:
        bound = form()
    except ArithmeticError:  # a**b overflows, T**2 or T**3 underflows
        bound = math.nan
    if not 0 < bound < math.inf:
        raise ValueError(
            f"error bound at a = {a}, b = {b}, T = {T} is not positive and finite"
        )
    return bound


def lemma1_error_bound(a: float, b: float, T: float) -> float:
    """a^b * min(1/T, 1/(T^2 |log a|)); the a = 1 regime is separate.
    Raises ValueError where the bound is not a positive finite float."""
    _check_positive(a=a, b=b, T=T)
    if a == 1:
        raise ValueError("a = 1 has a T^-3 error regime; use perron_integral")
    la = abs(math.log(a))
    return _finite_bound(a, b, T, lambda: a**b * min(1.0 / T, 1.0 / (T * T * la)))


def _a1_bound(b: float, T: float) -> float:
    # leading term of the alternating arctan tail; (b + 1)^3 - b^3 expanded,
    # since the difference cancels to 0 for b >= 2^53
    return _finite_bound(
        1.0, b, T, lambda: (3.0 * b * b + 3.0 * b + 1.0) / (3.0 * math.pi * T**3)
    )


def _excess(a: float, b: float, T: float, k: int, extra_bits: int):
    """I - main as an mpmath number, at extra_bits beyond the precision the
    terms' cancellation needs."""
    import mpmath  # imported here so that only Perron evaluations load it

    log2_T = max(0, math.frexp(T)[1])
    with mpmath.workprec(73 + extra_bits + (2 if a == 1.0 else k) * log2_T):
        b, T = mpmath.mpf(b), mpmath.mpf(T)
        if a == 1.0:
            return (mpmath.atan((b + 1) / T) - mpmath.atan(b / T) - 1 / T) / mpmath.pi
        a = mpmath.mpf(a)
        lam = mpmath.log(a)
        # b + j is formed in mpmath: rounded to float, its error is magnified
        # about T^k times by the cancellation between the terms
        terms = [
            (-1) ** j * comb(k, j) * a**-j * mpmath.e1(-lam * mpmath.mpc(b + j, T)).imag
            for j in range(k + 1)
        ]
        return -mpmath.fsum(terms) / mpmath.pi


def perron_integral(a: float, b: float, T: float, k: int = 1) -> PerronResult:
    """The kernel integral in closed form, with its main term and bound."""
    _check_positive(a=a, b=b, T=T)
    check_int("k", k, 1, 6)

    if a == 1.0:
        if k != 1:
            raise ValueError("closed form at a = 1 is only available for k = 1")
        main = 1.0 / (math.pi * T)
    else:
        # int(k): a numpy k would make main and numeric numpy floats
        main = ((a - 1.0) / a) ** int(k) if a > 1.0 else 0.0
    bound = _a1_bound(b, T) if a == 1.0 else lemma1_error_bound(a, b, T)

    extra = 0
    excess, finer = _excess(a, b, T, k, 0), _excess(a, b, T, k, 32)
    while abs(excess - finer) > abs(excess) * 2.0**-40 and extra < _MAX_EXTRA_BITS:
        extra += 32
        excess, finer = finer, _excess(a, b, T, k, extra + 32)
    qerr = float(abs(excess - finer))
    return PerronResult(
        a=a,
        b=b,
        T=T,
        k=k,
        numeric=main + float(excess),
        main_term=main,
        bound=bound,
        gap=float(abs(excess)),
        quadrature_error_estimate=qerr,
    )


def _complex_sum(terms: list) -> complex:
    """Compensated sums of the real and the imaginary parts of terms."""
    return complex(neumaier_sum([t.real for t in terms]), neumaier_sum([t.imag for t in terms]))


def dirichlet_perron_check(
    coeffs: dict[int, float],
    s0: complex,
    b: float,
    T: float,
    x: int,
) -> tuple[complex, complex, float]:
    """Check the partial-sum-of-partial-sums identity for a finite series.

    lhs = F(x, s0) = sum_{n <= x} sum_{m <= n} a(m) m^(-s0) directly;
    rhs = xbar/(2*pi*i) * int A(s + s0) xbar^s/(s(s+1)) ds with
    xbar = x + 1, evaluated term by term through perron_integral.
    Returns (lhs, rhs, |lhs - rhs|); the gap shrinks like 1/T or faster.
    """
    check_int("x", x, 1)
    _check_positive(b=b, T=T)
    if len(coeffs) > 1000:
        raise ValueError("finite check limited to 1000 coefficients")
    for n in coeffs:
        check_int("coefficient index", n, 1)
    xbar = x + 1

    items = sorted(coeffs.items())
    # lhs: a(m) m^{-s0} counted once per n in [m, x], i.e. (xbar - m) times
    lhs = _complex_sum([c * (m ** (-s0)) * (xbar - m) for m, c in items if m <= x])
    rhs = _complex_sum(
        [xbar * c * (n ** (-s0)) * perron_integral(xbar / n, b, T, k=1).numeric for n, c in items]
    )
    return lhs, rhs, abs(lhs - rhs)
