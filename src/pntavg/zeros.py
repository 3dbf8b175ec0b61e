"""Riemann-zero ingestion and truncated explicit-formula sums.

Zero ordinates gamma (with rho = 1/2 + i*gamma taken on the critical
line) are read from a plain ASCII file, one positive decimal per line, '#'
comments allowed, by load_zeros into a read-only float64 array, strictly
increasing; every function here takes that array.  The sums evaluated
here are the conjugate-paired truncations

    zero_sum(x, T, k) = sum_{gamma <= T} 2 Re[ x^rho / prod_{j=0}^{k} (rho + j) ]

which bound the averaged psi error when paired with the appropriate
kernel order k in [1, MAX_ORDER], the ceiling _args holds for every layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._args import MAX_ORDER, check_int
from .accum import neumaier_sum


class ZeroFormatError(ValueError):
    """Malformed or mis-ordered zero table."""


@dataclass(frozen=True)
class ZeroSumResult:
    x: float
    T: float
    k: int
    value: float
    count_used: int


def load_zeros(path) -> np.ndarray:
    """The ordinates in the zeros file at path, a read-only float64 array,
    strictly increasing and positive; a file with none gives an empty array
    (all sums are then 0).

    Strict: a line that is not ASCII, holds a digit-group "_", or is not
    a finite ordinate > 0 above the one before, raises ZeroFormatError
    naming path and line.
    """
    gammas: list[float] = []

    def fault(why: str) -> ZeroFormatError:  # the location, built only to raise
        return ZeroFormatError(f"{path}, line {lineno}: {why}")

    # a non-ASCII byte reads as a lone surrogate, which isascii() refuses
    with open(path, encoding="ascii", errors="surrogateescape") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line.isascii():
                raise fault("not ASCII")
            if not line or line.startswith("#"):
                continue
            if "_" in line:  # float() reads "21_022.0" as 21022.0
                raise fault(f"not a number: {line!r}")
            try:
                g = float(line)
            except ValueError as exc:
                raise fault(f"not a number: {line!r}") from exc
            if not math.isfinite(g) or g <= 0:
                raise fault("ordinate must be finite and > 0")
            if gammas and g <= gammas[-1]:
                raise fault(f"ordinates must be strictly increasing ({g} after {gammas[-1]})")
            gammas.append(g)
    arr = np.array(gammas, dtype=float)
    arr.flags.writeable = False
    return arr


def _select(gammas: np.ndarray, T: float) -> np.ndarray:
    if len(gammas) and T > gammas[-1]:
        raise ValueError(
            f"T = {T} exceeds last available ordinate {gammas[-1]:.6f}; "
            "insufficient zero data"
        )
    return gammas[gammas <= T]


def zero_sum(gammas: np.ndarray, x: float, T: float, k: int = 1) -> ZeroSumResult:
    """Conjugate-paired truncated zero sum with kernel order k over the
    ordinates gammas <= T, as load_zeros returns them.

    Terms are accumulated in ascending gamma with compensation; the
    decay 1/gamma^(k+1) makes the order fixed and reproducible.

    All terms are formed in one pass of float array operations that
    spell out CPython's complex product and quotient (Smith's method),
    so each term is bit for bit the scalar
    2 * (sqrt(x) * cmath.exp(1j * gamma * log x) / den).real.
    """
    if not 1 < x < math.inf:
        raise ValueError(f"x must be finite and > 1, got {x}")
    if not 0 <= T < math.inf:
        raise ValueError(f"T must be finite and >= 0, got {T}")
    check_int("k", k, 1, MAX_ORDER)
    gs = _select(gammas, T)
    amp = math.sqrt(x)
    lx = math.log(x)

    # den = rho (rho + 1) ... (rho + k), rho = 1/2 + i gamma
    dr, di = np.full_like(gs, 0.5), gs
    for j in range(1, k + 1):
        br = 0.5 + j
        dr, di = dr * br - di * gs, dr * gs + di * br
    # amp * x^(i gamma); exp of a zero real part is cos + i sin, as in cmath
    e = np.exp(1j * (gs * lx))
    ar, ai = amp * e.real, amp * e.imag
    # real part of (ar + i ai) / den, dividing through by the larger of |dr|, |di|;
    # where() evaluates both branches, so silence the unused branch's overflow
    with np.errstate(all="ignore"):
        big = np.abs(dr) >= np.abs(di)
        ratio = np.where(big, di / dr, dr / di)
        denom = np.where(big, dr + di * ratio, dr * ratio + di)
        qr = np.where(big, (ar + ai * ratio) / denom, (ar * ratio + ai) / denom)
    return ZeroSumResult(x=x, T=T, k=k, value=neumaier_sum(2.0 * qr), count_used=len(gs))


def explicit_formula_residual(avg, gammas: np.ndarray, x: int, T: float) -> float:
    """rbar(x) + zero_sum(x, T, 1).value, the truncation residual.

    Requires a first-order average, an averaging.IteratedAverage read only
    through avg.order == 1 and avg.values, and an integer x in
    [2, len(avg.values) - 1]: an int or a numpy integer.  With T below the
    first ordinate the sum is empty and the residual is just rbar(x).

    As T grows the residual tends not to 0 but to the explicit formula's
    non-oscillatory part

        M(x) = 1/2 - log(2 pi) + r(x)/x + (zeta'/zeta)(-1)/x + O(x^-2),

    with (zeta'/zeta)(-1) = 12 log A - 1 ~= 1.985054 (A the Glaisher
    constant).  It follows from sum_{m <= x} psi(m) = psi_1(x) + psi(x)
    and Ingham's formula for psi_1(x) = int_0^x psi(t) dt, whose terms
    besides the zero sum are x^2/2 - x log(2 pi) + (zeta'/zeta)(-1) +
    O(1/x).
    """
    if avg.order != 1:
        raise ValueError("explicit_formula_residual needs a k = 1 average")
    check_int("x", x, 2, len(avg.values) - 1)
    return float(avg.values[x]) + zero_sum(gammas, float(x), T, 1).value


def gamma_square_tail(gammas: np.ndarray, T: float) -> float:
    """2 * sum over gamma <= T of 1/gamma^2 (conjugate-paired).

    Nondecreasing in T and bounded as T grows; T beyond the data is
    allowed here since missing tail terms only tighten the partial sum.
    """
    if not T >= 0:
        raise ValueError(f"T must be >= 0, got {T}")
    gs = gammas[gammas <= T]
    return 2.0 * neumaier_sum(1.0 / (gs * gs))
