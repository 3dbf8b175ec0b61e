"""Riemann-zero ingestion and truncated explicit-formula sums.

Zero ordinates gamma (with rho = 1/2 + i*gamma taken on the critical
line) are read from plain text, one positive decimal per line, '#'
comments allowed.  The sums evaluated here are the conjugate-paired
truncations

    zero_sum(x, T, k) = sum_{gamma <= T} 2 Re[ x^rho / prod_{j=0}^{k} (rho + j) ]

which bound the averaged psi error when paired with the appropriate
kernel order k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .accum import neumaier_sum
from .averaging import IteratedAverage


class ZeroFormatError(ValueError):
    """Malformed or mis-ordered zero table."""


@dataclass(frozen=True)
class ZeroSet:
    """Strictly increasing positive ordinates, immutable after load."""

    gammas: np.ndarray

    def __len__(self) -> int:
        return len(self.gammas)


@dataclass(frozen=True)
class ZeroSumResult:
    x: float
    T: float
    k: int
    value: float
    count_used: int


def _parse_lines(lines: Iterable[str]) -> list[float]:
    out: list[float] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            g = float(line)
        except ValueError as exc:
            raise ZeroFormatError(f"line {lineno}: not a number: {line!r}") from exc
        if not math.isfinite(g) or g <= 0:
            raise ZeroFormatError(f"line {lineno}: ordinate must be finite and > 0")
        if out and g <= out[-1]:
            raise ZeroFormatError(
                f"line {lineno}: ordinates must be strictly increasing "
                f"({g} after {out[-1]})"
            )
        out.append(g)
    return out


def load_zeros(source: str | IO) -> ZeroSet:
    """Parse a zeros table from a path or an open text stream.

    Strict: any malformed line raises ZeroFormatError.  An empty stream
    yields an empty ZeroSet (all sums are then 0).
    """
    if hasattr(source, "read"):
        gammas = _parse_lines(source)
    else:
        with open(source, "r", encoding="ascii") as f:
            gammas = _parse_lines(f)
    arr = np.asarray(gammas, dtype=float)
    arr.flags.writeable = False
    return ZeroSet(arr)


def _select(zeros: ZeroSet, T: float) -> np.ndarray:
    if len(zeros) and T > zeros.gammas[-1]:
        raise ValueError(
            f"T = {T} exceeds last available ordinate {zeros.gammas[-1]:.6f}; "
            "insufficient zero data"
        )
    return zeros.gammas[zeros.gammas <= T]


def zero_sum(zeros: ZeroSet, x: float, T: float, k: int = 1) -> ZeroSumResult:
    """Conjugate-paired truncated zero sum with kernel order k.

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
    # the orders of iterated_average that the sums pair with
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= 8:
        raise ValueError(f"k must be in [1, 8], got {k}")
    gs = _select(zeros, T)
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


def lambda_factor(zeros: ZeroSet, x: float, T: float, i: int) -> float:
    """Normalized factor lambda_i = zero_sum(x, T, i).value / sqrt(x)."""
    if i not in (1, 2, 3):
        raise ValueError(f"i must be 1, 2 or 3, got {i}")
    return zero_sum(zeros, x, T, i).value / math.sqrt(x)


def explicit_formula_residual(
    avg: IteratedAverage, zeros: ZeroSet, x: int, T: float
) -> float:
    """rbar(x) + zero_sum(x, T, 1).value, the truncation residual.

    Requires a first-order average (avg.order == 1) and an integral
    x >= 2 (an int, numpy integer or integral float).  With T
    below the first ordinate the sum is empty and the residual is just
    rbar(x).

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
    if not (isinstance(x, (int, np.integer)) or float(x).is_integer()):
        raise ValueError(f"x must be an integer, got {x}")
    x = int(x)
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if x > avg.n_max:
        raise ValueError(f"x = {x} outside average range [2, {avg.n_max}]")
    return float(avg.values[x]) + zero_sum(zeros, float(x), T, 1).value


def gamma_square_tail(zeros: ZeroSet, T: float) -> float:
    """2 * sum over gamma <= T of 1/gamma^2 (conjugate-paired).

    Nondecreasing in T and bounded as T grows; T beyond the data is
    allowed here since missing tail terms only tighten the partial sum.
    """
    if not T >= 0:
        raise ValueError(f"T must be >= 0, got {T}")
    gs = zeros.gammas[zeros.gammas <= T]
    return 2.0 * neumaier_sum(1.0 / (gs * gs))
