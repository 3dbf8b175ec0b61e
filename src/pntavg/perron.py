"""Numerical verification of the truncated Perron kernel integral.

Evaluates

    I(a, b, T, k) = (1/2*pi*i) * int_{b-iT}^{b+iT} k! a^s / (s(s+1)...(s+k)) ds

by composite Gauss-Legendre panels on the vertical segment, with panel
density tied to the oscillation scale T*|log a|, and compares against the
closed form

    a > 1:  (1 - 1/a)^k          (residues at s = 0, -1, ..., -k)
    a < 1:  0
    a = 1:  1/(pi*T)             (k = 1 only)

together with the error bound a^b * min(1/T, 1/(T^2 |log a|)) for a != 1
and the alternating-tail bound (3b^2 + 3b + 1)/(3 pi T^3) at a = 1, where
for T >= b + 1 the gap is the tail beyond T, integrated without cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from math import comb

import numpy as np

from .accum import neumaier_sum

_GL_NODES = 16
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_NODES)
_MAX_DOUBLINGS = 10
# an evaluation holds about 1.2 KB per panel, so the cap bounds it near 1.3 GB
_MAX_PANELS = 1 << 20


class QuadratureError(RuntimeError):
    """Refinement did not converge, or needed more than _MAX_PANELS panels."""


@dataclass(frozen=True)
class PerronResult:
    a: float
    b: float
    T: float
    k: int
    numeric: float
    main_term: float
    bound: float
    gap: float
    quadrature_error_estimate: float


def _gl_integral(fn, hi: float, n_panels: int) -> float:
    """(1/pi) int_0^hi fn(t) dt by Gauss-Legendre on n_panels equal panels."""
    if n_panels > _MAX_PANELS:
        raise QuadratureError(f"{n_panels} panels needed, limit is {_MAX_PANELS}")
    edges = np.linspace(0.0, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _gl_x[None, :]).ravel()
    panels = (fn(t).reshape(-1, _GL_NODES) @ _gl_w) * half
    return neumaier_sum(panels) / math.pi


def _kernel_upper_half(a: float, b: float, T: float, k: int, n_panels: int) -> float:
    """(1/pi) int_0^T Re[k! a^s / prod(s+j)] dt at s = b + it."""
    scale = float(math.factorial(k)) * a**b

    def integrand(t):
        s = b + 1j * t
        den = s.copy()
        for j in range(1, k + 1):
            den = den * (s + j)
        return (scale * np.exp(1j * t * math.log(a)) / den).real

    return _gl_integral(integrand, T, n_panels)


def _a1_gap(b: float, T: float, n_panels: int) -> float:
    """1/(pi T) minus the k = 1 kernel at a = 1, as (1/pi) int_T^inf h(t) dt:
    the whole line integrates to 0.  h = Re[1/(s(s+1))] + 1/t^2 is summed as
    [(3b^2+3b+1) t^2 + b^2 (b+1)^2] / (t^2 p q), p = b^2 + t^2, q = (b+1)^2 + t^2,
    which has no cancellation; no factor overflows.  Integrated in u = T/t."""

    def integrand(u):
        t = T / u
        t2 = t * t
        p, q = b * b + t2, (b + 1.0) ** 2 + t2
        h = (3.0 * b * b + 3.0 * b + 1.0) / p / q + (b * b / p) * ((b + 1.0) ** 2 / q) / t2
        return h * (t / u)

    return _gl_integral(integrand, 1.0, n_panels)


def residue_main_term(a: float, k: int) -> float:
    """Sum of residues of k! a^s / prod_{j=0}^k (s+j) at s = 0..-k, a > 1.

    Residue at s = -j is (-1)^j C(k, j) a^(-j); the sum telescopes to
    (1 - 1/a)^k.  Computed term by term from the integer coefficients,
    which convert to float exactly.
    """
    acc = 0.0
    for j in range(k + 1):
        acc += float((-1) ** j * comb(k, j)) * a ** (-j)
    return acc


def lemma1_error_bound(a: float, b: float, T: float) -> float:
    """a^b * min(1/T, 1/(T^2 |log a|)); the a = 1 regime is separate."""
    if a <= 0:
        raise ValueError(f"a must be > 0, got {a}")
    if a == 1:
        raise ValueError("a = 1 has a T^-3 error regime; use perron_integral")
    la = abs(math.log(a))
    return a**b * min(1.0 / T, 1.0 / (T * T * la))


def _a1_bound(b: float, T: float) -> float:
    # leading term of the alternating arctan tail; (b + 1)^3 - b^3 expanded,
    # since the difference cancels to 0 for b >= 2^53
    return (3.0 * b * b + 3.0 * b + 1.0) / (3.0 * math.pi * T**3)


def perron_integral(a: float, b: float, T: float, k: int = 1) -> PerronResult:
    """Adaptive evaluation of the kernel integral with closed-form reference.

    The integrand pairs conjugate points, so the numeric value is real by
    construction: only the upper half t in [0, T] is integrated.
    """
    for name, v in (("a", a), ("b", b), ("T", T)):
        if not 0 < v < math.inf:
            raise ValueError(f"{name} must be finite and > 0, got {v}")
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= 6:
        raise ValueError(f"k must be in [1, 6], got {k}")

    if a == 1.0:
        if k != 1:
            raise ValueError("closed form at a = 1 is only available for k = 1")
        main = 1.0 / (math.pi * T)
    else:
        main = residue_main_term(a, k) if a > 1.0 else 0.0
    try:
        bound = _a1_bound(b, T) if a == 1.0 else lemma1_error_bound(a, b, T)
    except ArithmeticError:  # a**b overflows, T**2 or T**3 underflows
        bound = math.nan
    if not 0 < bound < math.inf:
        raise ValueError(
            f"error bound at a = {a}, b = {b}, T = {T} is not positive and finite"
        )

    # keep quadrature error well below the bound being verified
    target = min(1e-10, max(bound * 1e-3, 1e-14))
    # At a = 1 the kernel over [0, T] nears main, and the gap cancels, once T
    # passes the integrand's scales b and b + 1; from there the tail is used.
    tail = a == 1.0 and T >= b + 1.0
    # >= 4 panels per oscillation period 2*pi/|log a|, floor of 64
    n = 4 if tail else max(64, int(4.0 * T * abs(math.log(a)) / (2.0 * math.pi)) + 1)

    evaluate = partial(_a1_gap, b, T) if tail else partial(_kernel_upper_half, a, b, T, k)
    value = evaluate(n)
    for _ in range(_MAX_DOUBLINGS):
        n *= 2
        prev, value = value, evaluate(n)
        qerr = abs(value - prev)
        if qerr < target:
            break
    else:
        raise QuadratureError(
            f"no convergence after {_MAX_DOUBLINGS} doublings ({n} panels, last delta {qerr:.3e})"
        )
    gap, numeric = (value, main - value) if tail else (abs(value - main), value)
    return PerronResult(
        a=a,
        b=b,
        T=T,
        k=k,
        numeric=numeric,
        main_term=main,
        bound=bound,
        gap=gap,
        quadrature_error_estimate=qerr,
    )


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
    xbar = x + 1, evaluated term by term through the kernel quadrature.
    Returns (lhs, rhs, |lhs - rhs|); the gap shrinks like 1/T or faster.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if len(coeffs) > 1000:
        raise ValueError("finite check limited to 1000 coefficients")
    if any(n < 1 for n in coeffs):
        raise ValueError("coefficient indices must be >= 1")
    xbar = x + 1

    # lhs: a(m) m^{-s0} counted once per n in [m, x], i.e. (xbar - m) times
    terms = [c * (m ** (-s0)) * (xbar - m) for m, c in sorted(coeffs.items()) if m <= x]
    lhs = complex(neumaier_sum(t.real for t in terms), neumaier_sum(t.imag for t in terms))

    re_parts = []
    im_parts = []
    for n, c in sorted(coeffs.items()):
        a_ratio = xbar / n
        res = perron_integral(a_ratio, b, T, k=1)
        term = xbar * c * (n ** (-s0)) * res.numeric
        re_parts.append(term.real)
        im_parts.append(term.imag)
    rhs = complex(neumaier_sum(re_parts), neumaier_sum(im_parts))
    return lhs, rhs, abs(lhs - rhs)
