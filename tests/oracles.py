"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the production code paths: psi comes
from big-integer lcm, primality from trial division or a linear
smallest-prime-factor sieve, iterated averages from literal nested sums
over the raw error values, the explicit-formula constants from mpmath's
zeta, 6-decimal formatting from numpy's Dragon4, binomial columns from a
list of exact integers, the series psi-tilde from scalar Neumaier passes
over that column, psi and theta at one x from one unblocked pass over
every Lambda value, the binomial weights of the Lambda-weighted sums from
exact Fractions, the Perron kernel integral from mpmath quadrature over
the whole segment and from float Gauss-Legendre panels, its gap from
mpmath's Tricomi U (a != 1) and atan (a = 1), and the truncated zero sum
from a scalar cmath loop.
"""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np

from pntavg._args import check_int
from pntavg.averaging import MAX_ORDER


def psi_lcm_at(points) -> dict[int, float]:
    """log lcm(1..n) for each n in points, from one incremental pass of
    exact big-integer lcm.

    The log is taken at 128 bits: rounding the lcm to that width moves
    its log by about 2^-128, far below float64 resolution.
    """
    out = {}
    lcm, m = 1, 1
    for n in sorted(set(int(p) for p in points)):
        while m < n:
            m += 1
            lcm = math.lcm(lcm, m)
        with mpmath.workprec(128):
            out[n] = float(mpmath.log(lcm))
    return out


def psi_lcm(n: int) -> float:
    """log lcm(1..n)."""
    return psi_lcm_at([n])[n]


def psi_lcm_all(n_max: int) -> list[float]:
    """psi_lcm for every n in 1..n_max; out[n] = log lcm(1..n), out[0] unused."""
    psi = psi_lcm_at(range(1, n_max + 1))
    return [0.0] + [psi[n] for n in range(1, n_max + 1)]


def explicit_formula_limit(xs) -> np.ndarray:
    """M(x), the limit of rbar(x) + zero_sum(x, T, 1) as T -> infinity.

    From sum_{m <= x} psi(m) = psi_1(x) + psi(x), where
    psi_1(x) = int_0^x psi(t) dt, and Ingham's explicit formula

        psi_1(x) = x^2/2 - sum_rho x^(rho+1) / (rho (rho+1))
                   - x log(2 pi) + (zeta'/zeta)(-1) + O(1/x),

    dividing by x and subtracting (x+1)/2 leaves, at integer x,

        M(x) = 1/2 - log(2 pi) + r(x)/x + (zeta'/zeta)(-1)/x + O(x^-2)

    with r(x) = psi(x) - x.  psi comes from psi_lcm_at and both
    constants from mpmath, not from pntavg.
    """
    xs = [int(x) for x in xs]
    psi = psi_lcm_at(xs)
    with mpmath.workdps(30):
        const = float(mpmath.mpf(1) / 2 - mpmath.log(2 * mpmath.pi))
        zeta_log_deriv = float(mpmath.zeta(-1, derivative=1) / mpmath.zeta(-1))
    return np.array([const + (psi[x] - x) / x + zeta_log_deriv / x for x in xs])


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def nested_average(r, k: int, n: int) -> float:
    """Literal nested-sum evaluation of the k-fold average at n.

    r is indexed so r[m] is the error at m.  O(n^k) by memoized prefix
    sums would defeat the purpose; this recurses on the definition.
    """
    def s(level: int, upper: int) -> float:
        if level == 0:
            return r[upper]
        return math.fsum(s(level - 1, m) for m in range(1, upper + 1))

    return s(k, n) / math.comb(n + k - 1, k)


def binom_weight_average(r, k: int, n: int) -> float:
    """Single-sum form with exact rational weights."""
    total = Fraction(0)
    acc = 0.0
    for m in range(1, n + 1):
        w = Fraction(math.comb(n + k - m - 1, k - 1), math.comb(n + k - 1, k))
        acc += float(w) * r[m]
        total += w
    assert total == 1
    return acc


# -- exact rational binomial weights ----------------------------------------
#
# Three families of binomial-coefficient ratios express the averaged error
# and its differences as weighted sums of Lambda:
#
#     a(i, n, j) = C(n+i-j, i) / C(n+i-1, i)                    psi_i
#     b(i, n, j) = (j-1) * C(n+i-1-j, i-1) / C(n+i-1, i+1)      psi-hat_i (n >= 2)
#     h(i, n, j) = C(n+i-2-j, i-2) * C(j, 2) / C(n+i-1, i)      psi-tilde_i (i >= 2)
#
# Each weight is one exact Fraction of math.comb values, as written above.
# math.comb(m, k) multiplies k small factors and never forms m!, so at
# order i the integers stay near n**i.


def _check_row(n: int, j: int, least_n: int = 1) -> None:
    check_int("n", n, least_n)
    check_int("j", j, 1, n)


def weight_a(i: int, n: int, j: int) -> Fraction:
    check_int("order i", i, 0)
    _check_row(n, j)
    return Fraction(math.comb(n + i - j, i), math.comb(n + i - 1, i))


def weight_b(i: int, n: int, j: int) -> Fraction:
    check_int("order i", i, 1)
    _check_row(n, j, 2)  # C(n+i-1, i+1) = 0 at n = 1
    # int(j): a numpy j would wrap the product at 2**63
    return Fraction(
        (int(j) - 1) * math.comb(n + i - 1 - j, i - 1), math.comb(n + i - 1, i + 1)
    )


def weight_h(i: int, n: int, j: int) -> Fraction:
    check_int("order i", i, 2)
    _check_row(n, j)
    return Fraction(math.comb(n + i - 2 - j, i - 2) * math.comb(j, 2), math.comb(n + i - 1, i))


def row_sum(weight_fn, i: int, n: int) -> Fraction:
    """Exact sum over j = 1..n of weight_fn(i, n, j), the row-n weights at order i."""
    return sum((weight_fn(i, n, j) for j in range(1, n + 1)), Fraction(0))


def neumaier_prefix_loop(values) -> list[float]:
    """Scalar Neumaier loop: out[i] = s + c after values[i], one element at
    a time; the reference for the vectorised accum.neumaier_prefix_sum."""
    out = []
    s = 0.0
    c = 0.0
    for x in values:
        x = float(x)
        t = s + x
        if abs(s) >= abs(x):
            c += (s - t) + x
        else:
            c += (x - t) + s
        s = t
        out.append(s + c)
    return out


def neumaier_whole(values) -> float:
    """s + c of the scalar Neumaier loop over values, from one vectorised
    pass over the whole array with no blocks and no carried state:
    np.add.accumulate adds strictly left to right, so every running sum
    and error term is the loop's."""
    x = np.asarray(values, dtype=float)
    if not len(x):
        return 0.0
    t = np.add.accumulate(x)
    prev = np.concatenate(([0.0], t[:-1]))
    err = np.where(np.abs(prev) >= np.abs(x), (prev - t) + x, (x - t) + prev)
    return float(t[-1] + np.add.accumulate(err)[-1])


def zero_sum_loop(gammas, x: float, T: float, k: int) -> tuple[float, int]:
    """(value, count_used) of zeros.zero_sum from one cmath term per zero,
    summed by the scalar Neumaier loop; the reference for the vectorised
    term pass, which must match it bit for bit."""
    gs = gammas[gammas <= T]
    amp = math.sqrt(x)
    lx = math.log(x)

    def terms():
        for g in gs:
            rho = complex(0.5, g)
            den = rho
            for j in range(1, k + 1):
                den *= rho + j
            yield 2.0 * (amp * cmath.exp(1j * g * lx) / den).real

    prefix = neumaier_prefix_loop(terms())
    return (prefix[-1] if prefix else 0.0), len(gs)


def lambda_spf_loop(n_max: int) -> dict[str, np.ndarray]:
    """Lambda and its prefix sums from a linear smallest-prime-factor sieve
    and a per-n classification loop, with scalar Neumaier prefix sums.

    n is a prime power iff repeatedly dividing by spf(n) reaches 1, and n
    is prime iff spf(n) = n.  Returns lam, psi_prefix, theta_prefix,
    pi_prefix and is_prime, 1-indexed with index 0 unused; lam has the
    dtype of sieve.build_lambda_table.
    """
    spf = [0] * (n_max + 1)
    primes = []
    for n in range(2, n_max + 1):
        if spf[n] == 0:
            spf[n] = n
            primes.append(n)
        for p in primes:
            if p > spf[n] or n * p > n_max:
                break
            spf[n * p] = p
    lam = np.zeros(n_max + 1)
    is_prime = np.zeros(n_max + 1, dtype=bool)
    theta_terms = np.zeros(n_max + 1)
    for n in range(2, n_max + 1):
        p = spf[n]
        m = n
        while m % p == 0:
            m //= p
        if m == 1:  # n = p^k
            lam[n] = math.log(p)
            if p == n:
                is_prime[n] = True
                theta_terms[n] = lam[n]
    psi_prefix = np.zeros(n_max + 1)
    psi_prefix[1:] = neumaier_prefix_loop(lam[1:])
    theta_prefix = np.zeros(n_max + 1)
    theta_prefix[1:] = neumaier_prefix_loop(theta_terms[1:])
    pi_prefix = np.cumsum(is_prime).astype(np.int64)
    return {
        "lam": lam,
        "psi_prefix": psi_prefix,
        "theta_prefix": theta_prefix,
        "pi_prefix": pi_prefix,
        "is_prime": is_prime,
    }


def fmt6_dragon4(v: float) -> str:
    """Fixed 6 decimals by numpy's Dragon4: the exact binary value rounded
    half to even, locale independent."""
    return np.format_float_positional(
        v, precision=6, unique=False, fractional=True, trim="k"
    )


def binom_column_comb(n_max: int, k: int, lo: int = 1) -> np.ndarray:
    """float(C(n+k-1, k)) for n = lo..n_max, one list comprehension of exact
    integers."""
    return np.array([float(math.comb(n + k - 1, k)) for n in range(lo, n_max + 1)])


def weighted_psi_tilde_series(lam, i_max: int):
    """An iterator over psi-tilde_2..psi-tilde_i_max for every n of
    lam[n] = Lambda(n) (index 0 unused): order i is i - 1 scalar Neumaier passes over
    C(j, 2) Lambda(j), the numerator sum_j C(n-j+i-2, i-2) C(j, 2) Lambda(j),
    over the math.comb column C(n+i-1, i).  Raises ValueError, before any
    work, unless i_max is an integer in [2, MAX_ORDER]."""
    check_int("order i", i_max, 2, MAX_ORDER)

    def chain(sums):
        for i in range(2, int(i_max) + 1):
            sums = np.array(neumaier_prefix_loop(sums))
            yield np.concatenate(([0.0], sums / binom_column_comb(len(lam) - 1, i)))

    j = np.arange(1, len(lam), dtype=float)
    return chain(j * (j - 1.0) / 2.0 * lam[1:])


def hat_r_formula(avg) -> np.ndarray:
    """hat_r as whole-array numpy formulas, out[0..1] = nan: the reference
    for averaging.hat_r_series."""
    out = np.full(len(avg.values), np.nan)
    out[2:] = (avg.order + 1) * np.diff(avg.values[1:])
    return out


def hat_prime_r_formula(avg) -> np.ndarray:
    """hat_prime_r = (n - 1.0) * step, out[0..1] = nan."""
    out = np.full(len(avg.values), np.nan)
    n = np.arange(2, len(avg.values), dtype=float)
    out[2:] = (n - 1.0) * np.diff(avg.values[1:])
    return out


def tilde_r_formula(avg) -> np.ndarray:
    """tilde_r = diff(n * (n - 1.0) * step) / 2.0, n (n - 1.0) formed first,
    out[0..2] = nan."""
    out = np.full(len(avg.values), np.nan)
    n = np.arange(2, len(avg.values), dtype=float)
    fr = n * (n - 1.0) * np.diff(avg.values[1:])
    out[3:] = np.diff(fr) / 2.0
    return out


def perron_full_segment(a: float, b: float, T: float, k: int) -> complex:
    """(1/2 pi i) int_{b-iT}^{b+iT} k! a^s / (s(s+1)...(s+k)) ds over the
    whole segment, without the conjugate-symmetry shortcut: mpmath's
    tanh-sinh quadrature on 64 equal panels of [-T, T], at 18 digits.
    With s = b + it, ds = i dt, so the integral is (1/2 pi) int f dt."""
    with mpmath.workdps(18):
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        fact = mpmath.factorial(k)

        def f(t):
            s = mpmath.mpc(b, t)
            den = s
            for j in range(1, k + 1):
                den *= s + j
            return fact * mpmath.power(a, s) / den

        value = mpmath.quad(f, mpmath.linspace(-T, T, 65)) / (2 * mpmath.pi)
        return complex(value)


def perron_excess_hyperu(a: float, b: float, T: float, k: int, prec: int) -> float:
    """I - main of the Perron kernel integral for a != 1 from the partial
    fractions, with E1(z) = exp(-z) U(1, 1, z) taken from mpmath's Tricomi
    function, not its exponential integral, at prec bits:

        -(1/pi) sum_j (-1)^j C(k, j) a^(-j) Im E1(-log(a) (b + j + iT))."""
    with mpmath.workprec(prec):
        a, b, T = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(T)
        total = 0
        for j in range(k + 1):
            z = -mpmath.log(a) * mpmath.mpc(b + j, T)
            e1 = mpmath.exp(-z) * mpmath.hyperu(1, 1, z)
            total += (-1) ** j * math.comb(k, j) * a**-j * e1.imag
        return float(-total / mpmath.pi)


def perron_a1_gap(b: float, T: float) -> float:
    """The a = 1, k = 1 gap 1/(pi T) - (1/pi) int_0^T Re[1/(s(s+1))] dt in
    closed form, (1/T - atan((b+1)/T) + atan(b/T)) / pi, with the two atans
    joined by the subtraction formula into atan(T / (T^2 + b (b+1))).  The
    two remaining terms cancel by about T^2, so they are taken at 200 bits
    plus twice the bits of T."""
    with mpmath.workprec(200 + 2 * max(0, math.frexp(T)[1])):
        b, T = mpmath.mpf(b), mpmath.mpf(T)
        return float((1 / T - mpmath.atan(T / (T * T + b * (b + 1)))) / mpmath.pi)


# -- Perron kernel by float Gauss-Legendre panels ----------------------------

_GL_NODES = 16
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_GL_NODES)
_MAX_DOUBLINGS = 10
# an evaluation holds about 1.2 KB per panel, so the cap bounds it near 1.3 GB
_MAX_PANELS = 1 << 20


class QuadratureError(RuntimeError):
    """Refinement did not converge, or needed more than _MAX_PANELS panels."""


def _gl_integral(fn, hi: float, n_panels: int) -> float:
    """(1/pi) int_0^hi fn(t) dt by Gauss-Legendre on n_panels equal panels."""
    if n_panels > _MAX_PANELS:
        raise QuadratureError(f"{n_panels} panels needed, limit is {_MAX_PANELS}")
    edges = np.linspace(0.0, hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _gl_x[None, :]).ravel()
    panels = (fn(t).reshape(-1, _GL_NODES) @ _gl_w) * half
    return math.fsum(panels) / math.pi


def _kernel_upper_half(a: float, b: float, T: float, k: int, n_panels: int) -> float:
    """(1/pi) int_0^T Re[k! a^s / prod(s+j)] dt at s = b + it; the conjugate
    half contributes the same."""
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


def perron_quadrature(a: float, b: float, T: float, k: int) -> tuple[float, float]:
    """(I - main, error estimate) of the Perron kernel integral by panel
    doubling until two evaluations agree well below the error bound.

    Panels start at 4 per oscillation period 2 pi/|log a|, at least 64.  At
    a = 1 and T >= b + 1 the kernel over [0, T] nears the main term and the
    difference cancels, so the tail beyond T is integrated instead.  Raises
    QuadratureError past _MAX_DOUBLINGS doublings or _MAX_PANELS panels.
    """
    if a == 1.0:
        main = 1.0 / (math.pi * T)
        bound = (3.0 * b * b + 3.0 * b + 1.0) / (3.0 * math.pi * T**3)
    else:
        residues = ((-1) ** j * math.comb(k, j) * a**-j for j in range(k + 1))
        main = math.fsum(residues) if a > 1 else 0.0
        bound = a**b * min(1.0 / T, 1.0 / (T * T * abs(math.log(a))))
    target = min(1e-10, max(bound * 1e-3, 1e-14))
    tail = a == 1.0 and T >= b + 1.0
    n = 4 if tail else max(64, int(4.0 * T * abs(math.log(a)) / (2.0 * math.pi)) + 1)

    def evaluate(n_panels):
        if tail:
            return _a1_gap(b, T, n_panels)
        return _kernel_upper_half(a, b, T, k, n_panels)

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
    return (-value if tail else value - main), qerr
