"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the production code paths: psi comes
from big-integer lcm, primality from trial division or a linear
smallest-prime-factor sieve, iterated averages from literal nested sums
over the raw error values, the explicit-formula constants from mpmath's
zeta, 6-decimal formatting from numpy's Dragon4, binomial columns from a
list of exact integers, the Perron kernel integral from mpmath quadrature
over the whole segment, its a = 1 gap from mpmath's atan, and the
truncated zero sum from a scalar cmath loop.
"""

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np


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
    """The LambdaTable arrays from a linear smallest-prime-factor sieve and
    a per-n classification loop, with scalar Neumaier prefix sums.

    n is a prime power iff repeatedly dividing by spf(n) reaches 1, and n
    is prime iff spf(n) = n.  Returns lam, psi_prefix, theta_prefix,
    pi_prefix and is_prime, 1-indexed with index 0 unused, in the dtypes
    of sieve.LambdaTable.
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


def binom_column_comb(n_max: int, k: int) -> np.ndarray:
    """float(C(n+k-1, k)) for n = 1..n_max, one list comprehension of exact
    integers."""
    return np.array([float(math.comb(n + k - 1, k)) for n in range(1, n_max + 1)])


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


def perron_a1_gap(b: float, T: float) -> float:
    """The a = 1, k = 1 gap 1/(pi T) - (1/pi) int_0^T Re[1/(s(s+1))] dt in
    closed form, (1/T - atan((b+1)/T) + atan(b/T)) / pi, at 60 digits, so
    the cancellation between its terms costs nothing for T <= 1e12."""
    with mpmath.workdps(60):
        b, T = mpmath.mpf(b), mpmath.mpf(T)
        return float((1 / T - mpmath.atan((b + 1) / T) + mpmath.atan(b / T)) / mpmath.pi)
