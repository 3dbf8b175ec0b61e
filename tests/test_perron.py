import itertools
import math
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from pntavg import perron
from pntavg.perron import dirichlet_perron_check, lemma1_error_bound, perron_integral

import oracles
from oracles import perron_a1_gap, perron_excess_hyperu, perron_full_segment


def test_error_bound_values():
    # 2 * min(0.1, 1/(100 log 2))
    assert lemma1_error_bound(2.0, 1.0, 10.0) == pytest.approx(
        2 * min(0.1, 1 / (100 * math.log(2))), rel=1e-12
    )
    assert lemma1_error_bound(math.e, 0.5, 100.0) == pytest.approx(
        math.e**0.5 * 1e-4, rel=1e-12
    )
    # near a = 1 the min saturates at a^b/T
    assert lemma1_error_bound(1.0001, 1.0, 10.0) == pytest.approx(1.0001 / 10, rel=1e-3)
    with pytest.raises(ValueError):
        lemma1_error_bound(1.0, 1.0, 10.0)
    with pytest.raises(ValueError):
        lemma1_error_bound(-2.0, 1.0, 10.0)


@pytest.mark.parametrize("a, b, T", [(2, 1, 1e-200), (2, 1e300, 100), (0.5, 1e300, 100)])
def test_error_bound_refuses_what_is_not_positive_and_finite(a, b, T):
    """T^2 underflows to 0, a^b overflows, a^b underflows to 0: the bound
    called directly raises the ValueError that perron_integral raises."""
    msg = re.escape(f"error bound at a = {a}, b = {b}, T = {T} is not positive and finite")
    with pytest.raises(ValueError, match=f"^{msg}$"):
        lemma1_error_bound(a, b, T)
    with pytest.raises(ValueError, match=f"^{msg}$"):
        perron_integral(a, b, T)


@pytest.mark.parametrize(
    "a, b, T",
    [
        (2, 1, -1),
        (2, 1, 0),
        (math.inf, 1, 10),
        (2, math.nan, 10),
        (0, 1, 10),
        (2, -1.0, -5.0),
    ],
)
def test_bound_and_check_refuse_what_perron_integral_refuses(a, b, T):
    """One check of (a, b, T): the bound, the integral and the Dirichlet
    check each refuse an argument that is not finite and > 0, by name, the
    check even with no coefficients."""
    name, v = next((n, v) for n, v in zip("abT", (a, b, T)) if not 0 < v < math.inf)
    msg = rf"^{name} must be finite and > 0, got {v}$"
    with pytest.raises(ValueError, match=msg):
        lemma1_error_bound(a, b, T)
    with pytest.raises(ValueError, match=msg):
        perron_integral(a, b, T)
    if name != "a":
        with pytest.raises(ValueError, match=msg):
            dirichlet_perron_check({}, 0j, b, T, 3)


def test_residue_main_terms():
    assert perron_integral(2.0, 1.0, 100.0, 1).main_term == pytest.approx(0.5, rel=1e-14)
    assert perron_integral(2.0, 1.0, 100.0, 2).main_term == pytest.approx(0.25, rel=1e-14)
    assert perron_integral(4.0, 1.0, 100.0, 3).main_term == pytest.approx(
        (3 / 4) ** 3, rel=1e-14
    )


@pytest.mark.parametrize(
    "a, k", [(1 + 1e-6, 3), (1.001, 6), (1 + 1e-9, 2), (math.exp(1e-3), 3)]
)
def test_main_term_keeps_its_digits_near_one(a, k):
    # the k + 1 residues (-1)^j C(k, j) a^-j cancel to (1 - 1/a)^k as a -> 1;
    # summed one by one they keep no digits at (1 + 1e-9, 2)
    with mpmath.workprec(200):
        want = float((1 - 1 / mpmath.mpf(a)) ** k)
    assert perron_integral(a, 1.0, 100.0, k).main_term == pytest.approx(want, rel=1e-14, abs=0)


def test_numpy_order_gives_python_floats():
    res = perron_integral(2.0, 1.0, 100.0, np.int64(3))
    assert type(res.main_term) is float and type(res.numeric) is float


def test_kernel_a_above_one():
    res = perron_integral(2.0, 1.0, 1000.0)
    assert res.main_term == pytest.approx(0.5, rel=1e-14)
    assert res.gap <= 2 / 1000.0
    assert res.gap <= res.bound + res.quadrature_error_estimate
    assert isinstance(res.numeric, float)  # real by construction


def test_kernel_a_below_one():
    res = perron_integral(0.5, 1.0, 1000.0)
    assert res.main_term == 0.0
    assert res.gap <= res.bound + res.quadrature_error_estimate


def test_kernel_a_equal_one():
    res = perron_integral(1.0, 1.0, 100.0)
    assert res.main_term == pytest.approx(1 / (100 * math.pi), rel=1e-12)
    assert res.gap <= res.bound + res.quadrature_error_estimate
    # exact value is (arctan(T/b) - arctan(T/(b+1)))/pi
    exact = (math.atan(100.0) - math.atan(50.0)) / math.pi
    assert res.numeric.real == pytest.approx(exact, abs=1e-11)


def test_a1_gap_within_bound_over_T():
    # formed as 1/(pi T) - I(T), the gap loses about 8 digits at T = 1e4 and
    # breaks the bound at T = 3223; the tail beyond T has no cancellation
    rng = random.Random(2)
    Ts = [10.0 ** rng.uniform(1.0, 4.0) for _ in range(1500)] + [3223.0, 9749.0]
    for T in Ts:
        res = perron_integral(1.0, 1.0, T)
        assert 0 < res.gap < res.bound, T
        assert res.numeric == res.main_term - res.gap
        assert abs(res.numeric - res.main_term) <= res.bound + res.quadrature_error_estimate, T


@pytest.mark.parametrize("b", [0.5, 1.0, 3.0, 1e6])
def test_a1_gap_matches_atan_oracle(b):
    # T on both sides of b + 1, where the tail takes over from the kernel
    for T in (2.0, 10.0, 100.0, 3223.0, 1e4, 1e6, 1e7):
        res = perron_integral(1.0, b, T)
        assert res.gap == pytest.approx(perron_a1_gap(b, T), rel=1e-12, abs=0), T


def test_gap_is_distance_to_main_off_a_equal_one():
    # the gap is computed directly; numeric is main + gap rounded to float
    for a, k in [(2.0, 1), (0.5, 2), (3.7, 3)]:
        res = perron_integral(a, 1.0, 500.0, k)
        assert abs(res.gap - abs(res.numeric - res.main_term)) <= math.ulp(res.main_term)


def test_a1_bound_has_no_cancellation():
    # (b + 1)^3 - b^3 formed in floats is 6% off at b = 3e15 and 0 from 2^53
    for b in (1.0, 1e6, 1e12, 1e15, 3e15, 1e16):
        exact = (Fraction(b) + 1) ** 3 - Fraction(b) ** 3
        want = float(exact) / (3.0 * math.pi)
        assert perron._bound(1.0, b, 1.0) == pytest.approx(want, rel=1e-15, abs=0)
    assert perron._bound(1.0, 1.0, 1.0) == 7.0 / (3.0 * math.pi)


def test_kernel_a_equal_one_t_cubed_scaling():
    cs = []
    for T in (100.0, 1000.0, 10_000.0):
        res = perron_integral(1.0, 1.0, T)
        cs.append(res.gap * T**3)
    assert max(cs) <= 2 * min(cs)  # fitted constant stable within factor 2


def test_higher_order_kernels():
    for k in (2, 3):
        above = perron_integral(2.0, 1.0, 1000.0, k)
        assert above.main_term == pytest.approx(0.5**k, rel=1e-12)
        assert above.gap <= 4 * above.bound + above.quadrature_error_estimate
        below = perron_integral(0.5, 1.0, 1000.0, k)
        assert below.gap <= 4 * below.bound + below.quadrature_error_estimate


def test_conjugate_symmetry_reference():
    for a, k in [(2.0, 1), (0.5, 2), (1.0, 1)]:
        sym = perron_integral(a, 1.0, 200.0, k)
        full = perron_full_segment(a, 1.0, 200.0, k)
        assert abs(full.imag) <= 1e-12
        assert full.real == pytest.approx(sym.numeric.real, abs=1e-11)


def test_kernel_validation():
    with pytest.raises(ValueError):
        perron_integral(-1.0, 1.0, 100.0)
    with pytest.raises(ValueError):
        perron_integral(2.0, 0.0, 100.0)
    with pytest.raises(ValueError):
        perron_integral(2.0, 1.0, 100.0, k=7)
    for k in (2.0, 1.5, np.float64(1.0)):  # non-integral orders, even integral floats
        with pytest.raises(ValueError, match=r"\[1, 6\]"):
            perron_integral(2.0, 1.0, 100.0, k=k)
    for k in (2.0, True, 7):
        with pytest.raises(ValueError, match=r"^k must be in \[1, 6\], got "):
            perron_integral(2.0, 1.0, 100.0, k=k)
    # a numpy integer gives the int's result, bit for bit
    assert perron_integral(2.0, 1.0, 100.0, np.int64(3)) == perron_integral(2.0, 1.0, 100.0, 3)
    with pytest.raises(ValueError):
        perron_integral(1.0, 1.0, 100.0, k=2)
    for a, b, T in [(math.inf, 1, 100), (2, math.inf, 100), (2, 1, math.inf), (2, 1, math.nan)]:
        with pytest.raises(ValueError):
            perron_integral(a, b, T)
    # the bound overflows, divides by zero or underflows to 0
    for a, b, T in [
        (2, 1e300, 100),
        (1, 1e300, 100),
        (2, 1, 1e-300),
        (1, 1, 1e-300),
        (0.5, 1e300, 100),
        (1e-300, 2, 10),
    ]:
        with pytest.raises(ValueError, match="^error bound at a = "):
            perron_integral(a, b, T)


def test_former_quadrature_failures_are_within_bound():
    # panel quadrature needed 4.4e8 panels at the first point, and did not
    # converge at the second, where the pole at 0 sits 1e-10 from the line
    for a, b, T in [(1e-300, 1.0, 1e6), (1.0, 1e-10, 0.5)]:
        res = perron_integral(a, b, T)
        assert res.gap <= res.bound + res.quadrature_error_estimate


@pytest.mark.parametrize(
    "a, b, T, k",
    [
        (0.5, 1.0, 1e8, 3),
        (2.0, 1.0, 1e30, 2),
        (3.7, 1.0, 500.0, 3),
        (1.0 + 2**-40, 1.0, 1e12, 3),
        (1.0, 1.0, 1e30, 1),
        (1.0, 1e6, 1e3, 1),
    ],
)
def test_gap_is_accurate_to_its_own_size(a, b, T, k):
    # the terms cancel by about T^k, and the working precision covers it:
    # the gap is good to 12 digits even where it is far below its bound
    res = perron_integral(a, b, T, k)
    if a == 1.0:
        want = perron_a1_gap(b, T)
    else:
        want = abs(perron_excess_hyperu(a, b, T, k, 128 + k * math.frexp(T)[1]))
    assert res.gap == pytest.approx(want, rel=1e-12, abs=0)
    assert 0 < res.quadrature_error_estimate <= 1e-18 * res.gap


def _kernel_grid(side):
    # |log a| from 1e-12 to 1.5 on the given side of 1, T from 1e-3 to 1e8,
    # b from 1e-10 to 1e3, wherever a^b, and so the bound, is a normal float
    grid = itertools.product((1e-12, 1e-4, 0.1, 1.5), (1e-3, 1.0, 1e3, 1e8), (1e-10, 1.0, 1e3))
    for u, T, b in grid:
        if u * b < 700:
            yield math.exp(side * u), b, T


@pytest.mark.parametrize("side", [1.0, -1.0])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gap_matches_quadrature_oracle(k, side, monkeypatch):
    # the float panel quadrature is capped at 2^11 panels to keep this fast;
    # where it does not converge by then it is not compared
    monkeypatch.setattr(oracles, "_MAX_PANELS", 1 << 11)
    evaluations = []
    real = perron._excess

    def recording(*args):
        evaluations.append(real(*args))
        return evaluations[-1]

    monkeypatch.setattr(perron, "_excess", recording)
    compared = 0
    for a, b, T in _kernel_grid(side):
        evaluations.clear()
        res = perron_integral(a, b, T, k)
        # the gap and its estimate come from the last pair of evaluations
        excess, finer = evaluations[-2:]
        assert res.gap == abs(float(excess))
        assert res.quadrature_error_estimate == float(abs(excess - finer))
        try:
            want, _ = oracles.perron_quadrature(a, b, T, k)
        except oracles.QuadratureError:
            continue
        assert abs(float(excess) - want) <= 1e-6 * res.bound, (a, b, T)
        compared += 1
    assert compared >= 15


@pytest.mark.parametrize(
    "a, b, T, k",
    [
        (0.5, 1e-10, 1e100, 1),  # b + j rounded to float gives a gap of 1.7e-118
        (2.0, 1e-300, 1e30, 3),
        (1e-300, 1.0, 1e6, 1),
        (1.0 + 2**-40, 1e6, 1e-50, 2),
        (1.0 - 2**-40, 1e10, 1e15, 3),
    ],
)
def test_gap_matches_tricomi_oracle(a, b, T, k):
    # outside any quadrature's reach; E1 from mpmath's Tricomi U instead
    res = perron_integral(a, b, T, k)
    want = perron_excess_hyperu(a, b, T, k, 128 + k * max(0, math.frexp(T)[1]))
    assert res.gap <= res.bound
    assert abs(res.gap - abs(want)) <= 1e-6 * res.bound


@pytest.mark.parametrize(
    "a, b, T, k",
    [
        (math.exp(-1.5), 3.0, 1e-100, 3),  # the gap read 3.7e-36, not 5.9e-105
        (1.0 + 1e-12, 1e3, 1e-3, 2),
        (1.0 + 1e-12, 1e3, 1e-3, 3),
    ],
)
def test_gap_far_below_its_bound_holds_its_digits(a, b, T, k):
    # the precision the bound sets leaves too few of the gap's own digits
    # here, so the working bits grow until the gap settles
    res = perron_integral(a, b, T, k)
    want = abs(perron_excess_hyperu(a, b, T, k, 600))
    assert res.gap == pytest.approx(want, rel=1e-12, abs=0)
    assert res.quadrature_error_estimate <= 2.0**-40 * res.gap


# -- finite Dirichlet polynomial check --------------------------------------


def test_dirichlet_constant_term():
    lhs, rhs, gap = dirichlet_perron_check({1: 1.0}, 0.0, 1.0, 5000.0, 5)
    assert lhs == pytest.approx(5.0)
    assert gap < 1e-2
    assert rhs.real == pytest.approx(5.0, abs=1e-2)


def test_dirichlet_hand_value():
    # coeffs {2: 1}, s0 = 1, x = 3: A(2,1) + A(3,1) = 1/2 + 1/2 = 1
    lhs, rhs, gap = dirichlet_perron_check({2: 1.0}, 1.0, 1.0, 2000.0, 3)
    assert lhs == pytest.approx(1.0)
    assert gap < 1e-2


def test_dirichlet_gap_shrinks_with_T(lam_small):
    coeffs = {n: float(lam_small[n]) for n in range(1, 51)}
    _, _, gap_lo = dirichlet_perron_check(coeffs, 0.0, 1.0, 1_000.0, 30)
    _, _, gap_hi = dirichlet_perron_check(coeffs, 0.0, 1.0, 10_000.0, 30)
    assert gap_hi <= gap_lo / 5


def test_dirichlet_validation():
    with pytest.raises(ValueError):
        dirichlet_perron_check({1: 1.0}, 0.0, 1.0, 100.0, 0)
    with pytest.raises(ValueError):
        dirichlet_perron_check({0: 1.0}, 0.0, 1.0, 100.0, 5)
    for x in (5.0, True, 0):
        with pytest.raises(ValueError, match="^x must be >= 1, got "):
            dirichlet_perron_check({1: 1.0}, 0.0, 1.0, 100.0, x)
    for n in (2.0, True, 0):
        with pytest.raises(ValueError, match="^coefficient index must be >= 1, got "):
            dirichlet_perron_check({n: 1.0}, 0.0, 1.0, 100.0, 5)
    want = dirichlet_perron_check({1: 1.0, 2: 0.5}, 0.0, 1.0, 100.0, 5)
    assert dirichlet_perron_check({np.int64(1): 1.0, 2: 0.5}, 0.0, 1.0, 100.0, np.int64(5)) == want
