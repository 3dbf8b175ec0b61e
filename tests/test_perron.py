import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pntavg import perron
from pntavg.perron import (
    dirichlet_perron_check,
    lemma1_error_bound,
    perron_integral,
    residue_main_term,
)

from oracles import perron_a1_gap, perron_full_segment


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


def test_residue_main_terms():
    assert residue_main_term(2.0, 1) == pytest.approx(0.5, rel=1e-14)
    assert residue_main_term(2.0, 2) == pytest.approx(0.25, rel=1e-14)
    assert residue_main_term(4.0, 3) == pytest.approx((3 / 4) ** 3, rel=1e-14)


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
    for a, k in [(2.0, 1), (0.5, 2), (3.7, 3)]:
        res = perron_integral(a, 1.0, 500.0, k)
        assert res.gap == abs(res.numeric - res.main_term)


def test_a1_bound_has_no_cancellation():
    # (b + 1)^3 - b^3 formed in floats is 6% off at b = 3e15 and 0 from 2^53
    for b in (1.0, 1e6, 1e12, 1e15, 3e15, 1e16):
        exact = (Fraction(b) + 1) ** 3 - Fraction(b) ** 3
        want = float(exact) / (3.0 * math.pi)
        assert perron._a1_bound(b, 1.0) == pytest.approx(want, rel=1e-15, abs=0)
    assert perron._a1_bound(1.0, 1.0) == 7.0 / (3.0 * math.pi)


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


def test_panel_count_is_capped():
    # 4.4e8 panels would be needed; refused before any node is allocated
    with pytest.raises(perron.QuadratureError, match="^439761360 panels"):
        perron_integral(1e-300, 1.0, 1e6)


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


def test_dirichlet_gap_shrinks_with_T(table_small):
    coeffs = {n: float(table_small.lam[n]) for n in range(1, 51)}
    _, _, gap_lo = dirichlet_perron_check(coeffs, 0.0, 1.0, 1_000.0, 30)
    _, _, gap_hi = dirichlet_perron_check(coeffs, 0.0, 1.0, 10_000.0, 30)
    assert gap_hi <= gap_lo / 5


def test_dirichlet_validation():
    with pytest.raises(ValueError):
        dirichlet_perron_check({1: 1.0}, 0.0, 1.0, 100.0, 0)
    with pytest.raises(ValueError):
        dirichlet_perron_check({0: 1.0}, 0.0, 1.0, 100.0, 5)
