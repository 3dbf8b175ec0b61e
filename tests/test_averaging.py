import dataclasses
import math
from collections import deque
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from pntavg import averaging, sieve
from pntavg.accum import neumaier_prefix_sum
from pntavg.averaging import (
    hat_r_series,
    hat_prime_r_series,
    iterated_average,
    iterated_averages,
    range_summary,
    tilde_r_series,
    weighted_psi_hat_series,
    weighted_psi_series,
)

from conftest import MIB, N_PEAK, traced_peak
from oracles import (
    binom_column_comb,
    binom_weight_average,
    hat_prime_r_formula,
    hat_r_formula,
    nested_average,
    psi_lcm,
    tilde_r_formula,
    weight_a,
    weight_b,
    weight_h,
    weighted_psi_tilde_series,
)

LOG2 = math.log(2)


def exact_weighted_sum(lam, weight_fn, i, n, scale=1):
    """sum_j w(i, n, j) Lambda(j) with the exact weights weight_fn of the
    oracle, each times scale and rounded once, summed by math.fsum."""
    return math.fsum(float(weight_fn(i, n, j) * scale) * lam[j] for j in range(1, n + 1))


def binom_column(k, lo, hi):
    """The library's column C(n+k-1, k) for n in [lo, hi), its blocks joined."""
    blocks = [col.copy() for _, col in averaging._binom_column(k, lo, hi)]
    return np.concatenate([np.empty(0), *blocks])


def assert_same_bits(got, want, context):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), context


@pytest.mark.parametrize("k", range(1, 9))
def test_binom_column_bitwise_equals_comb(k):
    for n_max in [*range(51), 100_000]:
        assert_same_bits(binom_column(k, 1, n_max + 1), binom_column_comb(n_max, k), n_max)


@pytest.mark.parametrize("k", range(1, 9))
def test_binom_column_up_to_the_largest_factor(k):
    """Every factor n + j is one limb: the column runs up to n + k - 1 =
    2^32 - 1, bitwise math.comb there, and refuses one n more."""
    hi = (1 << 32) - k + 1
    assert hi - 1 == averaging.max_column_n(k)
    assert_same_bits(binom_column(k, hi - 4, hi), binom_column_comb(hi - 1, k, hi - 4), k)
    with pytest.raises(ValueError, match=r"n \+ k - 1 < 2\^32"):
        binom_column(k, hi - 4, hi + 1)


def _limbs(values, count):
    """values as count rows of 32-bit limbs in uint64, lowest limb first."""
    rows = [[(v >> (32 * i)) & 0xFFFF_FFFF for v in values] for i in range(count)]
    return np.array(rows, dtype=np.uint64)


def _rounding_cases(max_bits, random_bytes):
    """Ascending integers below 2^max_bits, as _limbs_to_float needs them:
    at every bit length, mantissas even and odd with an exact halfway tail,
    the tie +- 1 and the tie plus a quarter ulp; then 2000 random integers
    of random_bytes bytes, each shifted right by a random count."""
    cases = set()
    for bits in range(1, max_bits + 1):
        least = 1 << (bits - 1)
        cases.update({least, least + 1, 2 * least - 1})
        if bits > 54:
            ulp = 1 << (bits - 53)
            for m in (least, least + ulp, 2 * least - 2 * ulp, 2 * least - ulp):
                tie = m + ulp // 2
                cases.update({tie - 1, tie, tie + 1, tie + ulp // 4})
    rng = np.random.default_rng(20)
    for _ in range(2000):
        v = int.from_bytes(rng.bytes(random_bytes), "big")
        cases.add(v >> int(rng.integers(8 * random_bytes)))
    values = sorted(cases)
    assert values[-1] < 1 << max_bits
    return values


def test_limbs_round_once_to_nearest_even():
    """Every bit length up to 161, so every shift of the 64-bit window
    within its limb; at each, mantissas even and odd with an exact halfway
    tail, the tie +- 1, and the tie plus a bit set only in the lowest limb,
    where the sticky bit alone rounds up; then random integers below 2^160."""
    values = _rounding_cases(161, 20)
    got = np.empty(len(values))
    averaging._limbs_to_float(_limbs(values, 6), got, np.empty((2, len(values)), np.uint64))
    assert_same_bits(got, np.array([float(v) for v in values]), "crafted")


def test_limbs_below_2_64_with_empty_top_limbs():
    """Values below 2^64 in four limbs, as a column whose exact division
    empties its top limbs: limbs 2 and 3 hold no run, and every value,
    ties among them, converts directly, rounded once."""
    values = _rounding_cases(64, 8)
    got = np.empty(len(values))
    averaging._limbs_to_float(_limbs(values, 4), got, np.empty((2, len(values)), np.uint64))
    assert_same_bits(got, np.array([float(v) for v in values]), "below 2^64")


def _crossings(k, limit):
    """Each least n <= limit with C(n+k-1, k) >= 2^e, e in (32, 53, 64, 96)."""
    out = []
    for e in (32, 53, 64, 96):
        lo, hi = 1, limit + 1
        while lo < hi:  # least n in [1, limit] whose entry reaches 2^e, or limit + 1
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if math.comb(mid + k - 1, k) < 1 << e else (lo, mid)
        if lo <= limit:
            out.append(lo)
    return out


@pytest.mark.parametrize("k", range(1, 9))
def test_binom_column_at_the_limb_and_float_boundaries(k):
    """Blocks that start anywhere agree with math.comb within +-3 of every n
    where the column crosses 2^32, 2^53, 2^64 or 2^96, up to n = 1e7, and
    over two blocks at 1e7; a numpy integer order gives the int's bits."""
    crossings = _crossings(k, 10**7)
    assert crossings or k == 1  # C(n, 1) = n stays below 2^32 here
    for n in crossings:
        lo = max(1, n - 3)
        assert_same_bits(binom_column(k, lo, n + 4), binom_column_comb(n + 3, k, lo), (k, n))
    lo, hi = 10**7 - 3000, 10**7 + averaging._BLOCK
    want = binom_column_comb(hi - 1, k, lo)
    assert_same_bits(binom_column(k, lo, hi), want, k)
    assert_same_bits(binom_column(np.int64(k), lo, hi), want, k)


# -- iterated averages ------------------------------------------------------


def test_average_trivial(r_small):
    for k in (1, 2, 3):
        avg = iterated_average(r_small, k)
        assert avg.values[1] == -1.0
    avg = iterated_average(r_small, 1)
    # (r(1) + r(2))/2 = (-1 + (log 2 - 2))/2
    assert avg.values[2] == pytest.approx((-1 + (LOG2 - 2)) / 2, abs=1e-12)


def test_average_matches_nested_sum_oracle(r_small):
    for k in (1, 2, 3):
        avg = iterated_average(r_small, k)
        for n in (1, 2, 3, 7, 50, 300):
            assert abs(avg.values[n] - nested_average(r_small, k, n)) <= 1e-9, (k, n)


def test_average_via_weights_matches_rational_oracle(r_small):
    for k in (1, 2, 3):
        avg = iterated_average(r_small, k)
        for n in (2, 30, 300):
            assert avg.values[n] == pytest.approx(binom_weight_average(r_small, k, n), abs=1e-10)


def test_chain_order_k_is_k_passes_over_the_comb_column(r_full):
    """Order k of the chain is k neumaier_prefix_sum passes over r, divided
    by the math.comb column, bit for bit, for k = 0..8; iterated_average(k)
    is the chain's order k."""
    sums = r_full[1:]
    for k, avg in enumerate(iterated_averages(r_full, 8)):
        if k:
            sums = neumaier_prefix_sum(sums)
        want = np.concatenate(([0.0], sums / binom_column_comb(len(r_full) - 1, k)))
        assert avg.order == k and len(avg.values) == len(r_full)
        assert_same_bits(avg.values, want, k)
        assert not avg.values.flags.writeable
        if k in (0, 5):
            assert_same_bits(iterated_average(r_full, k).values, want, k)
    assert k == 8


def test_drained_chains_keep_every_order_and_their_inputs(lam_full, r_full):
    """Each fold pass after the first overwrites the sums it reads, and no
    pass writes into r, Lambda or the psi prefix psi_0.  Every order of a
    drained chain is that order drawn alone, bit for bit, and r, Lambda and
    psi_0 are unchanged."""
    r, lam = r_full.tobytes(), lam_full.tobytes()
    averages = list(iterated_averages(r_full, 8))
    psi_orders = list(weighted_psi_series(lam_full, 8))
    for k, avg in enumerate(averages):
        assert_same_bits(avg.values, iterated_average(r_full, k).values, k)
    for i, psi_i in enumerate(psi_orders):
        assert_same_bits(psi_i, list(weighted_psi_series(lam_full, i))[-1], i)
    assert r_full.tobytes() == r
    assert lam_full.tobytes() == lam
    assert psi_orders[0].tobytes() == neumaier_prefix_sum(lam_full).tobytes()


@pytest.fixture(scope="module")
def r_peak():
    return sieve.error_series(sieve.build_lambda_table(N_PEAK))


def test_chain_keeps_no_order_its_caller_dropped(r_peak):
    """Drawing rbar_0..rbar_6 and dropping each before the next holds the
    fold sums and the order being formed, 8 B per n each; iterated_average
    drops each order below the one it returns as the same drain does."""
    averages = iterated_averages(r_peak, 6)
    assert traced_peak(deque, averages, 0) <= 16 * N_PEAK + MIB
    assert traced_peak(iterated_average, r_peak, 6) <= 16 * N_PEAK + MIB


def test_chain_checks_its_order_before_any_work(r_small):
    for k_max in (-1, 9, 2.0, True):
        with pytest.raises(ValueError, match=r"^order k must be in \[0, 8\], got "):
            iterated_averages(r_small, k_max)
    want = [avg.values.tobytes() for avg in iterated_averages(r_small, 3)]
    assert [avg.values.tobytes() for avg in iterated_averages(r_small, np.int64(3))] == want


def test_order_zero_is_r(r_small):
    # zero folds over the column C(n-1, 0) = 1: rbar_0 is r bit for bit
    avg = iterated_average(r_small, 0)
    assert avg.order == 0
    assert avg.values.tobytes() == r_small.tobytes()


def test_average_invalid_args(r_small):
    with pytest.raises(ValueError):
        iterated_average(r_small, -1)
    with pytest.raises(ValueError):
        iterated_average(r_small, 9)
    for k in (2.0, 1.5, np.float64(3.0)):  # non-integral orders, even integral floats
        with pytest.raises(ValueError, match=r"\[0, 8\]"):
            iterated_average(r_small, k)
    for k in (2.0, True, 9):
        with pytest.raises(ValueError, match=r"^order k must be in \[0, 8\], got "):
            iterated_average(r_small, k)
    # a numpy integer gives the int's result, bit for bit
    want = iterated_average(r_small, 3).values.tobytes()
    assert iterated_average(r_small, np.int64(3)).values.tobytes() == want


# -- weighted Lambda sums ---------------------------------------------------


def test_weighted_psi_order_zero(lam_small, psi_small):
    psi_0 = next(weighted_psi_series(lam_small, 0))
    assert psi_0[10] == pytest.approx(psi_lcm(10), abs=1e-9)
    assert psi_0.tobytes() == psi_small.tobytes()


def test_weighted_psi_trivial(lam_small):
    assert list(weighted_psi_series(lam_small, 1))[1][1] == 0.0


def test_weighted_psi_identity(lam_small, r_small):
    # rbar_i(n) = psi_i(n) - (n + i)/(i + 1)
    chains = zip(iterated_averages(r_small, 3), weighted_psi_series(lam_small, 3))
    for i, (avg, psi_i) in enumerate(chains):
        for n in (1, 2, 100, 1000, 2000):
            lhs = avg.values[n]
            rhs = psi_i[n] - (n + i) / (i + 1)
            assert lhs == pytest.approx(rhs, abs=1e-8), (i, n)
    assert i == 3


def test_weighted_psi_series_matches_pointwise(lam_small):
    for i, batch in enumerate(weighted_psi_series(lam_small, 3)):
        for n in (1, 2, 33, 500):
            assert batch[n] == pytest.approx(
                exact_weighted_sum(lam_small, weight_a, i, n), abs=1e-9
            )
    assert i == 3


def test_weighted_psi_hat_series_matches_pointwise(lam_small):
    for i, batch in enumerate(weighted_psi_hat_series(lam_small, 4), start=1):
        for n in (2, 3, 33, 500):
            assert batch[n] == pytest.approx(
                exact_weighted_sum(lam_small, weight_b, i, n), abs=1e-9
            )
        assert np.isnan(batch[1])
    assert i == 4


def test_psi_chain_order_i_is_i_plus_1_passes_over_the_comb_column(lam_full):
    """Order i of the psi chain is i + 1 neumaier_prefix_sum passes over
    Lambda, divided by the math.comb column C(n+i-1, i), bit for bit, for
    i = 0..8."""
    sums = lam_full[1:]
    for i, psi_i in enumerate(weighted_psi_series(lam_full, 8)):
        sums = neumaier_prefix_sum(sums)
        want = np.concatenate(([0.0], sums / binom_column_comb(len(lam_full) - 1, i)))
        assert_same_bits(psi_i, want, i)
    assert i == 8


def test_psi_hat_chain_order_i_is_i_passes_over_the_comb_column(lam_full):
    """Order i of the psi-hat chain is i neumaier_prefix_sum passes over
    (j-1) Lambda(j) from j = 2, divided by the math.comb column
    C(n+i-1, i+1) for n = 2..n_max, bit for bit, for i = 1..8; n = 0, 1
    are nan."""
    n_max = len(lam_full) - 1
    sums = np.arange(1, n_max, dtype=float) * lam_full[2:]
    for i, psi_hat in enumerate(weighted_psi_hat_series(lam_full, 8), start=1):
        sums = neumaier_prefix_sum(sums)
        column = binom_column_comb(n_max - 1, i + 1)  # C(n+i-1, i+1) for n = 2..n_max
        want = np.concatenate(([np.nan, np.nan], sums / column))
        assert_same_bits(psi_hat, want, i)
    assert i == 8


@pytest.mark.parametrize(
    "series_fn", [weighted_psi_series, weighted_psi_hat_series, weighted_psi_tilde_series]
)
def test_weighted_series_range_checked(lam_small, series_fn):
    """Each chain checks its highest order before any work, like
    iterated_averages; the psi-tilde oracle checks it too."""
    least = {weighted_psi_series: 0, weighted_psi_hat_series: 1}.get(series_fn, 2)
    for i in (2.0, 2.5, True, least - 1, averaging.MAX_ORDER + 1):
        with pytest.raises(ValueError, match=rf"^order i must be in \[{least}, 8\], got "):
            series_fn(lam_small, i)
    # a numpy integer gives the int's result, bit for bit
    want = [values.tobytes() for values in series_fn(lam_small, 3)]
    assert len(want) == 4 - least
    assert [values.tobytes() for values in series_fn(lam_small, np.int64(3))] == want


def _every_series(lam):
    """Each series of the Lambda array, for every order, keyed by (name, order)."""
    r = sieve.error_series(lam)
    out = {("r", None): r}
    out.update({("rbar", k): avg.values for k, avg in enumerate(iterated_averages(r, 8))})
    for fn, least in ((weighted_psi_series, 0), (weighted_psi_hat_series, 1)):
        out.update({(fn.__name__, i): v for i, v in enumerate(fn(lam, 8), start=least)})
    return out


@pytest.fixture(scope="module")
def every_series_full(lam_full):
    return _every_series(lam_full)


BLOCK = averaging._BLOCK  # n per column block; each fold carries its state across them


@pytest.mark.parametrize(
    "m",
    # the block edges, the half-block edges and sizes past several blocks;
    # a set, since equal values would make pytest rename their ids
    sorted({1, 2, 3, 500, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1}
           | {4095, 4096, 4097, 8193, 10_000, 16_384, 16_385, 40_000}),
)
def test_smaller_table_gives_a_prefix_of_every_series(every_series_full, m):
    """Lambda does not depend on the table's size, the prefix passes run
    left to right in blocks from index 0, and each binomial entry is formed
    on its own: a table of size m gives the first m + 1 entries of every
    series of the 1e5 table, bit for bit."""
    small = _every_series(sieve.build_lambda_table(m))
    assert small.keys() == every_series_full.keys()
    for key, values in small.items():
        assert len(values) == m + 1, key
        assert values.tobytes() == every_series_full[key][: m + 1].tobytes(), key


# -- differenced statistics -------------------------------------------------


def test_hat_r_hand_value(r_small):
    avg = iterated_average(r_small, 1)
    # 2*(rbar(2) - rbar(1)) = log 2 - 1 = Lambda(2) - 1
    assert hat_r_series(avg)[2] == pytest.approx(LOG2 - 1, abs=1e-12)


def test_hat_prime_scaling(r_small):
    # (i+1) * hat_prime = (n-1) * hat
    for i in (1, 2, 3):
        avg = iterated_average(r_small, i)
        hat, hat_prime = hat_r_series(avg), hat_prime_r_series(avg)
        for n in (2, 10, 500, 2000):
            assert hat_prime[n] * (i + 1) == pytest.approx(hat[n] * (n - 1), abs=1e-9)
        assert hat_prime[2] == pytest.approx(hat[2] / (i + 1), abs=1e-12)


def test_hat_identity_weighted_form(lam_small, r_small):
    # hat_r(i, n) = psi-hat_i(n) - 1
    rbar = islice(iterated_averages(r_small, 5), 1, None)
    chains = zip(rbar, weighted_psi_hat_series(lam_small, 5))
    for i, (avg, psi_hat) in enumerate(chains, start=1):
        hat = hat_r_series(avg)
        gap = np.max(np.abs(hat[2:] - (psi_hat[2:] - 1.0)))
        assert avg.order == i and gap <= 1e-8, (i, gap)
    assert i == 5


def test_hat_prime_identity_weighted_form(lam_small, r_small):
    # hat_prime_r(i, n) = psi-hat'_i(n) - (n-1)/(i+1)
    for i in (1, 3, 5):
        avg = iterated_average(r_small, i)
        hp = hat_prime_r_series(avg)
        for n in (2, 3, 50, 777, 2000):
            # psi-hat'_i(n) = (n-1)/(i+1) psi-hat_i(n)
            scale = Fraction(n - 1, i + 1)
            psi_hat_prime = exact_weighted_sum(lam_small, weight_b, i, n, scale)
            rhs = psi_hat_prime - (n - 1) / (i + 1)
            assert hp[n] == pytest.approx(rhs, abs=1e-7), (i, n)


def test_tilde_identity_weighted_form(lam_small, r_small):
    # tilde_r(i, n) = psi-tilde_i(n) - (n-1)/(i+1)
    rbar = islice(iterated_averages(r_small, 6), 2, None)
    chains = zip(rbar, weighted_psi_tilde_series(lam_small, 6))
    for i, (avg, psi_tilde) in enumerate(chains, start=2):
        tilde = tilde_r_series(avg)
        n = np.arange(3, 2001, dtype=float)
        gap = np.max(np.abs(tilde[3:] - (psi_tilde[3:] - (n - 1) / (i + 1))))
        assert avg.order == i and gap <= 1e-7, (i, gap)
    assert i == 6


def test_tilde_small_n_both_sides(lam_small, r_small):
    avg = iterated_average(r_small, 2)
    lhs = tilde_r_series(avg)[3]
    rhs = exact_weighted_sum(lam_small, weight_h, 2, 3) - (3 - 1) / (2 + 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_scalar_differences_equal_the_difference_formulas(r_small):
    """hat_r_series, hat_prime_r_series and tilde_r_series give, bit for bit,
    the literal differences of rbar_i at n, for every order and every n."""
    for i in range(1, 9):
        avg = iterated_average(r_small, i)
        v = [float(x) for x in avg.values]
        hat, hat_prime = hat_r_series(avg), hat_prime_r_series(avg)
        tilde = tilde_r_series(avg) if i >= 2 else None
        for n in range(2, len(avg.values)):
            step = v[n] - v[n - 1]
            assert hat[n] == (i + 1) * step, (i, n)
            assert hat_prime[n] == (n - 1) * step, (i, n)
            if tilde is not None and n >= 3:
                fr = n * (n - 1) * step - (n - 1) * (n - 2) * (v[n - 1] - v[n - 2])
                assert tilde[n] == fr / 2.0, (i, n)


def test_differenced_statistics_are_the_formulas_bit_for_bit(averages_full):
    """At 1e5 the products must be formed as the formulas form them:
    n (n - 1.0) first, then times the step."""
    for k, avg in averages_full.items():
        assert_same_bits(hat_r_series(avg), hat_r_formula(avg), k)
        assert_same_bits(hat_prime_r_series(avg), hat_prime_r_formula(avg), k)
        if k >= 2:
            assert_same_bits(tilde_r_series(avg), tilde_r_formula(avg), k)


@pytest.mark.parametrize(
    "fn, per_n", [(hat_r_series, 8), (hat_prime_r_series, 16), (tilde_r_series, 16)]
)
def test_differenced_statistics_are_formed_in_their_output(r_peak, fn, per_n):
    """The output holds the steps and takes every product in place; only
    n - 1 (hat_prime) and n (n - 1) (tilde) take a second array."""
    avg = iterated_average(r_peak, 2)
    assert traced_peak(fn, avg) <= per_n * N_PEAK + MIB


def test_differences_invalid_args(r_small):
    avg2 = iterated_average(r_small, 2)
    with pytest.raises(ValueError):
        tilde_r_series(iterated_average(r_small, 1))  # order < 2
    for order in (1, 2.0, True):
        with pytest.raises(ValueError, match="^average order must be >= 2, got "):
            tilde_r_series(dataclasses.replace(avg2, order=order))


# -- range summaries --------------------------------------------------------


def test_range_summary_basic():
    vals = np.array([np.nan, 3.0, -1.0, 2.0, -1.0, 5.0])
    s = range_summary(vals, 1, 5)
    assert (s.min, s.argmin) == (-1.0, 2)  # first attaining index
    assert (s.max, s.argmax) == (5.0, 5)
    assert s.lo == 1 and s.hi == 5


def test_range_summary_constant():
    vals = np.full(10, 2.5)
    s = range_summary(vals, 3, 9)
    assert s.min == s.max == 2.5


def test_range_summary_errors():
    vals = np.arange(5.0)
    with pytest.raises(ValueError):
        range_summary(vals, 3, 2)
    with pytest.raises(ValueError):
        range_summary(vals, 0, 7)
    with pytest.raises(ValueError):
        range_summary(np.array([1.0, np.nan, 2.0]), 0, 2)
    for lo in (1.0, True, 5):
        with pytest.raises(ValueError, match=r"^lo must be in \[0, 4\], got "):
            range_summary(vals, lo, 4)
    for hi in (3.0, True, 5):
        with pytest.raises(ValueError, match=r"^hi must be in \[1, 4\], got "):
            range_summary(vals, 1, hi)
    assert range_summary(vals, np.int64(1), np.int64(3)) == range_summary(vals, 1, 3)


def test_rbar3_max_attained_at_1(r_small):
    avg = iterated_average(r_small, 3)
    s = range_summary(avg.values, 1, len(avg.values) - 1)
    assert s.argmax == 1
    assert s.max == -1.0


def test_monotone_range_containment(averages_full):
    # range of rbar_(k+1) inside range of rbar_k, k = 1, 2
    for k in (1, 2):
        top = len(averages_full[k].values) - 1
        outer = range_summary(averages_full[k].values, 1, top)
        inner = range_summary(averages_full[k + 1].values, 1, top)
        assert outer.min <= inner.min and inner.max <= outer.max


def test_concentration_mean(averages_full):
    vals = averages_full[3].values[10_000 : 100_001]
    assert -1.4 <= float(np.mean(vals)) <= -1.0
