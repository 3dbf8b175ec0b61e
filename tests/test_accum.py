import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pntavg import accum
from pntavg.accum import neumaier_fold, neumaier_prefix_sum, neumaier_sum
from pntavg.sieve import _SEGMENT

from oracles import neumaier_prefix_loop

BLOCK = accum._BLOCK
LENGTHS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7)


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def mixed_values(length: int, seed: int, exponents: list[int], zero_share: float) -> np.ndarray:
    """Signed values clustered around 10^e for the given exponents, with a
    share of +0.0 and -0.0: clusters of unlike size exercise both branches
    of the TwoSum error, and |x| <= 1e150 keeps every sum finite."""
    rng = np.random.default_rng(seed)
    exps = rng.choice(exponents, length) + rng.uniform(-1.0, 0.0, length)
    x = rng.choice([-1.0, 1.0], length) * 10.0**exps
    zero = rng.random(length) < zero_share
    x[zero] = np.copysign(0.0, x[zero])
    return x


@settings(max_examples=40, deadline=None)
@given(
    length=st.sampled_from(LENGTHS),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.integers(-299, 150), min_size=1, max_size=4),
    zero_share=st.sampled_from([0.0, 0.1, 0.5]),
)
def test_prefix_sum_bitwise_equals_scalar_loop(length, seed, exponents, zero_share):
    x = mixed_values(length, seed, exponents, zero_share)
    got = neumaier_prefix_sum(x)
    assert np.array_equal(bits(got), bits(neumaier_prefix_loop(x)))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e150, max_value=1e150), max_size=40))
def test_short_prefix_sum_bitwise_equals_scalar_loop(values):
    ref = neumaier_prefix_loop(values)
    assert np.array_equal(bits(neumaier_prefix_sum(values)), bits(ref))
    assert np.array_equal(bits([neumaier_sum(values)]), bits([ref[-1] if ref else 0.0]))


def test_add_accumulate_is_sequential():
    # The vectorised pass relies on np.add.accumulate adding left to right,
    # unlike np.add.reduce, which sums pairwise.
    x = mixed_values(3 * BLOCK + 7, 1, [-8, 0, 8], 0.0)
    running = [x[0]]
    for v in x[1:]:
        running.append(running[-1] + v)
    assert np.array_equal(bits(np.add.accumulate(x)), bits(running))
    assert running[-1] != np.sum(x)  # the data can tell the two orders apart


def test_neumaier_sum_is_last_prefix():
    x = mixed_values(1000, 2, [-3, 5], 0.1)
    assert neumaier_sum(x) == neumaier_prefix_sum(x)[-1]
    assert neumaier_sum(list(x)) == neumaier_prefix_sum(x)[-1]
    assert neumaier_sum([]) == 0.0


@pytest.mark.parametrize("length", (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5))
def test_prefix_sum_into_out_and_in_place(length):
    # neumaier_fold reads each block before it writes that slice of out, so
    # out may be values itself, as the averaging chain folds its sums in
    # place: into a separate out or in place, the fold is bitwise the fresh
    # prefix pass, with the same state
    x = mixed_values(length, 3, [-8, 0, 8], 0.1)
    x.flags.writeable = False
    fresh = neumaier_prefix_sum(x)
    out = np.empty_like(x)
    state = neumaier_fold(x, out=out)
    assert np.array_equal(bits(out), bits(fresh))
    y = x.copy()
    assert np.array_equal(bits(neumaier_fold(y, out=y)), bits(state))
    assert np.array_equal(bits(y), bits(fresh))


def test_fold_carried_across_splits_is_one_pass():
    # the state (s, c) carried from piece to piece gives the bits of one
    # pass, with or without prefix sums, wherever the values are split
    x = mixed_values(3 * _SEGMENT + 5, 4, [-8, 0, 8], 0.1)
    whole = neumaier_prefix_sum(x)
    rng = np.random.default_rng(5)
    cuts = [0, 1, BLOCK - 1, BLOCK + 1, _SEGMENT - 1, _SEGMENT + 1]
    edges = [0, *sorted(cuts + rng.integers(0, len(x), 8).tolist()), len(x)]
    out = np.empty_like(x)
    state = summed = (0.0, 0.0)
    for lo, hi in zip(edges, edges[1:]):
        state = neumaier_fold(x[lo:hi], state, out=out[lo:hi])
        summed = neumaier_fold(x[lo:hi], summed)
    assert np.array_equal(bits(out), bits(whole))
    assert np.array_equal(bits(summed), bits(state))
    assert np.array_equal(bits([summed[0] + summed[1]]), bits(whole[-1:]))
