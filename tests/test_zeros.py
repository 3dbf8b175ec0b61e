import cmath
import math
import re
import warnings

import numpy as np
import pytest

from pntavg import averaging, sieve, zeros
from pntavg.zeros import (
    ZeroFormatError,
    explicit_formula_residual,
    gamma_square_tail,
    load_zeros,
    zero_sum,
)

from oracles import explicit_formula_limit, zero_sum_loop

GAMMA_1 = 14.134725141734695


# -- parsing ----------------------------------------------------------------


def zeros_file(tmp_path, data: bytes):
    """The path of a zeros file holding data."""
    path = tmp_path / "zeros.txt"
    path.write_bytes(data)
    return path


def test_parse_basic(tmp_path):
    z = load_zeros(zeros_file(tmp_path, b"14.134725142\n21.022039639\n"))
    assert len(z) == 2
    assert z[0] == pytest.approx(14.134725142)
    assert z.dtype == np.float64 and not z.flags.writeable


def test_parse_empty_stream(tmp_path):
    z = load_zeros(zeros_file(tmp_path, b""))
    assert len(z) == 0
    assert zero_sum(z, 100.0, 50.0).value == 0.0


def test_parse_comments_and_blanks(tmp_path):
    z = load_zeros(zeros_file(tmp_path, b"# header\n\n14.1\n\n21.0\n"))
    assert len(z) == 2


def test_parse_rejects_decreasing(tmp_path):
    with pytest.raises(ZeroFormatError):
        load_zeros(zeros_file(tmp_path, b"21.0\n14.1\n"))


def test_parse_rejects_garbage(tmp_path):
    path = zeros_file(tmp_path, b"14.1\nnot-a-number\n")
    with pytest.raises(ZeroFormatError, match=f"^{re.escape(str(path))}, line 2: "):
        load_zeros(path)
    with pytest.raises(ZeroFormatError):
        load_zeros(zeros_file(tmp_path, b"-3.0\n"))


@pytest.mark.parametrize(
    "data, line, why",
    [
        (b"14.1\n21.0\n\xe2\x88\x9225.0\n", 3, "not ASCII"),
        (b"# z\xc3\xa9ros\n14.1\n", 1, "not ASCII"),
        (b"14.1\n\n 1e400\n", 3, "ordinate must be finite and > 0"),
        (b"# header\n14.1\n14.1\n", 3, "ordinates must be strictly increasing (14.1 after 14.1)"),
        (b"14.1\r\nx\r\n", 2, "not a number: 'x'"),
    ],
)
def test_format_error_names_file_and_line(tmp_path, data, line, why):
    # a non-ASCII byte, even in a comment, fails like any other bad line
    path = zeros_file(tmp_path, data)
    with pytest.raises(ZeroFormatError) as info:
        load_zeros(path)
    assert str(info.value) == f"{path}, line {line}: {why}"


def test_dataset_sane(zeros_2000):
    assert len(zeros_2000) == 2000
    assert zeros_2000[0] == pytest.approx(GAMMA_1, abs=1e-9)
    assert np.all(np.diff(zeros_2000) > 0)
    assert zeros_2000[0] > 14


# -- zero sums --------------------------------------------------------------


def _oracle_sum_unpaired(gammas, x, k):
    """Separate rho and conjugate(rho) terms, summed via fsum."""
    total = 0j
    for g in gammas:
        for rho in (complex(0.5, g), complex(0.5, -g)):
            den = rho
            for j in range(1, k + 1):
                den *= rho + j
            total += cmath.exp(rho * math.log(x)) / den
    return total


def test_zero_sum_matches_unpaired_oracle(zeros_2000):
    sub = zeros_2000[:50]
    for x, k in [(1e4, 1), (500.0, 2), (123.0, 3)]:
        paired = zero_sum(zeros_2000, x, float(sub[-1]), k).value
        oracle = _oracle_sum_unpaired(sub, x, k)
        assert abs(oracle.imag) < 1e-12 * max(1.0, abs(oracle.real))
        assert paired == pytest.approx(oracle.real, abs=1e-12 * max(1.0, abs(oracle.real)) + 1e-12)


def test_zero_sum_triangle_bound(zeros_2000):
    x, T, k = 1e4, 100.0, 1
    res = zero_sum(zeros_2000, x, T, k)
    gs = zeros_2000[zeros_2000 <= T]
    bound = sum(2 * math.sqrt(x) / abs(complex(0.5, g) * complex(1.5, g)) for g in gs)
    assert abs(res.value) <= bound
    assert res.count_used == len(gs)
    # cruder gamma^2 bound with slack
    assert abs(res.value) <= math.sqrt(x) * 2 * sum(1 / (g * g) for g in gs) * 1.5


def test_zero_sum_additive_over_ranges(zeros_2000):
    x = 3000.0
    t1, t2 = 100.0, 500.0
    full = zero_sum(zeros_2000, x, t2).value
    head = zero_sum(zeros_2000, x, t1).value
    mid_gammas = zeros_2000[(zeros_2000 > t1) & (zeros_2000 <= t2)]
    tail = _oracle_sum_unpaired(mid_gammas, x, 1).real
    assert full == pytest.approx(head + tail, abs=1e-12)


def test_zero_sum_bitwise_equals_loop(zeros_2000):
    """The one-pass array form reproduces the scalar cmath loop bit for bit:
    numpy's own complex product and quotient round differently from
    CPython's, so any term formed with them breaks this."""
    rng = np.random.default_rng(13)
    xs = [float(v) for v in rng.integers(2, 10**7, size=4)]
    xs += [float(v) for v in np.exp(rng.uniform(0.01, math.log(1e7), size=4))]
    Ts = [float(zeros_2000[0]) / 2, float(zeros_2000[0]), 100.0, 1000.0, float(zeros_2000[-1])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in xs:
            for k in range(1, 9):
                for T in Ts:
                    got = zero_sum(zeros_2000, x, T, k)
                    value, count_used = zero_sum_loop(zeros_2000, x, T, k)
                    assert got.value.hex() == value.hex(), (x, T, k)
                    assert got.count_used == count_used


def test_zero_sum_validation(zeros_2000):
    with pytest.raises(ValueError):
        zero_sum(zeros_2000, 0.5, 100.0)
    with pytest.raises(ValueError):
        zero_sum(zeros_2000, 100.0, 1e9)  # beyond data
    for k in (0, 9, 400, 2.0, 1.5):  # outside the orders of iterated_average
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            zero_sum(zeros_2000, 100.0, 100.0, k=k)
    for k in (2.0, True, 9):
        with pytest.raises(ValueError, match=r"^k must be in \[1, 8\], got "):
            zero_sum(zeros_2000, 100.0, 100.0, k=k)
    # a numpy integer gives the int's result, bit for bit
    assert zero_sum(zeros_2000, 100.0, 100.0, np.int64(3)) == zero_sum(zeros_2000, 100.0, 100.0, 3)
    for x, T in [
        (math.nan, 100.0),
        (math.inf, 100.0),
        (100.0, math.nan),
        (100.0, -math.inf),
        (100.0, -1.0),
    ]:
        with pytest.raises(ValueError):
            zero_sum(zeros_2000, x, T)
    # T exactly at an ordinate includes that zero
    assert zero_sum(zeros_2000, 100.0, float(zeros_2000[0])).count_used == 1
    assert zero_sum(zeros_2000, 100.0, float(zeros_2000[-1])).count_used == 2000
    with pytest.raises(ValueError):
        zero_sum(zeros_2000, 100.0, float(np.nextafter(zeros_2000[-1], np.inf)))


def test_lambda_factor(zeros_2000):
    """The normalized factor lambda_i = zero_sum(x, T, i) / sqrt(x) is at most
    2 sum_gamma 1/|rho (rho+1) ... (rho+i)|, itself at most 2 sum 1/gamma^(i+1)."""
    x, T = 1e4, 200.0
    gs = zeros_2000[zeros_2000 <= T]
    b1 = 2 * sum(1 / abs(complex(0.5, g) * complex(1.5, g)) for g in gs)
    assert abs(zero_sum(zeros_2000, x, T, 1).value / math.sqrt(x)) <= b1
    b3 = 2 * sum(1 / g**4 for g in gs) * 1.3
    assert abs(zero_sum(zeros_2000, x, T, 3).value / math.sqrt(x)) <= b3
    assert zero_sum(np.array([]), x, T, 1).value == 0.0


# -- explicit formula residual ---------------------------------------------


def test_residual_empty_sum(zeros_2000, r_small):
    avg = averaging.iterated_average(r_small, 1)
    assert explicit_formula_residual(avg, zeros_2000, 100, 10.0) == avg.values[100]


def test_residual_validation(zeros_2000, r_small):
    avg1 = averaging.iterated_average(r_small, 1)
    avg2 = averaging.iterated_average(r_small, 2)
    with pytest.raises(ValueError):
        explicit_formula_residual(avg2, zeros_2000, 100, 50.0)
    with pytest.raises(ValueError):
        explicit_formula_residual(avg1, zeros_2000, 1, 50.0)
    # a numpy integer indexes like the int
    want = explicit_formula_residual(avg1, zeros_2000, 100, 50.0)
    assert explicit_formula_residual(avg1, zeros_2000, np.int64(100), 50.0) == want
    # a float, integral or not, and a bool are refused as out of range
    top = len(avg1.values) - 1
    for x in (100.0, np.float64(100.0), 100.5, math.nan, math.inf, True, 1, top + 1):
        with pytest.raises(ValueError, match=rf"^x must be in \[2, {top}\], got "):
            explicit_formula_residual(avg1, zeros_2000, x, 50.0)
    # a string is refused, even one that parses as an integer
    with pytest.raises(ValueError, match=rf"^x must be in \[2, {top}\], got 100$"):
        explicit_formula_residual(avg1, zeros_2000, "100", 50.0)


def test_residual_spread_shrinks_with_more_zeros(zeros_2000):
    """Convergence of the truncated formula: the residual's dispersion
    around its limit collapses as the zero cutoff grows."""
    avg = averaging.iterated_average(sieve.error_series(sieve.build_lambda_table(10_000)), 1)
    xs = np.linspace(1000, 10_000, 100).astype(int)
    spreads = []
    for count in (20, 2000):
        T = float(zeros_2000[count - 1])
        res = np.array(
            [explicit_formula_residual(avg, zeros_2000, int(x), T) for x in xs]
        )
        spreads.append(float(np.std(res)))
    assert spreads[1] < spreads[0] / 5


def test_residual_limit_matches_explicit_formula(zeros_2000):
    """At T = gamma_2000 the residual sits on its limit M(x).

    The median of residual - M(x) is about 4e-5.  Without the
    (zeta'/zeta)(-1)/x term of M(x) it is about 6e-4, and without
    1/2 - log(2*pi) about 1.34, so the 2e-4 bound pins both terms.
    """
    avg = averaging.iterated_average(sieve.error_series(sieve.build_lambda_table(10_000)), 1)
    xs = np.linspace(1000, 10_000, 100).astype(int)
    T = float(zeros_2000[-1])
    res = np.array([explicit_formula_residual(avg, zeros_2000, int(x), T) for x in xs])
    assert abs(float(np.median(res - explicit_formula_limit(xs)))) <= 2e-4


def test_gamma_square_tail(zeros_2000):
    assert gamma_square_tail(zeros_2000, 0.0) == 0.0
    one = gamma_square_tail(zeros_2000, 15.0)
    assert one == pytest.approx(2 / GAMMA_1**2, rel=1e-9)
    assert gamma_square_tail(zeros_2000, 100.0) <= gamma_square_tail(zeros_2000, 1000.0)
    # bounded: full-data value stays modest
    assert gamma_square_tail(zeros_2000, float(zeros_2000[-1])) < 0.1
    # T beyond the data keeps every zero; NaN is refused, not read as 0
    assert gamma_square_tail(zeros_2000, math.inf) == gamma_square_tail(
        zeros_2000, float(zeros_2000[-1])
    )
    for T in (-1.0, math.nan):
        with pytest.raises(ValueError, match="^T must be >= 0"):
            gamma_square_tail(zeros_2000, T)
