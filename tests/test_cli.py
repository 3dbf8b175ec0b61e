import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pntavg import accum, averaging, cli, perron, sieve, zeros

from conftest import MIB, N_PEAK, traced_peak
from oracles import fmt6_dragon4

ROOT = pathlib.Path(__file__).resolve().parent.parent
ZEROS = ROOT / "data" / "zeros_2000.txt"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_same_rows(got: str, want: str) -> None:
    """Assert that two CSV texts are equal, reporting the first row that
    differs and both row counts.  The comparison is bound to a name before
    the assert, so pytest does not build its difflib diff of two long
    strings, which on thousands of differing rows takes minutes."""
    same = got == want
    if same:
        return
    got_rows, want_rows = got.splitlines(keepends=True), want.splitlines(keepends=True)
    pairs = zip(got_rows + [None], want_rows + [None])
    i, (g, w) = next((i, p) for i, p in enumerate(pairs) if p[0] != p[1])
    assert same, f"row {i + 1}: got {g!r}, want {w!r} ({len(got_rows)} rows, want {len(want_rows)})"


def test_tables_reduced_requires_allow_partial(capsys):
    code, out, err = run(["tables", "--n-max", "1000"], capsys)
    assert code == cli.EXIT_USAGE
    assert "allow-partial" in err


def test_tables_reduced_with_flag(capsys):
    code, out, err = run(["tables", "--n-max", "1000", "--allow-partial"], capsys)
    assert code == 0
    assert "warning" in err
    lines = out.strip().splitlines()
    assert lines[0] == "statistic,lo,hi,min,argmin,max,argmax"
    assert len(lines) == 1 + 4 + 5 + 5 + 5
    # the small-n extremes of the differenced stats already match the
    # published values at this reduced range
    rhat5 = next(l for l in lines if l.startswith("rhat5,"))
    fields = rhat5.split(",")
    assert fields[1:3] == ["100", "1000"]
    assert abs(float(fields[3]) - (-0.001183)) <= 1e-4


@pytest.mark.parametrize("n_max, code", [(1, 2), (2, 2), (3, 0)])
def test_tables_smallest_n_max(n_max, code, capsys):
    got, out, err = run(["tables", "--n-max", str(n_max), "--allow-partial"], capsys)
    assert got == code
    if code == cli.EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert len(out.splitlines()) == 1 + 4 + 5 + 5 + 5


def test_tables_pretty(capsys):
    code, out, err = run(
        ["tables", "--n-max", "500", "--allow-partial", "--pretty"], capsys
    )
    assert code == 0
    assert "statistic" in out
    assert "," not in out.splitlines()[1]


def test_tables_deterministic(capsys):
    code1, out1, _ = run(["tables", "--n-max", "800", "--allow-partial"], capsys)
    code2, out2, _ = run(["tables", "--n-max", "800", "--allow-partial"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


def test_errors_series_csv(capsys):
    code, out, err = run(["errors", "--order", "1", "--n-max", "50"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert lines[1] == "1,-1.000000"
    assert len(lines) == 51


def test_errors_default_order_is_one(capsys):
    default = run(["errors", "--n-max", "10"], capsys)
    assert default == run(["errors", "--n-max", "10", "--order", "1"], capsys)
    assert default[0] == 0


@given(st.floats())
@example(0.0)
@example(-0.0)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0078125)  # 1/2^7: an exact tie at the 6th decimal
def test_fmt6_matches_dragon4(v):
    assert f"{v:.6f}" == "%.6f" % v == fmt6_dragon4(v)


@given(st.integers(-(2**40), 2**40), st.integers(0, 60))
def test_fmt6_matches_dragon4_on_dyadic_ties(j, k):
    v = (2 * j + 1) / 2**k
    assert f"{v:.6f}" == "%.6f" % v == fmt6_dragon4(v)


ROW_COUNTS = [16_383, 16_384, 16_385, 32_769]
# values the numpy route takes: finite, |v| < 2**32, and decimal near-ties
# (2j + 1)/(2 * 10**6), where fl(v * 10**6) often lands on a half
NEAR_TIES = st.integers(-(2**42), 2**42).map(lambda j: (2 * j + 1) / 2e6)
FIXED = st.floats(-(2.0**32), 2.0**32, exclude_min=True, exclude_max=True) | NEAR_TIES


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(), min_size=1, max_size=40) | st.lists(FIXED, min_size=1, max_size=40),
    st.sampled_from(ROW_COUNTS),
)
@example([math.nan, math.inf, -math.inf, 0.0, -0.0, 0.0078125, 1e300], 16_385)
# near-ties that a plain rint(v * 1e6) rounds to 164 and 66
@example([0.00016450000000000001, 6.549999999999999e-05], 16_383)
# the last rounds to -2**32 at 6 decimals, an integer part past uint32
@example([0.0078125, -0.0, -4e-7, 5e-324, 2**32 - 2**-20, -(2**32 - 2**-21)], 16_384)
@example([2**32], 1)
@example([0.5] * 32_768 + [math.nan], 32_769)  # only the last piece has a nan
def test_block_rows_match_per_row_fstring(xs, count):
    values = np.resize(np.array(xs), count)
    out = io.StringIO()
    cli._write_rows(out, values)
    rows = enumerate(values.tolist(), 1)
    assert_same_rows(out.getvalue(), "".join(f"{n},{v:.6f}\n" for n, v in rows))


# pieces whose n crosses a digit count (9,999 -> 10,000 and 99,999 ->
# 100,000), 65,535 -> 65,536, where n's dtype widens from uint16 to uint32,
# or 2**32, where it widens to uint64; one piece ends at 65,535
PIECE_STARTS = [10_000 - 100, 100_000 - 100, 65_536 - cli._PIECE, 65_536 - 100, 2**32 - 100]


@pytest.mark.parametrize("kind", ["no-ties", "near-ties", "exact-ties"])
@pytest.mark.parametrize("n0", PIECE_STARTS)
def test_fixed_rows_at_the_edges(n0, kind):
    """_fixed_rows is the per-row "%d,%.6f" on a whole piece of rows: one of
    random values with no exact half at the sixth decimal, where rint
    decides every entry; one of near-ties (2j + 1)/2e6, many of which
    fl(v * 1e6) rounds onto a half that only "%.6f" decides; and one of odd
    multiples of 1/128, where v * 1e6 is exactly k + 1/2 and half to even
    decides."""
    rng = np.random.default_rng(n0)
    if kind == "near-ties":
        v = (2 * rng.integers(-(2**41), 2**41, cli._PIECE) + 1) / 2e6
    elif kind == "exact-ties":
        v = (2 * rng.integers(-(2**38), 2**38, cli._PIECE) + 1) / 128
    else:
        v = rng.uniform(-1e4, 1e4, cli._PIECE)
    p = np.abs(v) * 1e6
    half = np.abs(p - np.rint(p)) == 0.5
    assert {"no-ties": not half.any(), "near-ties": half.any(), "exact-ties": half.all()}[kind]
    want = "".join(f"{n},{x:.6f}\n" for n, x in enumerate(v.tolist(), n0))
    assert_same_rows(cli._fixed_rows(n0, v), want)


class CountingStringIO(io.StringIO):
    writes = 0

    def write(self, s):
        self.writes += 1
        return super().write(s)


def test_errors_writes_once_per_block(monkeypatch):
    # per order: the "# order=" line, the header, then one write per piece
    stdout = CountingStringIO()
    monkeypatch.setattr(sys, "stdout", stdout)
    n = 40_000
    assert cli.main(["errors", "--n-max", str(n), "--order", "0", "--order", "3"]) == 0
    assert stdout.getvalue().count("\n") == 2 * (2 + n)
    assert stdout.writes == 2 * (2 + math.ceil(n / cli._PIECE))


def test_errors_rows_match_per_row_fstring(capsys):
    # order 0 has both signs and 2-digit integer parts; no digest covers it, 7 or 8
    n = 20_000
    argv = ["errors", "--n-max", str(n)] + [a for k in range(9) for a in ("--order", str(k))]
    code, out, _ = run(argv, capsys)
    assert code == 0
    r = sieve.error_series(sieve.build_lambda_table(n))
    want = "".join(
        f"# order={avg.order}\nn,value\n"
        + "".join(f"{j},{v:.6f}\n" for j, v in enumerate(avg.values[1:].tolist(), 1))
        for avg in averaging.iterated_averages(r, 8)
    )
    assert_same_rows(out, want)


@pytest.mark.parametrize("orders", [["1", "9"], ["-1"], ["0", "3", "9"]])
def test_bad_order_writes_nothing(orders, capsys):
    argv = ["errors", "--n-max", "5"] + [a for o in orders for a in ("--order", o)]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err.startswith("error: order must be in [0, 8], got ")
    assert err.count("\n") == 1


def test_errors_order_zero_is_raw_r(capsys):
    code, out, _ = run(["errors", "--order", "0", "--n-max", "10"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1] == "1,-1.000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve", "--n-max", "0"],
        ["errors", "--n-max", "0"],
        ["check", "--n-max", "0"],
        ["tables", "--n-max", "2", "--allow-partial"],
    ],
)
def test_n_max_out_of_range_is_usage_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    least = 3 if argv[0] == "tables" else 1
    assert err == f"error: {argv[0]} needs --n-max >= {least}, got {argv[2]}\n"


def test_perron_row(capsys):
    code, out, _ = run(["perron", "--a", "2", "--b", "1", "--T", "1000"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "a,b,T,k,numeric,main_term,bound,gap,ratio"
    fields = row.split(",")
    assert float(fields[5]) == pytest.approx(0.5)
    assert float(fields[7]) <= float(fields[6])  # gap <= bound


@pytest.mark.parametrize("a", ["1.000001", "1.0000000000000002"])
def test_perron_row_shows_a_exactly(a, capsys):
    # rounded to 6 digits, both would read 1: the a = 1 regime, which rejects k = 3
    code, out, _ = run(["perron", "--a", a, "--T", "100", "--k", "3"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith(f"{a},1,100,3,")


@pytest.mark.parametrize("argv", ["--T 3223", "--T 9749", "--b 1e100 --T 100"])
def test_perron_a1_within_bound(argv, capsys):
    # formed as 1/(pi T) - I(T), the gap exceeds the bound at T = 3223 and 9749
    code, out, _ = run(["perron", "--a", "1", *argv.split()], capsys)
    assert code == 0
    fields = out.strip().splitlines()[1].split(",")
    assert 0 < float(fields[8]) < 1  # gap / bound


def test_perron_a1_large_b(capsys):
    # the a = 1 bound is positive at b >= 2^53, where (b + 1)^3 - b^3 cancels
    code, out, _ = run(["perron", "--a", "1", "--b", "1e16", "--T", "100"], capsys)
    assert code == 0
    bound = float(out.strip().splitlines()[1].split(",")[6])
    assert bound == pytest.approx(3.2e25, rel=0.01)


# the error bound overflows, divides by zero or underflows to 0
PERRON_BAD_BOUND = [
    "--a 2 --b 1e300 --T 100",
    "--a 1 --b 1e300 --T 100",
    "--a 2 --T 1e-300",
    "--a 1 --T 1e-300",
    "--a 0.5 --b 1e300 --T 100",
    "--a 1e-300 --b 2 --T 10",
]


@pytest.mark.parametrize(
    "argv",
    [
        "--a 2 --T inf",
        "--a inf --T 100",
        "--a 2 --b inf --T 100",
        *PERRON_BAD_BOUND,
    ],
)
def test_perron_bad_input_is_one_line_error(argv, capsys):
    t0 = time.perf_counter()
    code, out, err = run(["perron", *argv.split()], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if argv in PERRON_BAD_BOUND:
        assert "bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        "--a 1e-300 --T 1e6",  # panel quadrature needed 4.4e8 panels
        "--a 1 --b 1e-10 --T 0.5",  # panel quadrature did not converge
        "--a 0.5 --T 1000 --k 3",
    ],
)
def test_perron_within_bound_exits_0(argv, capsys):
    code, out, err = run(["perron", *argv.split()], capsys)
    assert (code, err) == (0, "")
    fields = out.strip().splitlines()[1].split(",")
    assert 0 <= float(fields[8]) <= 1  # gap / bound


def test_zerosum_row(tmp_path, capsys):
    zpath = tmp_path / "z.txt"
    zpath.write_text("14.134725142\n21.022039639\n25.010857580\n")
    code, out, _ = run(
        ["zerosum", "--zeros", str(zpath), "--x", "10000", "--T", "22", "--k", "1"],
        capsys,
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "x,T,k,value,count_used"
    assert row.split(",")[4] == "2"


def test_zerosum_row_shows_x_exactly(capsys):
    argv = ["zerosum", "--zeros", str(ZEROS), "--x", "1234567", "--T", "500"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("1234567,500,1,")  # not 1.23457e+06


@pytest.mark.parametrize("flags", ["--x nan --T 100", "--x inf --T 100", "--x 100 --T nan"])
def test_zerosum_non_finite_is_error(flags, capsys):
    argv = ["zerosum", "--zeros", str(ZEROS), *flags.split()]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", ["--x 1e4 --T 100 --k 400", "--x 1e4 --T -1"])
def test_zerosum_bad_order_or_negative_T_is_error(flags, capsys):
    code, out, err = run(["zerosum", "--zeros", str(ZEROS), *flags.split()], capsys)
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_zerosum_missing_zeros_flag(capsys):
    code, _, err = run(["zerosum", "--x", "100", "--T", "10"], capsys)
    assert code == cli.EXIT_USAGE


def test_zerosum_bad_file(tmp_path, capsys):
    zpath = tmp_path / "z.txt"
    zpath.write_text("21.0\n14.1\n")
    code, _, err = run(
        ["zerosum", "--zeros", str(zpath), "--x", "100", "--T", "10"], capsys
    )
    assert code == cli.EXIT_FAILURE
    assert "increasing" in err


def test_zerosum_non_ascii_file_names_file_and_line(tmp_path, capsys):
    # a minus sign pasted as U+2212, three bytes that are not ASCII
    zpath = tmp_path / "bad_zeros.txt"
    zpath.write_bytes("14.1\n21.0\n\u221225.0\n".encode())
    code, out, err = run(["zerosum", "--zeros", str(zpath), "--x", "100", "--T", "10"], capsys)
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err == f"error: {zpath}, line 3: not ASCII\n"


def test_zerosum_digit_group_file_names_file_and_line(tmp_path, capsys):
    # float() reads "21_022.0" as 21022.0; a zeros file may not
    zpath = tmp_path / "grouped_zeros.txt"
    zpath.write_text("14.134_725\n21_022.0\n")
    argv = ["zerosum", "--zeros", str(zpath), "--x", "100", "--T", "30000"]
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err == f"error: {zpath}, line 1: not a number: '14.134_725'\n"


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run(
        ["errors", "--order", "1", "--n-max", "20", "--output", str(dest)], capsys
    )
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[0] == "n,value"


@pytest.mark.parametrize(
    "before, link",
    [(None, False), (b"previous bytes\n", False), (None, True), (b"previous bytes\n", True)],
    ids=["new", "existing", "dangling-link", "link"],
)
def test_failed_output_leaves_no_partial_file(tmp_path, capsys, monkeypatch, before, link):
    # the chain fails at order 2, after order 1's rows have gone to the output;
    # through a symlink, dangling or not, the file it names is kept as a plain
    # path would be, and the link stays a link
    chain = averaging.iterated_averages
    orders_seen = []

    def fail_at_order_2(r, k_max):
        for avg in chain(r, k_max):
            if avg.order == 2:
                raise ValueError("order 2 failed midway")
            orders_seen.append(avg.order)
            yield avg

    monkeypatch.setattr(averaging, "iterated_averages", fail_at_order_2)
    dest = tmp_path / "f.csv"
    if before is not None:
        dest.write_bytes(before)
    given = dest
    if link:
        given = tmp_path / "link.csv"
        given.symlink_to(dest)
    argv = ["errors", "--n-max", "5", "--order", "1", "--order", "2"]
    code, out, err = run(argv + ["--output", str(given)], capsys)
    assert code == cli.EXIT_FAILURE
    assert orders_seen == [0, 1]
    assert "order 2 failed midway" in err
    left = ([] if before is None else ["f.csv"]) + (["link.csv"] if link else [])
    assert sorted(os.listdir(tmp_path)) == left
    if before is not None:
        assert dest.read_bytes() == before
    if link:
        assert given.is_symlink() and os.readlink(given) == str(dest)


def test_errors_orders_out_of_order_and_repeated(capsys):
    """Orders given out of order or repeated print exactly the single-order
    outputs, each under its "# order=" header."""
    orders = ["6", "0", "3", "3"]
    argv = ["errors", "--n-max", "3000"]
    code, out, _ = run(argv + [a for o in orders for a in ("--order", o)], capsys)
    singles = [run(argv + ["--order", o], capsys) for o in orders]
    assert code == 0 and all(single[0] == 0 for single in singles)
    assert out == "".join(f"# order={o}\n{single[1]}" for o, single in zip(orders, singles))


def count_folded(monkeypatch):
    """The number of values each compensated fold of the averaging layer
    takes, one entry per call."""
    folded = []
    real = averaging.neumaier_fold

    def counting(values, state=(0.0, 0.0), out=None):
        folded.append(len(values))
        return real(values, state, out=out)

    monkeypatch.setattr(averaging, "neumaier_fold", counting)
    return folded


ORDERS_1_TO_6 = [a for k in range(1, 7) for a in ("--order", str(k))]


@pytest.mark.parametrize(
    "argv, want",
    [
        # passes x length: rbar_1..6 from one chain, 6 passes over 500 values
        (["tables", "--allow-partial", "--n-max", "500"], 3000),
        (["errors", *ORDERS_1_TO_6, "--n-max", "500"], 3000),
        # 6 passes to order 6, then the chain restarts for 0 and runs to 3
        (["errors", "--order", "6", "--order", "0", "--order", "3", "--order", "3",
          "--n-max", "500"], 4500),
        # three chains to order 3: rbar (3 x 500), psi from check's psi
        # prefix (3 x 500), psi-hat from j = 2 (3 x 499)
        (["check", "--n-max", "500"], 4497),
        # each pass spans 2 column blocks, the state carried across them
        (["tables", "--allow-partial", "--n-max", "10000"], 60_000),
    ],
)
def test_one_fold_chain_per_command(monkeypatch, capsys, argv, want):
    folded = count_folded(monkeypatch)
    assert run(argv, capsys)[0] == 0
    assert sum(folded) == want
    assert max(folded) <= averaging._BLOCK  # one column block per fold


ERRORS_20 = ["errors", "--order", "1", "--n-max", "20", "--output"]


def test_output_through_symlink(tmp_path, capsys):
    target = tmp_path / "target.csv"
    link = tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target)
    code, out, _ = run(ERRORS_20 + [str(link)], capsys)
    assert code == 0 and out == ""
    assert link.is_symlink() and os.readlink(link) == str(target)
    lines = target.read_text().splitlines()
    assert lines[0] == "n,value" and len(lines) == 21
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]


def test_output_to_device(capsys):
    before = os.stat(os.devnull)
    code, out, _ = run(ERRORS_20 + [os.devnull], capsys)
    assert code == 0 and out == ""
    after = os.lstat(os.devnull)
    assert (after.st_mode, after.st_rdev) == (before.st_mode, before.st_rdev)


def test_output_keeps_permission_bits(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    dest.write_text("old\n")
    dest.chmod(0o640)
    code, _, _ = run(ERRORS_20 + [str(dest)], capsys)
    assert code == 0
    assert dest.stat().st_mode & 0o7777 == 0o640
    assert dest.read_text().startswith("n,value\n")


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_output_read_only_refused(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    dest.write_text("old\n")
    dest.chmod(0o444)
    code, _, err = run(ERRORS_20 + [str(dest)], capsys)
    assert code == cli.EXIT_FAILURE
    assert "error" in err.lower()
    assert dest.read_text() == "old\n"


def test_output_unwritable(capsys):
    code, _, err = run(
        ["errors", "--order", "1", "--n-max", "20", "--output", "/nonexistent/x.csv"],
        capsys,
    )
    assert code == cli.EXIT_FAILURE
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        ["errors", "--n-max", "5", "--output"],
        ["tables", "--n-max", "100000", "--output"],
        ["sieve", "--n-max", "5", "--cache"],
        ["errors", "--n-max", "5", "--cache"],
    ],
    ids=["output", "tables-output", "sieve-cache", "errors-cache"],
)
def test_output_into_missing_directory_names_the_path(tmp_path, monkeypatch, capsys, argv):
    """--cache is a plain path like --output: a missing directory is one
    I/O error naming the path asked for, and no directory is created.
    --output is opened before the sieve runs; through_cache makes its
    block generator before it opens --cache, so those keep the sieve."""
    if argv[-1] == "--output":

        def forbidden(n_max):
            raise AssertionError("sieved before --output was opened")

        monkeypatch.setattr(sieve, "lambda_blocks", forbidden)
    dest = tmp_path / "missing" / "f.csv"
    code, out, err = run(argv + [str(dest)], capsys)
    assert (code, out) == (cli.EXIT_FAILURE, "")
    assert err.startswith("I/O error: ") and err.count("\n") == 1
    assert str(dest) in err and ".tmp" not in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("spelling", ["f", "./f", "link"])
@pytest.mark.parametrize(
    "argv, before",
    [
        (["errors", "--n-max", "1000", "--cache"], None),
        (["errors", "--n-max", "1000", "--cache"], "cache"),
        (["zerosum", "--x", "100", "--T", "30", "--zeros"], "zeros"),
    ],
    ids=["errors-new-cache", "errors-cache", "zerosum-zeros"],
)
def test_output_naming_the_file_read_is_usage_error(
    tmp_path, monkeypatch, capsys, argv, before, spelling
):
    """An --output that names the --cache or --zeros file, in any spelling
    with the same os.path.realpath, is refused before anything is opened:
    exit 2, one line, and that file keeps its bytes or is not created."""
    monkeypatch.chdir(tmp_path)
    if before == "cache":
        assert run(["sieve", "--n-max", "1000", "--cache", "f"], capsys)[0] == cli.EXIT_OK
    elif before == "zeros":
        shutil.copyfile(ZEROS, "f")
    os.symlink("f", "link")
    files = {name: pathlib.Path(name).read_bytes() for name in os.listdir() if name != "link"}
    code, out, err = run([*argv, "f", "--output", spelling], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err == f"error: --output {spelling} is the --{argv[-1][2:]} file f\n"
    assert sorted(os.listdir()) == sorted([*files, "link"])
    assert {name: pathlib.Path(name).read_bytes() for name in files} == files


CHECK_PASS = "PASS sieve-psi-oracle\nPASS averaging-identities\nPASS perron-envelope\n"


def test_check_passes_without_zeros(capsys):
    want = "note: --zeros absent, zero-sum suite skipped\n" + CHECK_PASS
    assert run(["check", "--n-max", "2000"], capsys) == (cli.EXIT_OK, want, "")


def test_check_stdout_is_its_suites_in_order(capsys):
    want = CHECK_PASS + "PASS zero-sums\n"
    assert run(["check", "--zeros", str(ZEROS)], capsys) == (cli.EXIT_OK, want, "")


def test_check_forms_psi_once(monkeypatch, capsys):
    """check forms the psi prefix of its whole table once: the sieve suite
    reads psi(n <= 500) from it and the averaging suite averages it."""
    real, calls = accum.neumaier_prefix_sum, []

    def counting(values):
        calls.append(len(values))
        return real(values)

    for module in (accum, averaging, cli):  # wherever pntavg may bind it
        monkeypatch.setattr(module, "neumaier_prefix_sum", counting, raising=False)
    assert run(["check", "--n-max", "2000"], capsys)[0] == cli.EXIT_OK
    assert calls == [2001]


def test_check_catches_perturbed_average(monkeypatch, capsys):
    """The weight-form leg of the averaging suite checks the r chain's
    averages against the Lambda route, so an error of 2e-9 at n = 100 fails
    it."""
    perturb_average(monkeypatch, 0, range(9), 100, 2e-9)
    code, out, _ = run(["check", "--n-max", "2000"], capsys)
    assert code == cli.EXIT_FAILURE
    fail = next(line for line in out.splitlines() if line.startswith("FAIL "))
    assert fail == (
        "FAIL averaging-identities: weight-form rbar1(100) mismatch; "
        "weight-form rbar2(100) mismatch; weight-form rbar3(100) mismatch"
    )


def perturb_average(monkeypatch, call, orders, n, delta):
    """Make the call-th call to averaging.iterated_averages, counted from 0,
    add delta at n to each order in orders.  check's averaging suite makes
    two: call 0 averages r and call 1 the psi prefix."""
    real, calls = averaging.iterated_averages, itertools.count()

    def shift(avg):
        if avg.order not in orders:
            return avg
        values = avg.values.copy()
        values[n] += delta
        return averaging.IteratedAverage(avg.order, values)

    def perturbed(x, k_max):
        averages = real(x, k_max)
        return map(shift, averages) if next(calls) == call else averages

    monkeypatch.setattr(averaging, "iterated_averages", perturbed)


def perturb_psi_hat(monkeypatch, order, n, delta):
    """Make averaging.weighted_psi_hat_series add delta at n to order
    order's array."""
    real = averaging.weighted_psi_hat_series

    def perturbed(lam, i_max):
        for i, values in enumerate(real(lam, i_max), start=1):
            if i == order:
                values[n] += delta
            yield values

    monkeypatch.setattr(averaging, "weighted_psi_hat_series", perturbed)


def test_check_catches_a_wrong_lambda(monkeypatch, capsys):
    """The sieve suite compares psi(n) with log lcm(1..n) for n <= 500, so
    an error of 1e-6 in Lambda(97) fails it at n = 97."""
    build = sieve.build_lambda_table

    def perturbed(n_max):
        lam = build(n_max).copy()
        lam[97] += 1e-6
        return lam

    monkeypatch.setattr(sieve, "build_lambda_table", perturbed)
    code, out, _ = run(["check", "--n-max", "2000"], capsys)
    assert code == cli.EXIT_FAILURE
    assert "FAIL sieve-psi-oracle: psi(97) deviates from log lcm oracle\n" in out


def test_check_compares_the_weight_form_at_every_n(monkeypatch, capsys):
    """The weight-form leg compares every n <= 2000, so an error of 2e-9 in
    psi_1 at n = 1500 fails it."""
    perturb_average(monkeypatch, 1, [1], 1500, 2e-9)
    code, out, _ = run(["check", "--n-max", "2000"], capsys)
    assert code == cli.EXIT_FAILURE
    assert "FAIL averaging-identities: weight-form rbar1(1500) mismatch\n" in out


def test_check_compares_every_sieved_n(monkeypatch, capsys):
    """check sieves min(--n-max, 10,000) and the averaging suite looks at
    every n it sieved, so an error of 2e-9 in psi_1 at n = 8000 fails it."""
    perturb_average(monkeypatch, 1, [1], 8000, 2e-9)
    code, out, _ = run(["check", "--n-max", "10000"], capsys)
    assert code == cli.EXIT_FAILURE
    assert "FAIL averaging-identities: weight-form rbar1(8000) mismatch\n" in out


def test_check_compares_every_sieved_n_in_the_hat_leg(monkeypatch, capsys):
    """The hat identity also looks at every sieved n, so an error of 2e-8
    in psi-hat_1 at n = 8000 fails it."""
    perturb_psi_hat(monkeypatch, 1, 8000, 2e-8)
    code, out, _ = run(["check", "--n-max", "10000"], capsys)
    assert code == cli.EXIT_FAILURE
    assert "FAIL averaging-identities: hat identity order 1 gap 2.00e-08\n" in out


def test_check_fails_on_a_nan_in_the_hat_leg(monkeypatch, capsys):
    """A nan in psi-hat_1 at n = 500 fails the hat identity: the largest
    gap is taken with np.max, which a nan does not skip."""
    perturb_psi_hat(monkeypatch, 1, 500, math.nan)
    code, out, _ = run(["check", "--n-max", "2000"], capsys)
    assert code == cli.EXIT_FAILURE
    assert "FAIL averaging-identities: hat identity order 1 gap nan\n" in out


def test_check_visits_the_perron_points(monkeypatch, capsys):
    seen = []
    real = perron.perron_integral

    def recording(a, b, T, k=1):
        seen.append((a, b, T, k))
        return real(a, b, T, k)

    monkeypatch.setattr(perron, "perron_integral", recording)
    assert run(["check", "--n-max", "100"], capsys)[0] == 0
    assert seen == [(a, 1.0, T, 1) for a in (2.0, 0.5, 1.0) for T in (100.0, 1000.0)]


def test_check_sieves_10000_by_default(monkeypatch, capsys):
    built = []
    build = sieve.build_lambda_table

    def counting_build(n_max):
        built.append(n_max)
        return build(n_max)

    monkeypatch.setattr("pntavg.sieve.build_lambda_table", counting_build)
    assert run(["check"], capsys)[0] == 0
    assert built == [10_000]


@pytest.mark.parametrize("above", [False, True])
def test_check_perron_tolerance(above, monkeypatch, capsys):
    """The envelope is gap <= 4 bound + error estimate, inclusive: a gap
    exactly there passes, and the next float above it fails."""
    bound, qerr = 2.0, 0.5
    gap = 4.0 * bound + qerr
    if above:
        gap = math.nextafter(gap, math.inf)

    def at_tolerance(a, b, T, k=1):
        return perron.PerronResult(a, b, T, k, -gap, 0.0, bound, gap, qerr)

    monkeypatch.setattr(perron, "perron_integral", at_tolerance)
    code, out, _ = run(["check", "--n-max", "100"], capsys)
    assert code == (cli.EXIT_FAILURE if above else cli.EXIT_OK)
    line = next(x for x in out.splitlines() if "perron-envelope" in x)
    assert line.startswith("FAIL perron-envelope: " if above else "PASS perron-envelope")


@pytest.mark.parametrize("n_max", [1, 2, 100])
def test_check_small_n_max(n_max, capsys):
    code, out, _ = run(["check", "--n-max", str(n_max)], capsys)
    assert code == 0, out
    assert "PASS averaging-identities" in out


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    # sieve, tables and errors each fold the blocks of lambda_blocks
    def no_memory(n_max):
        raise MemoryError

    monkeypatch.setattr("pntavg.sieve.lambda_blocks", no_memory)
    for argv in (["sieve", "--n-max", "10"], ["tables", "--n-max", "100000"], ["errors"]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("n_max", [2**53 + 1, 10**30])
@pytest.mark.parametrize("command", ["sieve", "tables", "errors", "check"])
def test_n_max_beyond_float64_is_usage_error_before_any_work(command, n_max, monkeypatch, capsys):
    # r(n) = psi(n) - n is exact in float64 only up to 2**53; beyond it a
    # streamed sieve would run for years, so nothing is sieved at all
    def no_sieve(n):
        raise AssertionError(f"sieved to {n}")

    monkeypatch.setattr("pntavg.sieve.lambda_blocks", no_sieve)
    monkeypatch.setattr("pntavg.sieve.build_lambda_table", no_sieve)
    code, out, err = run([command, "--n-max", str(n_max)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    # tables and errors (order 1 by default) meet the column ceiling first
    bound = {
        "tables": f"2**32 - 6 = {2**32 - 6} for order 6",
        "errors": f"2**32 - 1 = {2**32 - 1} for order 1",
    }.get(command, f"2**53 = {2**53}")
    assert err == f"error: {command} needs --n-max <= {bound}, got {n_max}\n"


@pytest.mark.parametrize(
    "argv, k",
    [
        (["tables"], 6),
        (["errors"], 1),
        (["errors", "--order", "2"], 2),
        (["errors", "--order", "0", "--order", "8", "--order", "3"], 8),
    ],
)
def test_n_max_past_the_column_ceiling_is_usage_error_before_any_work(
    argv, k, monkeypatch, capsys
):
    """An average of order k needs n_max + k - 1 < 2**32 for its binomial
    column, so a larger --n-max exits 2 with one line before any sieve.
    One less reaches the sieve, which raises here instead of running."""

    def no_sieve(n):
        raise ValueError(f"sieved to {n}")

    monkeypatch.setattr("pntavg.sieve.lambda_blocks", no_sieve)
    top = 2**32 - k
    code, out, err = run([*argv, "--n-max", str(top + 1)], capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    why = f"2**32 - {k} = {top} for order {k}"
    assert err == f"error: {argv[0]} needs --n-max <= {why}, got {top + 1}\n"
    # just below: the bound function takes it, and the command reaches the sieve
    assert averaging.max_column_n(k) == top
    assert cli._n_max_ceiling(cli.build_parser().parse_args(argv)) == (top, why)
    got = run([*argv, "--n-max", str(top)], capsys)
    assert got == (cli.EXIT_FAILURE, "", f"error: sieved to {top}\n")


def test_order_zero_has_no_column_ceiling(monkeypatch, capsys):
    def no_sieve(n):
        raise ValueError(f"sieved to {n}")

    monkeypatch.setattr("pntavg.sieve.lambda_blocks", no_sieve)
    argv = ["errors", "--order", "0", "--n-max", str(2**53)]
    assert run(argv, capsys) == (cli.EXIT_FAILURE, "", f"error: sieved to {2**53}\n")


@pytest.mark.parametrize("text", [None, "21.0\n14.1\n"], ids=["missing", "malformed"])
def test_check_reads_zeros_before_any_suite(tmp_path, monkeypatch, capsys, text):
    """A --zeros file that cannot be read fails check with one line and
    no PASS line, before the sieve runs."""
    path = tmp_path / "zeros.txt"
    if text is not None:
        path.write_text(text)

    def forbidden(n_max):
        raise AssertionError("sieved before --zeros was read")

    monkeypatch.setattr(sieve, "build_lambda_table", forbidden)
    code, out, err = run(["check", "--n-max", "100", "--zeros", str(path)], capsys)
    assert (code, out) == (cli.EXIT_FAILURE, "")
    assert err.startswith("I/O error: " if text is None else "error: ")
    assert err.count("\n") == 1 and str(path) in err


def test_check_with_zeros(tmp_path, monkeypatch, capsys):
    seen = []
    real = zeros.zero_sum

    def recording(zset, x, T, k=1):
        seen.append((x, T, k))
        return real(zset, x, T, k)

    monkeypatch.setattr(zeros, "zero_sum", recording)
    zpath = tmp_path / "z.txt"
    zpath.write_text("14.134725142\n21.022039639\n")
    code, out, _ = run(["check", "--n-max", "2000", "--zeros", str(zpath)], capsys)
    assert code == 0
    assert "PASS zero-sums" in out
    assert seen == [(100.0, 14.134725142, 1)]  # the single-term sum at gamma_1


def test_cache_roundtrip_via_cli(tmp_path, capsys):
    cache = tmp_path / "sieve.bin"
    code1, out1, _ = run(
        ["sieve", "--n-max", "500", "--cache", str(cache)], capsys
    )
    assert code1 == 0
    assert cache.exists()
    code2, out2, _ = run(
        ["sieve", "--n-max", "500", "--cache", str(cache)], capsys
    )
    assert code2 == 0
    assert out1 == out2


def test_cache_through_symlink(tmp_path, capsys):
    """A cache path that is a symlink stays one: the cache for the new n_max
    goes to the file it points to, and a warm run reads it there."""
    target = tmp_path / "real.bin"
    link = tmp_path / "link.bin"
    assert run(["sieve", "--n-max", "500", "--cache", str(target)], capsys)[0] == 0
    link.symlink_to(target)
    code, out, _ = run(["sieve", "--n-max", "600", "--cache", str(link)], capsys)
    assert code == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.stat().st_size == 4817  # header and 600 Lambda values
    assert sorted(os.listdir(tmp_path)) == ["link.bin", "real.bin"]
    assert run(["sieve", "--n-max", "600", "--cache", str(link)], capsys)[1] == out


def _corrupt(cache):
    data = bytearray(cache.read_bytes())
    data[-3] ^= 0x7F
    cache.write_bytes(bytes(data))


def test_corrupted_cache_reported(tmp_path, capsys):
    cache = tmp_path / "sieve.bin"
    run(["sieve", "--n-max", "500", "--cache", str(cache)], capsys)
    _corrupt(cache)
    code, out, err = run(["sieve", "--n-max", "500", "--cache", str(cache)], capsys)
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "integrity" in err


@pytest.mark.parametrize("text", ["", "# comments only\n\n"], ids=["empty", "comments"])
def test_check_with_no_zeros_fails_the_zero_suite(tmp_path, capsys, text):
    path = tmp_path / "zeros.txt"
    path.write_text(text)
    code, out, err = run(["check", "--n-max", "100", "--zeros", str(path)], capsys)
    assert code == cli.EXIT_FAILURE
    assert out.splitlines()[-1] == f"FAIL zero-sums: {path} holds no zeros"
    assert err == ""


@pytest.mark.parametrize("cached, wanted", [(500, 5000), (5000, 500)], ids=["smaller", "larger"])
def test_cache_of_other_size_sieves_once(tmp_path, monkeypatch, capsys, cached, wanted):
    cache = tmp_path / "sieve.bin"
    assert run(["sieve", "--n-max", str(cached), "--cache", str(cache)], capsys)[0] == 0
    built, depth = [], []
    blocks = sieve.lambda_blocks

    def counting_blocks(n_max):
        # the top-level sieves alone: a call sieves its base primes through
        # lambda_blocks(isqrt(n_max)) before it returns, one level deeper
        if not depth:
            built.append(n_max)
        depth.append(n_max)
        try:
            return blocks(n_max)
        finally:
            depth.pop()

    monkeypatch.setattr("pntavg.sieve.lambda_blocks", counting_blocks)
    argv = ["sieve", "--n-max", str(wanted), "--cache", str(cache)]
    assert run(argv, capsys)[0] == 0
    assert built == [wanted]
    with open(cache, "rb") as f:
        assert sieve._read_header(f) == wanted
    assert run(argv, capsys)[0] == 0
    assert built == [wanted, wanted]  # the warm read validates against one sieve


@pytest.mark.parametrize("damage", ["header", "length"])
def test_malformed_cache_is_not_overwritten(tmp_path, capsys, damage):
    cache = tmp_path / "sieve.bin"
    run(["sieve", "--n-max", "100", "--cache", str(cache)], capsys)
    data = cache.read_bytes()
    data = b"X" + data[1:] if damage == "header" else data[:-8]
    cache.write_bytes(data)
    code, _, err = run(["sieve", "--n-max", "500", "--cache", str(cache)], capsys)
    assert code == cli.EXIT_FAILURE
    assert "cache" in err
    assert cache.read_bytes() == data


@contextlib.contextmanager
def within(seconds):
    """Fail the test if the block is still running after seconds, where a
    timer signal can interrupt it.  pytest.fail raises no OSError, so
    cli.main cannot report it as an I/O error."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def late(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("kind", ["fifo", "devnull", "directory"])
def test_cache_that_is_not_a_regular_file_fails_at_once(tmp_path, monkeypatch, capsys, kind):
    """Opening a FIFO to read a cache header blocks until a writer comes: a
    --cache that exists but is not a regular file is refused before it is
    opened and before any sieve, with one line, within 1 s."""
    path = {"fifo": tmp_path / "fifo", "devnull": os.devnull, "directory": tmp_path}[kind]
    if kind == "fifo":
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        os.mkfifo(path)

    def forbidden(n_max):
        raise AssertionError("sieved for a cache it cannot use")

    monkeypatch.setattr(sieve, "lambda_blocks", forbidden)
    with within(1.0):
        code, out, err = run(["sieve", "--n-max", "100", "--cache", str(path)], capsys)
    assert (code, out) == (cli.EXIT_FAILURE, "")
    assert err == f"error: cache {path} is not a regular file\n"


def test_bare_cache_name_is_relative_to_cwd(tmp_path, monkeypatch, capsys):
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.setenv("PNT_CACHE_DIR", str(elsewhere))
    monkeypatch.chdir(work)
    code, _, _ = run(["sieve", "--n-max", "300", "--cache", "bare.bin"], capsys)
    assert code == 0
    assert os.listdir(work) == ["bare.bin"]
    assert os.listdir(elsewhere) == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    ["sieve --n-max 100", "errors --n-max 20000 --order 0 --order 6"],
    ids=["sieve", "errors"],
)
def test_full_stdout_is_one_line_error(argv, unbuffered):
    """A stdout that takes no bytes is one I/O error line and exit 1, written
    at once or, buffered as outside a test run, at main()'s flush; run()
    then ends the process without a flush at interpreter exit to fail."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "pntavg.cli", *argv.split()],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    assert proc.returncode == cli.EXIT_FAILURE
    assert proc.stderr.startswith("I/O error: ") and proc.stderr.count("\n") == 1
    assert "Exception ignored" not in proc.stderr


def child(argv, closed_stdout=False):
    """python -m pntavg.cli argv, run to exit as a shell would start it:
    PYTHONUNBUFFERED is removed, so stdout through a pipe is block-buffered
    and reaches the pipe only when flushed; with closed_stdout, fd 1 is
    closed (sh's >&-), so the child has no sys.stdout."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    close = " >&-" if closed_stdout else ""
    return subprocess.run(
        ["sh", "-c", f'exec "$0" -m pntavg.cli "$@"{close}', sys.executable, *argv],
        capture_output=True,
        env=env,
    )


@pytest.mark.parametrize(
    "argv",
    ["errors --n-max 20000 --order 0 --order 6", "sieve --n-max 1000"],
    ids=["errors", "sieve"],
)
def test_piped_stdout_matches_main(argv, capsys):
    """run() ends the child with os._exit, so no interpreter exit flushes
    stdout for it: every byte main() prints must reach the pipe first."""
    code, out, _ = run(argv.split(), capsys)
    proc = child(argv.split())
    assert (proc.returncode, proc.stderr) == (code, b"")
    assert_same_rows(proc.stdout.decode("ascii"), out)


@pytest.mark.parametrize(
    "argv, code",
    [("sieve --n-max 10", 0), ("perron --a 2 --T inf", 1), ("tables --n-max 2", 2)],
    ids=["ok", "failure", "usage"],
)
def test_child_exit_code(argv, code):
    proc = child(argv.split())
    assert proc.returncode == code
    if code == cli.EXIT_OK:
        assert proc.stderr == b"" and proc.stdout.startswith(b"n_max=10\n")
    else:
        assert proc.stdout == b"" and proc.stderr.count(b"\n") == 1
        assert proc.stderr.startswith(b"error: ")


def test_child_output_file_is_complete_at_exit(tmp_path, capsys):
    argv = ["errors", "--n-max", "20000", "--order", "0", "--order", "6"]
    out = tmp_path / "o.csv"
    proc = child(argv + ["--output", str(out)])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
    assert_same_rows(out.read_text(encoding="ascii"), run(argv, capsys)[1])


@pytest.mark.parametrize("orders", ["1", "6", "3 1", "1 2 3 4 5 6"])
def test_errors_holds_one_order(tmp_path, orders):
    """errors holds r, the chain's fold sums and the one order it writes,
    8 B per n each: every order it skips or leaves is dropped before the
    next is formed, so --order 6 holds what --order 1 holds."""
    argv = ["errors", "--n-max", str(N_PEAK), "--output", str(tmp_path / "o.csv")]
    for k in orders.split():
        argv += ["--order", k]
    assert traced_peak(cli.main, argv) <= 24 * N_PEAK + 2 * MIB


def test_errors_order_0_holds_r_alone():
    """errors folds r from the sieve's blocks and never holds Lambda, so
    order 0 holds r alone, 8 B per n.  At N_PEAK the fixed block and fold
    temporaries would hide a whole Lambda; at 10^6 they do not."""
    n_max = 10**6
    argv = ["errors", "--n-max", str(n_max), "--order", "0", "--output", os.devnull]
    assert traced_peak(cli.main, argv) <= 8 * n_max + 4 * MIB


@pytest.mark.parametrize("command", ["sieve", "errors"])
def test_closed_stdout_is_one_line_error(command):
    proc = child([command, "--n-max", "10"], closed_stdout=True)
    assert proc.returncode == cli.EXIT_FAILURE
    assert proc.stderr == b"I/O error: stdout is closed\n"


def test_closed_stdout_with_output_file(tmp_path, capsys):
    argv = ["errors", "--n-max", "10"]
    out = tmp_path / "o.csv"
    proc = child(argv + ["--output", str(out)], closed_stdout=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert out.read_text(encoding="ascii") == run(argv, capsys)[1]


# numpy's dispatch targets above its X86_V2 baseline: disabling them caps
# every dispatched kernel at X86_V2
SIMD_CAP = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
# prints which of SIMD_CAP's features the process reaches, then runs
# commands over the zeros file sys.argv[2], then the sha256 of Lambda to
# 300,000: np.log and math.log first differ at the prime 285,343, so a
# dispatched log in the sieve shows there
SIMD_RUN = """import hashlib
import sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__
from pntavg import cli, sieve
print(*[f for f in sys.argv[1].split() if __cpu_features__.get(f)])
cli.main(["errors", "--n-max", "20000", "--order", "0", "--order", "6"])
cli.main(["tables", "--n-max", "100000"])
for k in ("1", "3"):
    cli.main(["zerosum", "--zeros", sys.argv[2], "--x", "10000", "--T", "2500", "--k", k])
print(hashlib.sha256(sieve.build_lambda_table(300_000).tobytes()).hexdigest())
"""


def test_outputs_independent_of_simd_dispatch():
    """The CSV writer's integer divisions, the folds, the limb columns and
    the zero sums' array arithmetic run numpy's run-time dispatched
    kernels, and the sieve must not: their output, and Lambda's bytes, must
    be the same, byte for byte, with the dispatch capped at X86_V2."""
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    default, capped = (
        subprocess.run(
            [sys.executable, "-c", SIMD_RUN, SIMD_CAP, str(ZEROS)],
            capture_output=True,
            env=child_env,
            text=True,
        )
        for child_env in (env, {**env, "NPY_DISABLE_CPU_FEATURES": SIMD_CAP})
    )
    assert default.returncode == 0, default.stderr
    if capped.returncode and "NPY_DISABLE_CPU_FEATURES" in capped.stderr:
        pytest.skip(f"numpy refuses the cap: {capped.stderr.strip().splitlines()[-1]}")
    assert capped.returncode == 0, capped.stderr
    reached, out = default.stdout.split("\n", 1)
    kept, capped_out = capped.stdout.split("\n", 1)
    if not reached:
        pytest.skip(f"this CPU reaches none of {SIMD_CAP}: the cap changes no kernel")
    if kept:
        pytest.skip(f"numpy kept {kept} under the cap")
    assert out.count("\n") == 2 * (2 + 20_000) + 20 + 2 * 2 + 1
    assert capped_out == out


@pytest.mark.parametrize(
    "argv",
    [
        "tables --bogus-flag",
        "sieve --bogus",
        "errors --order",
        "tables --cache x",
        "check --output x",
        "sieve --n-max 1e3",
        "",
        "zerosum --x 100 --T 10",
        "tables --n-max 1000",
        "errors --n-max 0",
    ],
    ids=lambda argv: argv.replace(" --", "-").replace(" ", "-") or "no-arguments",
)
def test_usage_error_is_one_line(argv, capsys):
    """argparse's own refusals and the command's come back from main() as
    EXIT_USAGE with one stderr line, not as SystemExit with usage lines."""
    code, out, err = run(argv.split(), capsys)
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_leaves_the_child_as_one_line():
    proc = child(["sieve", "--bogus"])
    assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, b"")
    assert proc.stderr == b"error: unrecognized arguments: --bogus\n"


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sieve", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pntavg sieve ")


@pytest.mark.parametrize(
    "command, flag",
    [("sieve", "--output"), ("check", "--output"), ("tables", "--cache"), ("check", "--cache")],
    ids=["sieve", "check", "tables-cache", "check-cache"],
)
def test_output_refused_where_nothing_is_written(tmp_path, command, flag):
    # sieve and check print only to stdout, so --output is a usage error;
    # tables and check always sieve afresh, so --cache is one too
    assert cli.main([command, "--n-max", "100", flag, str(tmp_path / "o.txt")]) == cli.EXIT_USAGE
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve"],
        ["errors", "--order", "0", "--order", "2"],
    ],
)
def test_larger_cache_does_not_change_output(tmp_path, capsys, argv):
    cache = tmp_path / "s.bin"
    assert run(["sieve", "--n-max", "5000", "--cache", str(cache)], capsys)[0] == 0
    plain = run(argv + ["--n-max", "300"], capsys)
    cached = run(argv + ["--n-max", "300", "--cache", str(cache)], capsys)
    assert plain[0] == 0
    assert cached == plain


def test_check_leaves_mpmath_precision(capsys):
    mpmath.mp.prec = 53
    code, _, _ = run(["check", "--n-max", "600"], capsys)
    assert code == 0
    assert mpmath.mp.prec == 53


EXPECTED = ROOT / "perfbench" / "expected.json"
DIGESTS = json.loads(EXPECTED.read_text(encoding="ascii"))["digests"]


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_matches_recorded_digest(command, capsys):
    """Every stdout the benchmark gates, paper scale included."""
    code, out, _ = run(command.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == DIGESTS[command]
