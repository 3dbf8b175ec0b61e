import hashlib
import json
import math
import os
import pathlib
import time

import mpmath
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pntavg import averaging, cli, sieve

from oracles import fmt6_dragon4

ROOT = pathlib.Path(__file__).resolve().parent.parent
ZEROS = ROOT / "data" / "zeros_2000.txt"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
    assert f"{v:.6f}" == fmt6_dragon4(v)


@given(st.integers(-(2**40), 2**40), st.integers(0, 60))
def test_fmt6_matches_dragon4_on_dyadic_ties(j, k):
    v = (2 * j + 1) / 2**k
    assert f"{v:.6f}" == fmt6_dragon4(v)


def test_errors_order_zero_is_raw_r(capsys):
    code, out, _ = run(["errors", "--order", "0", "--n-max", "10"], capsys)
    assert code == 0
    assert out.strip().splitlines()[1] == "1,-1.000000"


def test_perron_row(capsys):
    code, out, _ = run(["perron", "--a", "2", "--b", "1", "--T", "1000"], capsys)
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "a,b,T,k,numeric,main_term,bound,gap,ratio"
    fields = row.split(",")
    assert float(fields[5]) == pytest.approx(0.5)
    assert float(fields[7]) <= float(fields[6])  # gap <= bound


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
        "--a 1e-300 --T 1e6",  # would need 4.4e8 panels
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


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run(
        ["errors", "--order", "1", "--n-max", "20", "--output", str(dest)], capsys
    )
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[0] == "n,value"


@pytest.mark.parametrize("before", [None, b"previous bytes\n"], ids=["new", "existing"])
def test_failed_output_leaves_no_partial_file(tmp_path, capsys, before):
    dest = tmp_path / "f.csv"
    if before is not None:
        dest.write_bytes(before)
    argv = ["errors", "--n-max", "5", "--order", "1", "--order", "9"]
    code, out, err = run(argv + ["--output", str(dest)], capsys)
    assert code == cli.EXIT_FAILURE
    assert "order k must be in [1, 8]" in err
    assert os.listdir(tmp_path) == ([] if before is None else ["f.csv"])
    if before is not None:
        assert dest.read_bytes() == before


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


def test_check_passes_without_zeros(capsys):
    code, out, _ = run(["check", "--n-max", "2000"], capsys)
    assert code == 0
    assert "PASS sieve-psi-oracle" in out
    assert "zero-sum suite skipped" in out


def test_check_catches_perturbed_average(monkeypatch, capsys):
    """The weight-form leg of the averaging suite checks iterated_average
    against the Lambda route, so an error of 2e-9 at n = 100 fails it."""
    real = averaging.iterated_average

    def perturbed(series, k, n_max=None):
        avg = real(series, k, n_max)
        values = avg.values.copy()
        values[100] += 2e-9
        return averaging.IteratedAverage(avg.order, avg.n_max, values)

    monkeypatch.setattr(averaging, "iterated_average", perturbed)
    code, out, _ = run(["check", "--n-max", "2000"], capsys)
    assert code == cli.EXIT_FAILURE
    fail = next(line for line in out.splitlines() if line.startswith("FAIL "))
    assert fail == (
        "FAIL averaging-identities: weight-form rbar1(100) mismatch; "
        "weight-form rbar2(100) mismatch; weight-form rbar3(100) mismatch"
    )


@pytest.mark.parametrize("n_max", [1, 2, 100])
def test_check_small_n_max(n_max, capsys):
    code, out, _ = run(["check", "--n-max", str(n_max)], capsys)
    assert code == 0, out
    assert "PASS averaging-identities" in out


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def no_memory(n_max):
        raise MemoryError

    monkeypatch.setattr("pntavg.sieve.build_lambda_table", no_memory)
    code, out, err = run(["sieve", "--n-max", "10"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_with_zeros(tmp_path, capsys):
    zpath = tmp_path / "z.txt"
    zpath.write_text("14.134725142\n21.022039639\n")
    code, out, _ = run(["check", "--n-max", "2000", "--zeros", str(zpath)], capsys)
    assert code == 0
    assert "PASS zero-sums" in out


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


def _corrupt(cache):
    data = bytearray(cache.read_bytes())
    data[-3] ^= 0x7F
    cache.write_bytes(bytes(data))


def test_corrupted_cache_reported(tmp_path, capsys):
    cache = tmp_path / "sieve.bin"
    run(["sieve", "--n-max", "500", "--cache", str(cache)], capsys)
    _corrupt(cache)
    code, _, err = run(["sieve", "--n-max", "500", "--cache", str(cache)], capsys)
    assert code == cli.EXIT_FAILURE
    assert "integrity" in err


def test_check_with_corrupted_cache_is_one_line_error(tmp_path, capsys):
    cache = tmp_path / "sieve.bin"
    run(["sieve", "--n-max", "500", "--cache", str(cache)], capsys)
    _corrupt(cache)
    code, out, err = run(["check", "--n-max", "500", "--cache", str(cache)], capsys)
    assert code == cli.EXIT_FAILURE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "integrity" in err


@pytest.mark.parametrize("cached, wanted", [(500, 5000), (5000, 500)], ids=["smaller", "larger"])
def test_cache_of_other_size_sieves_once(tmp_path, monkeypatch, capsys, cached, wanted):
    cache = tmp_path / "sieve.bin"
    assert run(["sieve", "--n-max", str(cached), "--cache", str(cache)], capsys)[0] == 0
    built = []
    build = sieve.build_lambda_table

    def counting_build(n_max):
        built.append(n_max)
        return build(n_max)

    monkeypatch.setattr("pntavg.sieve.build_lambda_table", counting_build)
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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["tables", "--bogus-flag"])
    assert exc.value.code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["sieve"],
        ["errors", "--order", "0", "--order", "2"],
        ["tables", "--allow-partial"],
        ["check"],
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
