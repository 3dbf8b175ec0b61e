import math
import os
import struct

import numpy as np
import pytest

from pntavg import cli, sieve
from pntavg.accum import neumaier_prefix_sum

from conftest import MIB, N_PEAK, traced_peak
from oracles import is_prime_trial, lambda_spf_loop, neumaier_whole, psi_lcm, psi_lcm_all


def test_lambda_values(lam_small):
    lam = lam_small
    assert lam.dtype == np.float64 and lam.shape == (2001,)
    assert lam[1] == 0.0
    assert lam[2] == pytest.approx(math.log(2), abs=1e-15)
    assert lam[6] == 0.0
    assert lam[9] == pytest.approx(math.log(3), abs=1e-15)  # 9 = 3^2
    assert lam[12] == 0.0
    assert lam[128] == pytest.approx(math.log(2), abs=1e-15)  # 2^7


def test_lambda_positive_iff_prime_power(lam_small):
    for n in range(1, 500):
        is_pp = False
        for p in range(2, n + 1):
            if is_prime_trial(p):
                m = p
                while m < n:
                    m *= p
                if m == n:
                    is_pp = True
                    break
        assert (lam_small[n] > 0) == (is_pp and n > 1), n


def _flags(n_max: int) -> np.ndarray:
    """The primality flags that the prime offsets of lambda_blocks(n_max)
    set, 1-indexed."""
    flags = np.zeros(n_max + 1, dtype=bool)
    for lo, _, primes in sieve.lambda_blocks(n_max):
        flags[lo + primes] = True
    return flags


def _theta(n_max: int) -> float:
    return sieve.chebyshev(sieve.lambda_blocks(n_max))[1]


def test_table_bitwise_equals_spf_loop():
    # 300_000 passes 285343, the first prime whose np.log is 1 ulp away
    # from math.log with numpy's vectorised log.
    # and each block and strike segment edge: the fold of the blocks is psi, theta and pi
    # bit for bit, at every x <= 300 and at each listed n_max
    # the psi prefix error_series and check form is the oracle's, bit for
    # bit, and so is the r that error_fold folds from the blocks, the
    # Neumaier state carried across each edge
    seg, strike = sieve._SEGMENT, sieve._STRIKE
    edges = [seg - 1, seg, seg + 1, 100_000, 2 * seg + 1]
    edges += [strike - 1, strike, strike + 1, strike + seg + 1, 300_000]
    for n_max in [*range(1, 301), 961, 1024, *edges]:
        lam = sieve.build_lambda_table(n_max)
        want = lambda_spf_loop(n_max)
        assert lam.dtype == want["lam"].dtype, n_max
        assert lam.tobytes() == want["lam"].tobytes(), n_max
        r = want["psi_prefix"] - np.arange(n_max + 1)
        assert sieve.error_series(lam).tobytes() == r.tobytes(), n_max
        assert sieve.error_fold(n_max, sieve.lambda_blocks(n_max)).tobytes() == r.tobytes(), n_max
        assert neumaier_prefix_sum(lam).tobytes() == want["psi_prefix"].tobytes(), n_max
        assert _flags(n_max).tobytes() == want["is_prime"].tobytes(), n_max
        psi, theta, pi = sieve.chebyshev(sieve.lambda_blocks(n_max))
        assert psi.hex() == float(want["psi_prefix"][n_max]).hex(), n_max
        assert theta.hex() == float(want["theta_prefix"][n_max]).hex(), n_max
        assert pi == int(want["pi_prefix"][n_max]), n_max


@pytest.mark.parametrize("n_max", [4224, 4225, 4226, 20_000])
def test_base_primes_cross_blocks_and_strike_segments(n_max, monkeypatch):
    # with 16-value blocks and 64-value strike segments the base primes, which
    # lambda_blocks sieves at isqrt(n_max), fill several blocks and, from
    # 65^2 = 4225 on, more than one strike segment of that inner sieve
    monkeypatch.setattr(sieve, "_SEGMENT", 16)
    monkeypatch.setattr(sieve, "_STRIKE", 64)
    want = lambda_spf_loop(n_max)
    assert sieve.build_lambda_table(n_max).tobytes() == want["lam"].tobytes()
    assert _flags(n_max).tobytes() == want["is_prime"].tobytes()


def test_errors_through_a_warm_cache_prints_the_uncached_bytes(tmp_path, capsys):
    # the r folded from the cache's blocks past a strike segment edge and a
    # block edge is the r folded from the sieve's, bit for bit
    n_max = sieve._STRIKE + sieve._SEGMENT + 1
    argv = ["errors", "--n-max", str(n_max), "--order", "0", "--order", "1"]
    cached = argv + ["--cache", str(tmp_path / "sieve.bin")]
    outputs = []
    for args in (argv, cached, cached):  # uncached, then cold, then warm
        assert cli.main(args) == 0
        outputs.append(capsys.readouterr().out)
    same = outputs == [outputs[0]] * 3  # bound first: pytest diffs no megabyte strings
    assert same


def test_chebyshev_equals_whole_array_fold():
    """chebyshev folds psi over the nonzero Lambda of each block alone; a
    zero moves neither the sum nor its compensation, so psi is bitwise the
    fold over every Lambda value, at every x below 300, at the block and
    strike segment edges and up to 2,000,007."""
    seg, strike = sieve._SEGMENT, sieve._STRIKE
    edges = [seg - 1, seg + 1, 2 * seg, 100_000, strike - 1, strike + 1, 3 * strike + 5]
    for n_max in [*range(1, 300), *edges, 10**6, 2_000_007]:
        lam = sieve.build_lambda_table(n_max)
        is_prime = _flags(n_max)
        want = (neumaier_whole(lam[1:]), neumaier_whole(lam[is_prime]), int(is_prime.sum()))
        psi, theta, pi = sieve.chebyshev(sieve.lambda_blocks(n_max))
        assert (psi.hex(), theta.hex(), pi) == (want[0].hex(), want[1].hex(), want[2]), n_max


@pytest.mark.parametrize("n_max", [1, 10, sieve._SEGMENT + 1, sieve._STRIKE + 5])
def test_blocks_carry_the_prime_offsets(n_max):
    """Each block's offsets are sorted integers, Lambda at lo + i is
    math.log(lo + i) bit for bit at each, every other nonzero Lambda is at
    a prime power p^k with k >= 2, and the offsets count pi(n_max)."""
    count = 0
    for lo, lam, primes in sieve.lambda_blocks(n_max):
        assert primes.dtype.kind == "i" and np.all(np.diff(primes) > 0), lo
        want = np.array([math.log(n) for n in (lo + primes).tolist()])
        assert lam[primes].tobytes() == want.tobytes(), lo
        others = np.setdiff1d(np.flatnonzero(lam), primes)
        for n in (lo + others).tolist():
            p = next(p for p in range(2, math.isqrt(n) + 1) if n % p == 0)
            k = round(math.log(n, p))
            assert k >= 2 and p**k == n and is_prime_trial(p), n
        count += len(primes)
    assert count == sum(map(is_prime_trial, range(1, n_max + 1)))


def test_psi_trivial(psi_small):
    assert psi_small[1] == 0.0
    assert psi_small[2] == pytest.approx(math.log(2), abs=1e-15)
    # psi(10) = log lcm(1..10) = log 2520
    assert psi_small[10] == pytest.approx(math.log(2520), abs=1e-12)


def test_psi_matches_lcm_oracle(psi_small):
    ref = psi_lcm_all(2000)
    for n in range(1, 2001):
        assert abs(psi_small[n] - ref[n]) <= 1e-9, n


def test_psi_prefix_monotone(psi_small):
    assert np.all(np.diff(psi_small[1:]) >= 0)


def test_theta_and_pi():
    assert sieve.chebyshev(sieve.lambda_blocks(1))[1:] == (0.0, 0)
    _, theta, pi = sieve.chebyshev(sieve.lambda_blocks(10))
    assert pi == 4
    # product of primes <= 10 is 210
    assert theta == pytest.approx(math.log(210), abs=1e-12)


def test_pi_against_trial_division():
    flags = _flags(10_000)
    assert [n for n in range(1, 10_001) if flags[n]] == [
        n for n in range(1, 10_001) if is_prime_trial(n)
    ]


def test_psi_theta_decomposition(psi_small):
    # psi(n) - theta(n) = sum_{m >= 2} theta(floor(n^(1/m)))
    for n in (100, 1000):
        total = 0.0
        m = 2
        while 2**m <= n:
            root = int(round(n ** (1.0 / m)))
            while root**m > n:
                root -= 1
            while (root + 1) ** m <= n:
                root += 1
            total += _theta(root)
            m += 1
        diff = psi_small[n] - _theta(n)
        assert diff == pytest.approx(total, abs=1e-9)
        assert psi_small[n] >= _theta(n)


def test_error_series(lam_small):
    r = sieve.error_series(lam_small)
    assert r.dtype == np.float64 and len(r) == len(lam_small)
    assert not r.flags.writeable
    assert r[0] == 0.0 and r[1] == -1.0
    assert r[10] == pytest.approx(psi_lcm(10) - 10, abs=1e-9)
    # r(n) - r(n-1) = Lambda(n) - 1 within an ulp
    for n in range(2, 2001):
        lhs = r[n] - r[n - 1]
        rhs = lam_small[n] - 1.0
        assert lhs == pytest.approx(rhs, abs=1e-10), n


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sieve.build_lambda_table(0)
    for bad in (2.0, True, -1):
        with pytest.raises(ValueError, match="^n_max must be >= 1, got "):
            sieve.build_lambda_table(bad)
    # a numpy integer gives the int's result, bit for bit
    lam = sieve.build_lambda_table(300)
    assert sieve.build_lambda_table(np.int64(300)).tobytes() == lam.tobytes()


def test_determinism():
    lam1 = sieve.build_lambda_table(300)
    lam2 = sieve.build_lambda_table(300)
    assert lam1.tobytes() == lam2.tobytes()
    assert sieve.error_series(lam1).tobytes() == sieve.error_series(lam2).tobytes()


def test_table_immutable(lam_small, r_small):
    for arr in (lam_small, r_small):
        with pytest.raises(ValueError):
            arr[2] = 1.0


def test_cache_roundtrip(tmp_path, lam_small):
    path = tmp_path / "sieve.bin"
    sieve.write_cache(lam_small, path)
    loaded = sieve.read_cache(path)
    assert loaded.tobytes() == lam_small.tobytes()
    assert not loaded.flags.writeable


def test_cache_bad_magic(tmp_path, lam_small):
    path = tmp_path / "sieve.bin"
    sieve.write_cache(lam_small, path)
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(sieve.CacheError):
        sieve.read_cache(path)


def test_cache_corrupted_payload(tmp_path, lam_small):
    path = tmp_path / "sieve.bin"
    sieve.write_cache(lam_small, path)
    data = bytearray(path.read_bytes())
    data[-5] ^= 0x41  # flip bits inside a Lambda value
    path.write_bytes(bytes(data))
    with pytest.raises(sieve.CacheError):
        sieve.read_cache(path)


def test_cache_truncated(tmp_path, lam_small):
    path = tmp_path / "sieve.bin"
    sieve.write_cache(lam_small, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(sieve.CacheError):
        sieve.read_cache(path)


def test_cache_zeroed_prime_rejected(tmp_path, lam_small):
    # Every entry of a zeroed Lambda(7) payload is still a valid log p or 0,
    # so only a comparison with a fresh sieve catches it (psi(10) would
    # read 5.886 instead of log 2520 = 7.832).
    path = tmp_path / "sieve.bin"
    sieve.write_cache(lam_small, path)
    data = bytearray(path.read_bytes())
    offset = len(sieve.CACHE_MAGIC) + 8 + 8 * (7 - 1)
    data[offset : offset + 8] = struct.pack("<d", 0.0)
    path.write_bytes(bytes(data))
    with pytest.raises(sieve.CacheError, match="integrity"):
        sieve.read_cache(path)


def test_cache_forged_header_rejected_before_sieving(tmp_path, monkeypatch):
    path = tmp_path / "sieve.bin"
    path.write_bytes(sieve.CACHE_MAGIC + struct.pack("<Q", 2**40) + bytes(64))

    def no_sieve(n_max):
        raise AssertionError(f"sieved to {n_max} for a forged header")

    monkeypatch.setattr(sieve, "build_lambda_table", no_sieve)
    monkeypatch.setattr(sieve, "lambda_blocks", no_sieve)
    with pytest.raises(sieve.CacheError, match="length"):
        sieve.read_cache(path)


class _FailingArray:
    def __len__(self):
        return 2001

    def __getitem__(self, key):
        raise OSError("disk full")


def test_failed_cache_write_keeps_previous(tmp_path, lam_small):
    path = tmp_path / "sieve.bin"
    sieve.write_cache(lam_small, path)
    before = path.read_bytes()
    # the header is written, then reading the payload fails part-way
    broken = _FailingArray()
    with pytest.raises(OSError, match="disk full"):
        sieve.write_cache(broken, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["sieve.bin"]


def test_failed_cold_write_keeps_previous_cache(tmp_path, monkeypatch, capsys):
    # a cache for another n_max is replaced, and the sieve fails once the
    # header and the first segment are written; the base primes, sieved at
    # isqrt(n_max), are left whole
    path = tmp_path / "sieve.bin"
    assert cli.main(["sieve", "--n-max", "500", "--cache", str(path)]) == 0
    before = path.read_bytes()
    blocks = sieve.lambda_blocks
    n_max = 3 * sieve._SEGMENT

    def fails_after_one_segment():
        yield next(blocks(n_max))
        raise MemoryError

    monkeypatch.setattr(
        sieve, "lambda_blocks", lambda n: fails_after_one_segment() if n == n_max else blocks(n)
    )
    argv = ["sieve", "--n-max", str(n_max), "--cache", str(path)]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["sieve.bin"]


def test_cache_damage_found_block_by_block(tmp_path, monkeypatch, capsys):
    # n_max spans two segments; a flipped bit in the first entry, on either
    # side of the segment edge or in the last entry, and a payload cut at
    # the edge after the size check, each raise CacheError, in read_cache
    # and in a warm `pntavg sieve`
    block = sieve._SEGMENT
    n_max = block + 100
    path = tmp_path / "sieve.bin"
    sieve.write_cache(sieve.build_lambda_table(n_max), path)
    good = path.read_bytes()
    argv = ["sieve", "--n-max", str(n_max), "--cache", str(path)]

    def found_by_both():
        with pytest.raises(sieve.CacheError, match="integrity"):
            sieve.read_cache(path)
        assert cli.main(argv) == cli.EXIT_FAILURE
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cache integrity check failed")
        assert err.count("\n") == 1

    for entry in (0, block - 1, block, n_max - 1):
        data = bytearray(good)
        data[sieve._HEADER + 8 * entry] ^= 0x01
        path.write_bytes(bytes(data))
        found_by_both()
    path.write_bytes(good[: sieve._HEADER + 8 * block])

    def size_checked_before_the_cut(f):
        f.seek(sieve._HEADER)
        return n_max

    monkeypatch.setattr(sieve, "_read_header", size_checked_before_the_cut)
    found_by_both()


def test_table_and_cache_read_hold_each_array_once(tmp_path):
    # Lambda (8 B per n) is the one whole array; the sieve and the cache
    # fill it a segment at a time
    path = tmp_path / "sieve.bin"
    sieve.write_cache(sieve.build_lambda_table(N_PEAK), path)
    assert traced_peak(sieve.build_lambda_table, N_PEAK) <= 8 * N_PEAK + 2 * MIB
    assert traced_peak(sieve.read_cache, path) <= 8 * N_PEAK + 2 * MIB


def test_error_series_allocates_r_alone():
    # the psi prefix is formed in r, and n subtracted a segment at a time
    lam = sieve.build_lambda_table(N_PEAK)
    assert traced_peak(sieve.error_series, lam) <= 8 * N_PEAK + MIB


@pytest.mark.parametrize("cache", ["cold", "warm", "none"])
def test_sieve_command_holds_no_whole_array(tmp_path, capsys, cache):
    # psi, theta and pi are folded segment by segment, so the peak does
    # not grow with n: a whole table at this n_max would take 34 MB
    n_max = 2_000_000
    path = tmp_path / "sieve.bin"
    argv = ["sieve", "--n-max", str(n_max)]
    if cache == "warm":
        sieve.write_cache(sieve.build_lambda_table(n_max), path)
    if cache != "none":
        argv += ["--cache", str(path)]
    assert traced_peak(cli.main, argv) <= 4 * MIB
    assert capsys.readouterr().out.startswith(f"n_max={n_max}\npsi({n_max})=")
    assert path.exists() == (cache != "none")
