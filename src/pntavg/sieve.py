"""Von Mangoldt sieve and the Chebyshev functions psi, theta, pi.

Lambda(n) = log p when n = p^m for a prime p, else 0.  lambda_blocks
yields Lambda and the offsets of the primes _SEGMENT values of n at a time
from a segmented sieve of Eratosthenes (Bays and Hudson, BIT 17, 1977): in
each strike segment of _STRIKE values every base prime p <= sqrt(n_max),
from lambda_blocks(isqrt(n_max)), strikes out its multiples from p^2 on,
with one slice assignment, and the segment's flags serve the blocks inside
it.  Each prime takes log p, and each higher power p^k <= n_max the same
value, so the sieve holds O(sqrt(n_max) + _STRIKE).  chebyshev folds the
blocks into psi, theta and pi, as `pntavg sieve` prints them, and
error_fold into r[n] = psi(n) - n, which `tables` and `errors` read without
holding Lambda.  The whole arrays are read-only float64 arrays indexed by
n: build_lambda_table gives lam[n] = Lambda(n), and error_series gives r
from it by the same fold.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import stat
import struct
from pathlib import Path

import numpy as np

from ._args import check_int
from .accum import neumaier_fold

CACHE_MAGIC = b"PNTSIEVE1"
_SEGMENT = 1 << 16  # values of n per yielded block, cache block and fold step
_STRIKE = 1 << 18  # values of n per strike segment: four blocks


class CacheError(ValueError):
    """Raised when a sieve cache file is malformed or fails validation."""


def lambda_blocks(n_max: int):
    """(lo, lam, primes) per block, with lam[i] = Lambda(lo + i) for _SEGMENT
    values of n from lo = 1, 1 + _SEGMENT, ..., the last one shorter, and
    primes the sorted offsets i at which lo + i is prime.  The sieve strikes
    _STRIKE values at a time, and each strike segment serves the blocks
    inside it.  Checks n_max (an integer >= 1) and sieves the base primes,
    lambda_blocks(isqrt(n_max)), when called, then each strike segment when
    its first block is asked for."""
    check_int("n_max", n_max, 1)
    n_max = int(n_max)
    root = math.isqrt(n_max)
    base = []  # the primes up to root, from this sieve one level down; none below 4
    if root > 1:
        base = np.concatenate([primes + lo for lo, _, primes in lambda_blocks(root)]).tolist()
    powers = []  # (p^k, log p) for each higher power p^k <= n_max of a base prime p
    for p in base:
        q, log_p = p * p, math.log(p)
        while q <= n_max:
            powers.append((q, log_p))
            q *= p
    powers.sort()

    def segments():
        for start in range(1, n_max + 1, _STRIKE):
            end = min(start + _STRIKE, n_max + 1)
            is_prime = np.ones(end - start, dtype=bool)
            is_prime[0] = start > 1  # 1 is not prime
            for p in base:
                if p * p >= end:
                    break
                is_prime[max(p * p, -(-start // p) * p) - start :: p] = False
            for lo in range(start, end, _SEGMENT):
                hi = min(lo + _SEGMENT, end)
                primes = np.flatnonzero(is_prime[lo - start : hi - start])
                lam = np.zeros(hi - lo)
                # math.log, not np.log: np.log is 1 ulp off on some primes below 1e6.
                lam[primes] = np.fromiter(map(math.log, (primes + lo).tolist()), float, len(primes))
                for q, log_p in powers[bisect.bisect(powers, (lo,)) : bisect.bisect(powers, (hi,))]:
                    lam[q - lo] = log_p
                yield lo, lam, primes

    return segments()


def _table(n_max: int, blocks) -> np.ndarray:
    """lam[n] = Lambda(n) for n <= n_max, lam[0] = 0, read-only, filled
    from blocks, which cover 1..n_max."""
    lam = np.zeros(n_max + 1)
    for lo, block_lam, _ in blocks:
        lam[lo : lo + len(block_lam)] = block_lam
    lam.flags.writeable = False
    return lam


def build_lambda_table(n_max: int) -> np.ndarray:
    """lam[n] = Lambda(n) for n <= n_max, lam[0] = 0, read-only.

    Raises ValueError unless n_max is an integer >= 1.  Deterministic:
    equal n_max gives bitwise-equal arrays.
    """
    return _table(n_max, lambda_blocks(n_max))


def chebyshev(blocks) -> tuple[float, float, int]:
    """(psi(x), theta(x), pi(x)) at x, the last n of blocks, folded block by
    block: psi carries the compensated sum of Lambda, theta that of Lambda
    at the prime offsets, and pi counts the offsets.  The split into blocks
    moves no bit, since each block carries the Neumaier state of the one
    before, and neither does folding psi over the nonzero Lambda alone: a
    zero adds exactly 0 to both the sum and its compensation."""
    psi = theta = (0.0, 0.0)
    pi = 0
    for _, lam, primes in blocks:
        psi = neumaier_fold(np.compress(lam != 0, lam), psi)
        theta = neumaier_fold(lam[primes], theta)
        pi += len(primes)
    return float(psi[0] + psi[1]), float(theta[0] + theta[1]), pi


def error_fold(n_max: int, blocks) -> np.ndarray:
    """r[n] = psi(n) - n for n <= n_max, r[0] = 0, read-only, folded from
    blocks, which cover 1..n_max: each block's psi prefix is written into
    its slice of r, the Neumaier state carried from the block before, and
    n is subtracted there.  r is the one whole array it allocates."""
    r = np.zeros(n_max + 1)
    state = (0.0, 0.0)
    for lo, lam, _ in blocks:
        part = r[lo : lo + len(lam)]
        state = neumaier_fold(lam, state, out=part)
        part -= np.arange(lo, lo + len(part), dtype=float)
    r.flags.writeable = False
    return r


def _slices(lam: np.ndarray):
    """Blocks (lo, lam[lo : lo + _SEGMENT], None) of lam[1:], views, as
    lambda_blocks yields them but without the prime offsets."""
    return ((lo, lam[lo : lo + _SEGMENT], None) for lo in range(1, len(lam), _SEGMENT))


def error_series(lam: np.ndarray) -> np.ndarray:
    """r[n] = psi(n) - n for every n of lam = build_lambda_table(n_max),
    r[0] = 0, read-only: error_fold over lam's blocks, so bit for bit the r
    that `tables` and `errors` fold from the sieve."""
    return error_fold(len(lam) - 1, _slices(lam))


# -- binary cache -----------------------------------------------------------
#
# Format: magic "PNTSIEVE1", little-endian u64 n_max, then n_max float64
# Lambda values for n = 1..n_max.  A cache is accepted only if its payload
# equals a fresh sieve bit for bit, so it can never change what is computed.

_HEADER = len(CACHE_MAGIC) + 8


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """open() a temporary file beside the file path names, through any
    symlink, os.replace it onto that file when the block completes, remove
    it on any exception: the file is never half-written, and a link stays a
    link.  The new file keeps the permission bits of the file it replaces."""
    real = Path(os.path.realpath(path))
    tmp = real.with_name(f"{real.name}.{os.getpid()}.tmp")
    try:
        f = open(tmp, mode, **kwargs)
    except OSError as exc:  # name the path asked for, not the temporary
        exc.filename = str(Path(path))
        raise
    try:
        with f:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(real.stat().st_mode))
            yield f
        os.replace(tmp, real)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _passed(f, blocks, write: bool):
    """The blocks, each one's Lambda values first written to f or, unless
    write, read into a fresh array and compared bitwise with it: the first
    difference, or entries cut short, raises CacheError.  The array read is
    dropped before the block is yielded, so it never meets the consumer's."""
    for block in blocks:
        lam = block[1].astype("<f8", copy=False)
        if write:
            f.write(lam)
        else:
            cached = np.empty(len(lam), dtype="<u8")
            if f.readinto(cached) != cached.nbytes or not np.array_equal(cached, lam.view("<u8")):
                raise CacheError("cache integrity check failed: Lambda differs from a fresh sieve")
            del cached
        yield block


def _written(path, n_max: int, blocks, fold):
    """fold(blocks), the blocks written as they pass to the cache for n_max
    through atomic_open: a failure keeps any old cache, a link stays a link."""
    with atomic_open(path, "wb") as f:
        f.write(CACHE_MAGIC + struct.pack("<Q", n_max))
        return fold(_passed(f, blocks, write=True))


def write_cache(lam: np.ndarray, path) -> None:
    """Write lam[1:], the Lambda values of build_lambda_table, as a cache
    at path, _SEGMENT at a time."""
    _written(path, len(lam) - 1, _slices(lam), list)  # the list holds views of lam alone


def _read_header(f) -> int:
    """The n_max of an open cache file, after checking its magic and size."""
    head = f.read(_HEADER)
    if len(head) < _HEADER or head[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheError("bad cache header")
    (n_max,) = struct.unpack_from("<Q", head, len(CACHE_MAGIC))
    if n_max < 1 or os.fstat(f.fileno()).st_size != _HEADER + 8 * n_max:
        raise CacheError(f"cache length mismatch for n_max = {n_max}")
    return n_max


def read_cache(path) -> np.ndarray:
    """The Lambda array, as build_lambda_table gives it, that a cache file
    holds.  Its header and size are checked before
    anything is allocated, so a forged n_max cannot trigger a large sieve;
    then each segment of lambda_blocks is compared with the payload as it
    passes into the array."""
    with open(path, "rb") as f:
        n_max = _read_header(f)
        return _table(n_max, _passed(f, lambda_blocks(n_max), write=False))


def through_cache(path, n_max: int, fold):
    """fold(lambda_blocks(n_max)), each block passed through the cache at
    path, if any: compared with a cache whose header holds n_max, else
    written in place of a missing file or a cache for any other n_max.  A
    path that is not a regular file, or a bad header or length, raises
    CacheError and leaves the file as it is; a missing directory, OSError."""
    if not path:
        return fold(lambda_blocks(n_max))
    if os.path.exists(path):
        if not os.path.isfile(path):  # opening a FIFO to read would block
            raise CacheError(f"cache {path} is not a regular file")
        with open(path, "rb") as f:
            if _read_header(f) == n_max:
                return fold(_passed(f, lambda_blocks(n_max), write=False))
    return _written(path, n_max, lambda_blocks(n_max), fold)

