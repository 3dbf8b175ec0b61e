"""Von Mangoldt sieve and the Chebyshev functions psi, theta, pi.

The core object is a LambdaTable holding Lambda(n) for 1 <= n <= n_max,
its compensated prefix sum and the primality flags, built in O(n).  psi(x)
and the error series r(n) = psi(n) - n are O(1) lookups in the prefix;
theta(x) and pi(x) are O(x) passes over the primes, since only
`pntavg sieve` prints them, once each.

Lambda(n) = log p when n = p^m for a prime p, else 0.  Primality comes
from a vectorised sieve of Eratosthenes: each prime p <= sqrt(n_max)
strikes out p^2, p^2 + p, ... with one slice assignment.  Each prime
takes log p, and each higher power p^k <= n_max of a prime p <= sqrt(n_max)
takes the same value.
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .accum import neumaier_prefix_sum, neumaier_sum

CACHE_MAGIC = b"PNTSIEVE1"


class CacheError(ValueError):
    """Raised when a sieve cache file is malformed or fails validation."""


@dataclass(frozen=True)
class LambdaTable:
    """Sieved Lambda values, their prefix sum and primality up to n_max.

    Arrays are 1-indexed (index 0 unused) and frozen after construction:

        lam[n]         Lambda(n)
        psi_prefix[n]  psi(n) = sum_{m <= n} Lambda(m), so psi is O(1)
        is_prime[n]    primality flag from the sieve, so theta and pi are O(x)
    """

    n_max: int
    lam: np.ndarray
    psi_prefix: np.ndarray
    is_prime: np.ndarray


@dataclass(frozen=True)
class ErrorSeries:
    """r[n] = psi(n) - n for 1 <= n <= n_max (index 0 unused)."""

    n_max: int
    r: np.ndarray


def build_lambda_table(n_max: int) -> LambdaTable:
    """Sieve Lambda(n) for n <= n_max and accumulate the psi prefix.

    Raises ValueError for n_max < 1.  Deterministic: equal n_max gives
    bitwise-equal tables.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")

    root = math.isqrt(n_max)
    is_prime = np.ones(n_max + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, root + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False

    primes = np.flatnonzero(is_prime)
    lam = np.zeros(n_max + 1)
    # math.log, not np.log: np.log is 1 ulp off on some primes below 1e6.
    lam[primes] = [math.log(p) for p in primes.tolist()]
    for p in primes[primes <= root].tolist():
        q = p * p
        while q <= n_max:
            lam[q] = lam[p]
            q *= p

    psi_prefix = np.zeros(n_max + 1)
    psi_prefix[1:] = neumaier_prefix_sum(lam[1:])

    for arr in (lam, psi_prefix, is_prime):
        arr.flags.writeable = False
    return LambdaTable(n_max, lam, psi_prefix, is_prime)


def _check_range(table: LambdaTable, x: int) -> None:
    if not 1 <= x <= table.n_max:
        raise ValueError(f"x = {x} outside table range [1, {table.n_max}]")


def psi(table: LambdaTable, x: int) -> float:
    """Chebyshev psi(x) = sum_{n <= x} Lambda(n) = log lcm(1..x)."""
    _check_range(table, x)
    return float(table.psi_prefix[x])


def theta(table: LambdaTable, x: int) -> float:
    """Chebyshev theta(x) = sum over primes p <= x of log p, in O(x).

    Bitwise what a compensated prefix over Lambda(n) [n prime] would hold
    at x: the skipped terms are +0.0, which leave Neumaier's state as is.
    """
    _check_range(table, x)
    return neumaier_sum(table.lam[1 : x + 1][table.is_prime[1 : x + 1]])


def prime_pi(table: LambdaTable, x: int) -> int:
    """Number of primes <= x, in O(x)."""
    _check_range(table, x)
    return int(np.count_nonzero(table.is_prime[: x + 1]))


def error_series(table: LambdaTable, n_max: int | None = None) -> ErrorSeries:
    """Error series r[n] = psi(n) - n for n <= n_max (default: whole table)."""
    if n_max is None:
        n_max = table.n_max
    if not 1 <= n_max <= table.n_max:
        raise ValueError(f"n_max = {n_max} outside table range [1, {table.n_max}]")
    r = np.zeros(n_max + 1)
    r[1:] = table.psi_prefix[1 : n_max + 1] - np.arange(1, n_max + 1, dtype=float)
    r.flags.writeable = False
    return ErrorSeries(n_max, r)


# -- binary cache -----------------------------------------------------------
#
# Format: magic "PNTSIEVE1", little-endian u64 n_max, then n_max float64
# Lambda values for n = 1..n_max.  A cache is accepted only if its payload
# equals a fresh sieve bit for bit, so it can never change what is computed.

_HEADER = len(CACHE_MAGIC) + 8


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """open() a temporary file beside path, os.replace it onto path when the
    block completes, remove it on any exception: path is never half-written.
    The new file keeps the permission bits of the file it replaces."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_cache(table: LambdaTable, path) -> None:
    """Write the cache through atomic_open: a failed write keeps any old cache."""
    with atomic_open(path, "wb") as f:
        f.write(CACHE_MAGIC)
        f.write(struct.pack("<Q", table.n_max))
        f.write(table.lam[1:].astype("<f8", copy=False))


def _read_header(f) -> int:
    """The n_max of an open cache file, after checking its magic and size."""
    head = f.read(_HEADER)
    if len(head) < _HEADER or head[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise CacheError("bad cache header")
    (n_max,) = struct.unpack_from("<Q", head, len(CACHE_MAGIC))
    if n_max < 1 or os.fstat(f.fileno()).st_size != _HEADER + 8 * n_max:
        raise CacheError(f"cache length mismatch for n_max = {n_max}")
    return n_max


def read_cache(path) -> LambdaTable:
    """Load a cache file and return the table it holds.

    The header and the file size are checked before anything is allocated,
    so a forged n_max cannot trigger a large sieve.  The table is then
    sieved afresh and the payload must equal its Lambda values bitwise;
    any difference raises CacheError.
    """
    with open(path, "rb") as f:
        n_max = _read_header(f)
        table = build_lambda_table(n_max)
        payload = np.fromfile(f, dtype="<u8", count=n_max)
    if not np.array_equal(payload, table.lam[1:].astype("<f8", copy=False).view("<u8")):
        raise CacheError("cache integrity check failed: Lambda differs from a fresh sieve")
    return table


def load_or_build_table(path, n_max: int) -> LambdaTable:
    """The table for n_max, sieved exactly once.

    With no path (None or empty) nothing is read or written.  A cache at
    path whose header holds n_max is read (and so validated against that
    one sieve).  A cache for any other n_max is judged by its header alone
    and replaced by a fresh table for n_max, as is a missing file.  A bad
    header or length raises CacheError and leaves the file untouched.  A
    read costs the sieve it validates against, so a cache saves no sieve.
    """
    if not path:
        return build_lambda_table(n_max)
    path = Path(path)
    if path.exists():
        with open(path, "rb") as f:
            cached = _read_header(f)
        if cached == n_max:
            return read_cache(path)
    table = build_lambda_table(n_max)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_cache(table, path)
    return table
