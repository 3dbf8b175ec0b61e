import pathlib
import tracemalloc

import pytest

from pntavg import averaging, sieve, zeros
from pntavg.accum import neumaier_prefix_sum

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
ZEROS_PATH = DATA_DIR / "zeros_2000.txt"
MIB = 1 << 20
# The n_max of every memory bound but test_errors_order_0_holds_r_alone's,
# which takes 10^6: there a whole Lambda, 8 B per n, stands clear of the
# fixed block and fold temporaries, about 1.6 MiB.  At N_PEAK Lambda is
# 1.5 MiB, and errors --order 0 with it (3.9 MiB traced) and without it
# (3.1 MiB) lie too close for a bound between them.
N_PEAK = 200_000


def traced_peak(fn, *args) -> int:
    """The peak bytes tracemalloc sees, numpy's buffers among them, while
    fn(*args) runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def lam_full():
    """lam[n] = Lambda(n) at the paper scale n_max = 1e5 (shared)."""
    return sieve.build_lambda_table(100_000)


@pytest.fixture(scope="session")
def r_full(lam_full):
    """r[n] = psi(n) - n at the paper scale."""
    return sieve.error_series(lam_full)


@pytest.fixture(scope="session")
def averages_full(r_full):
    """rbar_k arrays for k = 1..6 at full scale."""
    return {k: averaging.iterated_average(r_full, k) for k in range(1, 7)}


@pytest.fixture(scope="session")
def lam_small():
    return sieve.build_lambda_table(2000)


@pytest.fixture(scope="session")
def r_small(lam_small):
    return sieve.error_series(lam_small)


@pytest.fixture(scope="session")
def psi_small(lam_small):
    """psi[n] = psi(n) for n <= 2000: the compensated prefix of Lambda that
    error_series and weighted_psi_series form, and `check` reads."""
    return neumaier_prefix_sum(lam_small)


@pytest.fixture(scope="session")
def zeros_2000():
    return zeros.load_zeros(ZEROS_PATH)
