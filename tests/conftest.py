import pathlib
import tracemalloc

import pytest

from pntavg import averaging, sieve, zeros

DATA_DIR = pathlib.Path(__file__).resolve().parent.parent / "data"
ZEROS_PATH = DATA_DIR / "zeros_2000.txt"
MIB = 1 << 20
N_PEAK = 200_000  # the n_max of every memory bound


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
def table_full():
    """Lambda table at the paper scale n_max = 1e5 (shared, ~1 s to build)."""
    return sieve.build_lambda_table(100_000)


@pytest.fixture(scope="session")
def series_full(table_full):
    return sieve.error_series(table_full)


@pytest.fixture(scope="session")
def averages_full(series_full):
    """rbar_k arrays for k = 1..6 at full scale."""
    return {k: averaging.iterated_average(series_full, k) for k in range(1, 7)}


@pytest.fixture(scope="session")
def table_small():
    return sieve.build_lambda_table(2000)


@pytest.fixture(scope="session")
def series_small(table_small):
    return sieve.error_series(table_small)


@pytest.fixture(scope="session")
def zeros_2000():
    return zeros.load_zeros(ZEROS_PATH)
