import os

import pytest

# before numpy starts OpenBLAS, as the CLI does: the tests fork scans in
# this process, and Python 3.12 warns when a process forks with threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from artinsums.galois import new_cyclotomic, new_splitting_field  # noqa: E402
from artinsums.sieve import FactorSieve  # noqa: E402


@pytest.fixture(scope="session")
def sieve_small():
    """Sieve up to 10^5: enough for all unit tests and exact-mode scans."""
    return FactorSieve(100_000)


@pytest.fixture(scope="session")
def sieve_big():
    """Sieve up to 10^6, shared by the density / acceptance tests."""
    return FactorSieve(1_000_000)


@pytest.fixture(scope="session")
def ctx_c4():
    return new_cyclotomic(4)


@pytest.fixture(scope="session")
def ctx_cubic():
    """Splitting field of x^3 + x + 1 (disc -31, Galois group S_3)."""
    return new_splitting_field([1, 1, 0, 1])


@pytest.fixture
def forks(monkeypatch):
    """The pid of each process that calls os.fork from here on, one entry
    a call; a fork past the 8th fails before it starts a process, so no
    test can start many."""
    real, calls = os.fork, []

    def fork():
        calls.append(os.getpid())
        if len(calls) > 8:
            raise AssertionError("more than 8 forks")
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


@pytest.fixture
def fork_small_scans(monkeypatch):
    """Plan a scan process for every integer, so that the small scans of
    the tests run on as many processes as they ask for (a scan plans one
    per series._PROCESS_INTEGERS integers)."""
    from artinsums import series

    monkeypatch.setattr(series, "_PROCESS_INTEGERS", 1)
