"""Sieve correctness against independent trial-division oracles, the n=1
conventions, bulk-table consistency, and the cache file format."""

import hashlib
import math
import os
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsums import sieve as sieve_mod
from artinsums.sieve import _TABLE_BLOCK, DEFAULT_LIMIT, X_MAX, FactorSieve, block_spf, factor_block, is_prime
from oracles import factored, factorize, recurrence_tables, spf_table


def trial_spf(n):
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def trial_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_mu_omega(n):
    fac = trial_factorize(n)
    mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
    return mu, len(fac)


def test_spf_table_of_ten():
    expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
    s = FactorSieve(10)
    assert {n: int(s.spf[n]) for n in range(2, 11)} == expected


def test_smallest_valid_sieve():
    assert int(FactorSieve(2).spf[2]) == 2


# the table joins block_spf blocks [2 + k 2^16, 2 + (k+1) 2^16) sieved with
# the primes of FactorSieve(isqrt(limit)): tiny limits with no sieving
# primes, limits at and next to the block edges, and squares of primes,
# where isqrt(limit) is the largest sieving prime
SPF_LIMITS = sorted(
    {*range(2, 11), *(e + d for e in (1 << 16, 2 << 16) for d in (-1, 0, 1, 2, 3))}
    | {q * q + d for q in (3, 5, 7, 251, 257) for d in (-1, 0)}
    | {10**6}
)


@pytest.mark.parametrize("limit", SPF_LIMITS)
def test_spf_table_matches_masked_sieve(limit):
    spf = FactorSieve(limit).spf
    assert spf.dtype == np.uint32
    assert np.array_equal(spf, spf_table(limit))


def test_cache_bytes_pinned(tmp_path):
    # the sha256 of the 10^6 cache written before the table came from
    # block_spf: the file format and every entry are unchanged
    path = tmp_path / "spf.sieve"
    FactorSieve(10**6).save(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "bf135ffe10e81ed2b5dfc1fdb3fdb65cf4633d6f8610f66ca3584318abca87a8"


def test_spf_against_trial_division(sieve_small):
    for n in range(2, 20_001):
        assert int(sieve_small.spf[n]) == trial_spf(n)


def test_factorize_reconstructs(sieve_small):
    for n in range(1, 100_001):
        prod = 1
        for p, e in factorize(sieve_small, n):
            prod *= p**e
        assert prod == n


def test_factorize_primes_increasing_exponents_positive(sieve_small):
    for n in (2, 360, 2310, 99991, 65536, 97 * 89):
        fac = factorize(sieve_small, n)
        assert all(e >= 1 for _, e in fac)
        assert all(a < b for (a, _), (b, _) in zip(fac, fac[1:]))


def test_mu_against_trial_division(sieve_small):
    mu_tab = sieve_small.mu_table()
    om_tab = sieve_small.omega_table()
    for n in range(1, 100_001):
        mu, om = trial_mu_omega(n) if n > 1 else (1, 0)
        assert int(mu_tab[n]) == mu
        assert int(om_tab[n]) == om


# (mu, omega, Omega, p1, P1, P2s, repeats) by hand: value 1 at n = 1, and
# for P2s where omega(n) < 2
CONVENTIONS = {
    1: (1, 0, 0, 1, 1, 1, False),
    2: (-1, 1, 1, 2, 2, 1, False),
    7: (-1, 1, 1, 7, 7, 1, False),
    8: (0, 1, 3, 2, 2, 1, True),
    12: (0, 2, 3, 2, 3, 2, False),
    18: (0, 2, 3, 2, 3, 2, True),
    30: (-1, 3, 3, 2, 5, 3, False),
}


def test_factored_conventions(sieve_small):
    for n, row in CONVENTIONS.items():
        assert factored(sieve_small, n) == row, n


def test_table_conventions(sieve_small):
    s = sieve_small
    tables = (s.mu_table(), s.omega_table(), s.P1_table(), s.P2_strict_table(), s.repeated_P1_table())
    for n, (mu, omega, _, _, P1, P2s, repeats) in CONVENTIONS.items():
        assert [t[n].item() for t in tables] == [mu, omega, P1, P2s, repeats], n


def test_P2_definitions_agree_off_repeat_set(sieve_small):
    # P1(n / P1(n)), the second-largest prime factor with multiplicity, is
    # the strict P2 off the repeat set and P1 itself on it
    P1, P2s, rep = sieve_small.P1_table(), sieve_small.P2_strict_table(), sieve_small.repeated_P1_table()
    n = np.arange(2, 50_001)
    assert np.array_equal(P1[n // P1[n]], np.where(rep[n], P1[n], P2s[n]))


def test_spf_le_P1_with_equality_iff_omega_one(sieve_small):
    om = sieve_small.omega_table()
    P1 = sieve_small.P1_table()
    for n in range(2, 20_001):
        spf = int(sieve_small.spf[n])
        assert spf <= int(P1[n])
        assert (spf == int(P1[n])) == (int(om[n]) == 1)


def test_bulk_tables_match_scalar_queries(sieve_small):
    P1 = sieve_small.P1_table()
    P2s = sieve_small.P2_strict_table()
    rep = sieve_small.repeated_P1_table()
    rng = np.random.default_rng(7)
    for n in [*range(2, 20_001), *rng.integers(2, 100_000, size=400).tolist()]:
        f = factored(sieve_small, n)
        assert int(P1[n]) == f.P1
        assert int(P2s[n]) == f.P2s
        assert bool(rep[n]) == f.repeats
    assert int(P1[1]) == 1 and int(P2s[1]) == 1


def assert_tables_match_trial_division(s, ns):
    """All five bulk tables at each n >= 2 of ns, against trial division
    and the factorize oracle."""
    mu, om = s.mu_table(), s.omega_table()
    P1, P2s, rep = s.P1_table(), s.P2_strict_table(), s.repeated_P1_table()
    for n in ns:
        fac = trial_factorize(n)
        primes = [p for p, _ in fac]
        assert (int(mu[n]), int(om[n])) == trial_mu_omega(n), n
        assert int(P1[n]) == primes[-1], n
        assert int(P2s[n]) == (primes[-2] if len(primes) > 1 else 1), n
        assert bool(rep[n]) == (fac[-1][1] > 1), n
        f = factored(s, n)
        assert (int(mu[n]), int(om[n]), int(P1[n]), int(P2s[n]), bool(rep[n])) == (f.mu, f.omega, f.P1, f.P2s, f.repeats)


def test_tables_across_peel_block_edges():
    # the tables join factor_block blocks [2 + k _TABLE_BLOCK, 2 + (k+1)
    # _TABLE_BLOCK); two blocks plus ~100 puts the limit in reach
    limit = 2 * _TABLE_BLOCK + 100
    s = FactorSieve(limit)
    edges = [2 + k * _TABLE_BLOCK for k in range(3)] + [limit]
    ns = {n for e in edges for n in range(max(2, e - 64), min(limit, e + 64) + 1)}
    assert {_TABLE_BLOCK + 1, _TABLE_BLOCK + 2, 2 * _TABLE_BLOCK + 1, 2 * _TABLE_BLOCK + 2, limit} <= ns
    assert_tables_match_trial_division(s, sorted(ns))


# -- block factor kernel ------------------------------------------------------


BLOCK_DTYPES = {"mu": np.int8, "omega": np.int8, "P1": np.uint32, "P2s": np.uint32, "rep": np.bool_}


def assert_block_matches_factored(s, lo, hi):
    """factor_block and block_spf over [lo, hi), from the primes up to
    isqrt(hi - 1) alone, against the factorize oracle at every n."""
    primes = s.prime_array(math.isqrt(hi - 1))
    block = factor_block(primes, lo, hi, P1=True)
    assert {k: (v.dtype, len(v)) for k, v in block.items()} == {k: (np.dtype(t), hi - lo) for k, t in BLOCK_DTYPES.items()}
    block["spf"] = block_spf(primes, lo, hi)
    got = zip(*(block[k].tolist() for k in ("mu", "omega", "spf", "P1", "P2s", "rep")))
    for n, row in zip(range(lo, hi), got):
        f = factored(s, n)
        assert row == (f.mu, f.omega, f.p1, f.P1, f.P2s, f.repeats), n


@pytest.mark.parametrize("size", [20_000, 1000, 97])
def test_factor_block_every_n_to_2e4(sieve_small, size):
    for lo in range(2, 20_001, size):
        assert_block_matches_factored(sieve_small, lo, min(lo + size, 20_001))


def test_factor_block_near_block_edges(sieve_small):
    # blocks of 4096 from lo = 77_777, not a multiple of the block size:
    # every n within 64 of an edge, from the blocks on both sides of it
    size, start = 4096, 77_777
    for edge in range(start, start + 5 * size + 1, size):
        assert_block_matches_factored(sieve_small, edge - 64, edge)
        assert_block_matches_factored(sieve_small, edge, edge + 64)
        assert_block_matches_factored(sieve_small, edge - size, edge)


@pytest.mark.parametrize("p", [2, 3, 313])
def test_factor_block_straddling_the_square_of_its_largest_prime(sieve_small, p):
    # 313^2 = 97_969: a block holding it sieves with the primes up to 313,
    # one ending just below it with those up to 311; p = 2, 3 are the
    # smallest blocks, where p^2 is one of the first few n
    q = p * p
    for lo, hi in ((max(2, q - 64), q + 64), (max(2, q - 64), q), (q, q + 64), (max(2, q - 1), q + 1)):
        assert_block_matches_factored(sieve_small, lo, hi)


def test_factor_block_at_the_top_of_the_range():
    # the last n below 2^32, from all 6542 primes below 2^16, against trial
    # division by the same primes
    primes = FactorSieve((1 << 16) - 1).prime_array()
    lo, hi = (1 << 32) - 300, 1 << 32
    block = factor_block(primes, lo, hi, P1=True)
    block["spf"] = block_spf(primes, lo, hi)
    got = zip(*(block[k].tolist() for k in ("mu", "omega", "spf", "P1", "P2s", "rep")))
    for n, row in zip(range(lo, hi), got):
        m, fac = n, []
        for p in primes.tolist():
            if p * p > m:
                break
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                fac.append((p, e))
        fac += [(m, 1)] if m > 1 else []
        ps = [p for p, _ in fac]
        mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
        assert row == (mu, len(fac), ps[0], ps[-1], ps[-2] if len(ps) > 1 else 1, fac[-1][1] > 1), n


def test_factor_block_matches_recurrence_tables(sieve_big):
    # the tables joined from blocks against the bulk oracle, dtypes too, and
    # block_spf against the sieve's spf
    want = recurrence_tables(sieve_big.spf)
    got = {
        "mu": sieve_big.mu_table(),
        "omega": sieve_big.omega_table(),
        "P1": sieve_big.P1_table(),
        "P2s": sieve_big.P2_strict_table(),
        "rep": sieve_big.repeated_P1_table(),
    }
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert np.array_equal(got[name], want[name]), name
    primes = sieve_big.prime_array(1000)
    for lo, hi in ((2, 65_538), (900_000, 1_000_001)):
        spf = block_spf(primes, lo, hi)
        assert spf.dtype == sieve_big.spf.dtype and np.array_equal(spf, sieve_big.spf[lo:hi])


def test_factor_block_memory(sieve_small):
    # each temporary is dropped once read, so a call holds the prime loop's
    # 11 bytes an integer plus n and big (P1: the quotient in n, then P1
    # itself), where all of them were alive together at 26 bytes (30 with P1)
    size = 1 << 17
    lo = 38 * size + 1
    primes = sieve_small.prime_array(math.isqrt(lo + size))
    for P1, bound in ((False, 17), (True, 21)):
        factor_block(primes, lo, lo + size, P1)
        tracemalloc.start()
        try:
            factor_block(primes, lo, lo + size, P1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / size <= bound, f"P1={P1}: {peak / size:.1f} bytes an integer"


def test_block_spf():
    # against the masked sieve, with its primes as input; the last block
    # below 2^32 against trial division by every prime below 2^16
    want = spf_table(100_000)
    primes = np.flatnonzero(want == np.arange(len(want)))[1:]
    for lo, hi in ((2, 3), (2, 100), (97, 98), (1000, 1009), (90_000, 100_001), (313**2 - 5, 313**2 + 5)):
        spf = block_spf(primes, lo, hi)
        assert spf.dtype == np.uint32 and np.array_equal(spf, want[lo:hi]), (lo, hi)
    top = spf_table((1 << 16) - 1)
    primes = np.flatnonzero(top == np.arange(len(top)))[1:]
    lo, hi = (1 << 32) - 300, 1 << 32
    got, plist = block_spf(primes, lo, hi).tolist(), primes.tolist()
    for n, spf in zip(range(lo, hi), got):
        assert spf == next((p for p in plist if n % p == 0), n), n


@pytest.mark.parametrize("limit", [2, 3, 4])
def test_tables_at_tiny_limits(limit):
    s = FactorSieve(limit)
    tables = {
        "mu": (s.mu_table(), np.int8, 0, 1),
        "omega": (s.omega_table(), np.int8, 0, 0),
        "P1": (s.P1_table(), np.uint32, 0, 1),
        "P2s": (s.P2_strict_table(), np.uint32, 1, 1),
        "rep": (s.repeated_P1_table(), np.bool_, False, False),
    }
    for name, (tab, dtype, at0, at1) in tables.items():
        assert tab.dtype == dtype and len(tab) == limit + 1, name
        assert (tab[0], tab[1]) == (at0, at1), name
    assert_tables_match_trial_division(s, range(2, limit + 1))


def test_tables_built_once(monkeypatch):
    # every accessor builds all five tables; later calls of any accessor
    # return the same arrays, built once
    calls = []
    real = sieve_mod.factor_tables

    def counted(sieve, limit):
        calls.append(1)
        return real(sieve, limit)

    monkeypatch.setattr(sieve_mod, "factor_tables", counted)
    s = FactorSieve(50_000)
    getters = [s.mu_table, s.omega_table, s.P1_table, s.P2_strict_table, s.repeated_P1_table]
    got = [get() for get in getters]
    assert all(get() is table for get, table in zip(getters, got))
    assert len(calls) == 1


def test_prime_array_and_iterator(sieve_small):
    primes = sieve_small.prime_array(100).tolist()
    assert primes == [p for p in range(2, 101) if trial_spf(p) == p]
    assert sieve_small.prime_array(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_large_prime_entry(sieve_big):
    assert int(sieve_big.spf[999983]) == 999983
    assert trial_spf(999983) == 999983


def test_is_prime_against_trial_division():
    for n in range(-3, 5000):
        assert is_prime(n) == (n >= 2 and trial_spf(n) == n)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


@given(st.integers(min_value=2, max_value=100_000))
@settings(max_examples=200, deadline=None)
def test_factorize_matches_trial_division(sieve_small, n):
    assert factorize(sieve_small, n) == trial_factorize(n)


def test_limit_validation(monkeypatch):
    # a limit outside [2, X_MAX] fails before any table is built: 2^32
    # would take 16 GiB and not fit the cache header's uint32
    monkeypatch.setattr(sieve_mod, "_build_spf", lambda limit: pytest.fail(f"built a table for {limit}"))
    for limit in (1, X_MAX + 1):
        with pytest.raises(ValueError, match="outside"):
            FactorSieve(limit)


def test_query_range_validation(sieve_small):
    with pytest.raises(ValueError):
        factorize(sieve_small, 0)
    with pytest.raises(ValueError):
        factorize(sieve_small, 100_001)


def test_default_limit_documented():
    assert DEFAULT_LIMIT == 10_000_000


# -- cache file format ------------------------------------------------------


def test_cache_roundtrip(tmp_path):
    s = FactorSieve(5000)
    path = tmp_path / "spf.sieve"
    s.save(path)
    loaded = FactorSieve.load(path)
    assert loaded.limit == 5000
    assert np.array_equal(loaded.spf, s.spf)


def test_cache_header(tmp_path):
    s = FactorSieve(100)
    path = tmp_path / "spf.sieve"
    s.save(path)
    raw = path.read_bytes()
    assert raw[:4] == b"AFS1"
    assert raw[4] == 2
    assert int.from_bytes(raw[5:9], "little") == 100
    assert int.from_bytes(raw[9:13], "little") == zlib.crc32(raw[13:])
    assert len(raw) == 13 + 4 * 99
    assert np.array_equal(np.frombuffer(raw[13:], dtype="<u4"), s.spf[2:])


def test_interrupted_cache_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "spf.sieve"
    FactorSieve(100).save(path)

    def crash(src, dst):
        raise OSError("interrupted")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="interrupted"):
        FactorSieve(200).save(path)
    assert FactorSieve.load(path).limit == 100


def test_cache_rejects_v1_file(tmp_path):
    # the v1 layout: magic, version 1, uint64 limit, body with no checksum
    s = FactorSieve(100)
    path = tmp_path / "v1.sieve"
    path.write_bytes(b"AFS1" + bytes([1]) + struct.pack("<Q", 100) + s.spf[2:].astype("<u4").tobytes())
    with pytest.raises(IOError, match="unsupported cache version 1"):
        FactorSieve.load(path)


@pytest.mark.parametrize("n, bad", [(4, 1), (4, 0), (3, 101)])
def test_cache_rejects_spf_outside_2_to_limit(tmp_path, n, bad):
    # saved with a valid crc: spf[4] = 1 would make the table pass read
    # m = 4 before it is built, and spf[3] = 101 would index past every table
    spf = FactorSieve(100).spf.copy()
    spf[n] = bad
    path = tmp_path / "spf.sieve"
    FactorSieve(100, _spf=spf).save(path)
    with pytest.raises(IOError, match="outside"):
        FactorSieve.load(path)


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.sieve"
    path.write_bytes(b"XXXX" + bytes(20))
    with pytest.raises(IOError):
        FactorSieve.load(path)


def test_cache_rejects_bad_version(tmp_path):
    s = FactorSieve(100)
    path = tmp_path / "spf.sieve"
    s.save(path)
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(IOError):
        FactorSieve.load(path)


def test_cache_rejects_truncation(tmp_path):
    s = FactorSieve(1000)
    path = tmp_path / "spf.sieve"
    s.save(path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(IOError):
        FactorSieve.load(path)


def test_cache_spot_check_catches_corruption(tmp_path):
    # limit 17 -> 16 entries, so the loader's 16-entry spot check covers
    # every entry and corruption cannot slip through
    s = FactorSieve(17)
    path = tmp_path / "spf.sieve"
    s.save(path)
    raw = bytearray(path.read_bytes())
    raw[13:17] = (9).to_bytes(4, "little")  # spf[2] := 9, not prime
    path.write_bytes(bytes(raw))
    with pytest.raises(IOError):
        FactorSieve.load(path)


def test_cache_spot_check_catches_nondivisor(tmp_path):
    s = FactorSieve(17)
    path = tmp_path / "spf.sieve"
    s.save(path)
    raw = bytearray(path.read_bytes())
    raw[13:17] = (5).to_bytes(4, "little")  # spf[2] := 5, prime but 5 ∤ 2
    path.write_bytes(bytes(raw))
    with pytest.raises(IOError):
        FactorSieve.load(path)
