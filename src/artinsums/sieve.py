"""Smallest-prime-factor sieve, the factorization of any n it covers, and
the bulk tables derived from it: mu, omega, the largest and the strict
second-largest prime factor, and whether the largest one repeats.

The sieve stores one uint32 per integer (4 bytes/entry), so a limit of
10^7 costs ~40 MB.  The bulk tables (mu, omega, P1, P2s, rep) come from the
recurrence n = p*m, p = spf[n], of the linear sieve: the entries of n
follow from those of m < n, which are final when n is reached, so one
blockwise pass of gathers builds all five; the first accessor builds them.
Nothing is mutated after construction, so a sieve may be shared freely
across threads.  Cache format v2: a 13-byte header (b"AFS1",
version, uint32 limit, uint32 zlib.crc32 of the body), then spf[2..limit]
as little-endian uint32, written to a temporary file and renamed in place.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from math import isqrt

import numpy as np

DEFAULT_LIMIT = 10_000_000

_CACHE_MAGIC = b"AFS1"
_CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sBII")  # magic, version, limit, crc32 of the body

# most values of n per block of the table pass; bounds its temporaries
_TABLE_BLOCK = 1 << 18


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any sieve limit we use."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # these bases are a proven witness set for n < 3.3 * 10^24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FactorSieve:
    """Immutable table of smallest prime factors for 2..limit.

    spf[n] is the smallest prime dividing n; spf[p] = p exactly when p is
    prime.  Entries 0 and 1 are 0 and unused.
    """

    def __init__(self, limit: int, _spf: np.ndarray | None = None):
        if limit < 2:
            raise ValueError(f"sieve limit must be >= 2, got {limit}")
        self.limit = int(limit)
        self.spf = _build_spf(self.limit) if _spf is None else _spf
        self._primes: np.ndarray | None = None
        self._tables: dict[str, np.ndarray] | None = None
        self._tables_lock = threading.Lock()

    # -- construction / persistence ------------------------------------

    @classmethod
    def load(cls, path) -> "FactorSieve":
        """Load a sieve cache written by save(); validates the header, the
        body length, the body's crc32 and that 2 <= spf[n] <= limit."""
        with open(path, "rb") as fh:
            head = fh.read(_CACHE_HEADER.size)
            if len(head) < _CACHE_HEADER.size or head[:4] != _CACHE_MAGIC:
                raise IOError(f"{path}: not a sieve cache (bad magic)")
            _, version, limit, crc = _CACHE_HEADER.unpack(head)
            if version != _CACHE_VERSION:
                raise IOError(f"{path}: unsupported cache version {version}")
            body = np.fromfile(fh, dtype=np.uint8)
        if limit < 2 or body.size != 4 * (limit - 1):
            raise IOError(
                f"{path}: truncated cache ({body.size // 4} entries for limit {limit})"
            )
        if zlib.crc32(body) != crc:
            raise IOError(f"{path}: corrupt cache (body checksum mismatch)")
        spf = np.zeros(limit + 1, dtype=np.uint32)
        spf[2:] = body.view("<u4")
        # a file re-checksummed after editing passes the crc; the table pass
        # needs every spf[n] >= 2 (so m = n/spf[n] < n), and callers index
        # tables by spf[n]
        if spf[2:].min() < 2 or spf.max() > limit:
            raise IOError(f"{path}: corrupt cache (an spf[n] outside [2, {limit}])")
        return cls(limit, _spf=spf)

    def save(self, path) -> None:
        """Write the cache to ``<path>.tmp``, then rename it over path, so
        an interrupted save leaves the previous file in place."""
        body = self.spf[2:].astype("<u4")
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(_CACHE_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, self.limit, zlib.crc32(body)))
            body.tofile(fh)
        os.replace(tmp, path)

    # -- scalar queries ------------------------------------------------

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """(prime, exponent) pairs, primes increasing; empty for n = 1."""
        if not 1 <= n <= self.limit:
            raise ValueError(f"n = {n} outside [1, {self.limit}]")
        out: list[tuple[int, int]] = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    # -- bulk tables (built lazily, cached) ----------------------------

    def prime_array(self, x: int | None = None) -> np.ndarray:
        if self._primes is None:
            idx = np.arange(self.limit + 1, dtype=np.uint32)
            self._primes = np.nonzero(self.spf == idx)[0][1:]  # drop n=0 match
        if x is None or x >= self.limit:
            return self._primes
        return self._primes[: np.searchsorted(self._primes, x, side="right")]

    def mu_table(self) -> np.ndarray:
        """int8 array, mu_table()[n] = mu(n) for 1 <= n <= limit."""
        return self._table("mu")

    def omega_table(self) -> np.ndarray:
        return self._table("omega")

    def P1_table(self) -> np.ndarray:
        """Largest prime factor of n, with P1[1] = 1."""
        return self._table("P1")

    def P2_strict_table(self) -> np.ndarray:
        return self._table("P2s")

    def repeated_P1_table(self) -> np.ndarray:
        """Boolean array, True where P1(n)^2 | n."""
        return self._table("rep")

    def _table(self, name: str) -> np.ndarray:
        # the lock is taken only while the tables may still be unbuilt
        if self._tables is None:
            with self._tables_lock:
                if self._tables is None:
                    self._tables = _recurrence_tables(self.spf)
        return self._tables[name]


def _recurrence_tables(spf: np.ndarray) -> dict[str, np.ndarray]:
    """mu, omega, P1, P2s and rep for 0 <= n <= limit from n = p*m, with
    p = spf[n], over blocks [lo, min(2 lo, lo + _TABLE_BLOCK)): every m a
    block reads is at most n/2 < lo, so already final.  spf[1] = 0 makes
    the m = 1 lanes (n prime) come out right."""
    size = len(spf)
    mu = np.zeros(size, dtype=np.int8)
    omega = np.zeros(size, dtype=np.int8)
    P1 = np.zeros(size, dtype=np.uint32)
    P2s = np.ones(size, dtype=np.uint32)
    rep = np.zeros(size, dtype=bool)
    mu[1] = P1[1] = 1
    lo = 2
    while lo < size:
        hi = min(2 * lo, lo + _TABLE_BLOCK, size)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.uint32) // p
        new = spf[m] != p  # p does not divide m
        om_m, P1_m = omega[m], P1[m]
        mu[lo:hi] = np.where(new, -mu[m], 0)
        omega[lo:hi] = om_m + new
        P1[lo:hi] = np.where(m > 1, P1_m, p)
        P2s[lo:hi] = np.where(new & (om_m == 1), p, P2s[m])
        rep[lo:hi] = (m > 1) & (rep[m] | (P1_m == p))
        lo = hi
    return {"mu": mu, "omega": omega, "P1": P1, "P2s": P2s, "rep": rep}


def _build_spf(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    left = np.nonzero(spf[2:] == 0)[0] + 2
    spf[left] = left
    return spf
