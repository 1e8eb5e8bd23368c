"""Smallest-prime-factor sieve, the factorization of any n it covers, and
the block factor kernel: mu, omega, the smallest, the largest and the
strict second-largest prime factor of every n of a block, and whether the
largest one repeats, from the primes up to the square root of the block's
end alone.

The sieve stores one uint32 per integer (4 bytes/entry), so a limit of
10^7 costs ~40 MB, and 2 <= limit <= X_MAX = 2^32 - 1.  One loop sieves:
``block_spf``, the segmented sieve of Bays and Hudson (BIT 17, 1977),
gives the spf of a block lo <= n < hi in O(hi - lo) memory from the
primes up to isqrt(hi - 1), so a scan to x needs only a sieve of the
primes up to isqrt(x).  FactorSieve(limit) joins its blocks of [2, limit]
with the primes of FactorSieve(isqrt(limit)), and ``factor_block`` takes
its spf from it.  The bulk tables of a sieve (mu, omega, P1, P2s, rep)
are its factor_block blocks joined; the first accessor builds them.
Nothing is mutated after construction, so a sieve may be shared freely
across threads.  Cache format v2: a 13-byte header (b"AFS1", version,
uint32 limit, uint32 zlib.crc32 of the body), then spf[2..limit] as
little-endian uint32, written to a temporary file and renamed in place.
"""

from __future__ import annotations

import os
import struct
import sys
import threading
import zlib
from math import isqrt

import numpy as np

DEFAULT_LIMIT = 10_000_000
X_MAX = 2**32 - 1  # the largest sieve limit and scan bound: n fits a uint32

_CACHE_MAGIC = b"AFS1"
_CACHE_VERSION = 2
_CACHE_HEADER = struct.Struct("<4sBII")  # magic, version, limit, crc32 of the body

# values of n per block_spf and factor_block call when the tables are built
_TABLE_BLOCK = 1 << 16
# is_prime is proven correct below this bound
MR_PROVEN_BELOW = 3_317_044_064_679_887_385_961_981
_ONE = np.int8(1)


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
    # these bases are a proven witness set for n < MR_PROVEN_BELOW
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
        if not 2 <= limit <= X_MAX:
            raise ValueError(f"sieve limit = {limit} outside [2, {X_MAX}]")
        self.limit = int(limit)
        self.spf = _build_spf(self.limit) if _spf is None else _spf
        self._tables: dict[str, np.ndarray] | None = None
        self._tables_lock = threading.Lock()

    # -- construction / persistence ------------------------------------

    @classmethod
    def load(cls, path) -> "FactorSieve":
        """Load a sieve cache written by save(); validates the header, the
        body length, the body's crc32 and that 2 <= spf[n] <= limit.  The
        body is read straight into the table."""
        with open(path, "rb") as fh:
            head = fh.read(_CACHE_HEADER.size)
            if len(head) < _CACHE_HEADER.size or head[:4] != _CACHE_MAGIC:
                raise IOError(f"{path}: not a sieve cache (bad magic)")
            _, version, limit, crc = _CACHE_HEADER.unpack(head)
            if version != _CACHE_VERSION:
                raise IOError(f"{path}: unsupported cache version {version}")
            size = os.fstat(fh.fileno()).st_size - _CACHE_HEADER.size
            # the length is checked before the table is allocated
            if limit < 2 or size != 4 * (limit - 1):
                raise IOError(f"{path}: truncated cache ({size // 4} entries for limit {limit})")
            spf = np.zeros(limit + 1, dtype=np.uint32)
            body = spf[2:].view(np.uint8)
            if fh.readinto(body) != size:
                raise IOError(f"{path}: truncated cache (short read)")
        if zlib.crc32(body) != crc:
            raise IOError(f"{path}: corrupt cache (body checksum mismatch)")
        if sys.byteorder == "big":
            spf.byteswap(inplace=True)
        # a file re-checksummed after editing passes the crc; callers index
        # tables by spf[n] and divide by it
        if spf[2:].min() < 2 or spf.max() > limit:
            raise IOError(f"{path}: corrupt cache (an spf[n] outside [2, {limit}])")
        return cls(limit, _spf=spf)

    def save(self, path) -> None:
        """Write the cache to ``<path>.tmp``, then rename it over path, so
        an interrupted save leaves the previous file in place.  On a
        little-endian machine the body is the table itself, not a copy."""
        body = self.spf[2:].astype("<u4", copy=False)
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
        """The primes up to x (default: the limit), increasing, as int64."""
        x = self.limit if x is None else min(x, self.limit)
        return np.flatnonzero(self.spf[: x + 1] == np.arange(x + 1, dtype=np.uint32))[1:]  # drop n=0 match

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
                    self._tables = _joined_tables(self.prime_array(isqrt(self.limit)), self.limit)
        return self._tables[name]


def _joined_tables(primes: np.ndarray, limit: int) -> dict[str, np.ndarray]:
    """mu, omega, P1, P2s and rep for 0 <= n <= limit, joined from the
    factor_block blocks of [2, limit]; `primes` holds every prime up to
    isqrt(limit)."""
    tables = {
        "mu": np.zeros(limit + 1, dtype=np.int8),
        "omega": np.zeros(limit + 1, dtype=np.int8),
        "P1": np.zeros(limit + 1, dtype=np.uint32),
        "P2s": np.ones(limit + 1, dtype=np.uint32),
        "rep": np.zeros(limit + 1, dtype=bool),
    }
    tables["mu"][1] = tables["P1"][1] = 1
    for lo in range(2, limit + 1, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, limit + 1)
        block = factor_block(primes, lo, hi, P1=True)
        for name, table in tables.items():
            table[lo:hi] = block[name]
    return tables


def factor_block(primes: np.ndarray, lo: int, hi: int, P1: bool = False) -> dict[str, np.ndarray]:
    """mu (int8), omega (int8), spf, P2s (uint32) and rep (bool), and P1
    (uint32) when asked, for 2 <= lo <= n < hi <= 2^32, keyed as the
    tables of FactorSieve, with P2s = 1 when omega(n) < 2.  `primes` must
    hold, in increasing order, every prime up to isqrt(hi - 1), the only
    ones read.

    Each such prime p multiplies prod(n) by every power of it that divides
    n, adds 1 to omega(n), and moves the largest of them so far, b1(n),
    into b2(n); the largest p whose square divides n is kept too.  What is
    left of n, n / prod(n), is 1 or the one prime factor of n above
    isqrt(hi - 1), so prod(n) != n says whether it exists.  spf comes from
    block_spf."""
    size = hi - lo
    primes = primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")].astype(np.uint32)
    prod = np.ones(size, dtype=np.uint32)
    omega = np.zeros(size, dtype=np.int8)
    # the sieving primes are at most isqrt(2^32 - 1) = 2^16 - 1
    b1 = np.ones(size, dtype=np.uint16)
    b2 = np.ones(size, dtype=np.uint16)
    sq = np.zeros(size, dtype=np.uint16)  # largest p with p^2 | n, or 0
    # numpy scalars, not ints: a Python int operand costs each ufunc call
    # a cast check of its value
    for p, P, Q in zip(primes.tolist(), primes, primes.astype(np.uint16)):
        sl = slice(-lo % p, None, p)
        view = prod[sl]
        view *= P
        view = omega[sl]
        view += _ONE
        b2[sl] = b1[sl]
        b1[sl] = Q
        q = p * p
        s = -lo % q
        if s < size:
            sq[s::q] = Q
            # each power of p up to the first without a multiple in the block
            while s < size:
                view = prod[s::q]
                view *= P
                q *= p
                s = -lo % q
    # each temporary is dropped once read, so the peak is the loop's 11
    # bytes an integer plus n and big
    n = np.arange(lo, hi, dtype=np.uint32)
    big = prod != n
    P1s = np.where(big, np.floor_divide(n, prod, out=n), b1) if P1 else None
    del prod, n
    omega += big
    mu = omega & _ONE
    mu += mu
    np.subtract(_ONE, mu, out=mu)  # (-1)^omega
    mu *= sq == 0
    rep = ~big & (sq == b1)
    del sq
    # P2s = b1 where n has a prime factor above isqrt(hi - 1), b2 elsewhere
    b1 -= b2
    b1 *= big
    b2 += b1
    P2s = b2.astype(np.uint32)
    del b1, b2, big
    out = {"mu": mu, "omega": omega, "spf": block_spf(primes, lo, hi), "rep": rep}
    if P1:
        out["P1"] = P1s
    out["P2s"] = P2s
    return out


def block_spf(primes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """spf of each n in [lo, hi), 2 <= lo < hi <= 2^32, as uint32: each
    prime up to isqrt(hi - 1) writes its multiples into arange(lo, hi),
    the largest first.  `primes` must hold, in increasing order, every
    prime up to isqrt(hi - 1), the only ones read."""
    primes = primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")].astype(np.uint32)[::-1]
    spf = np.arange(lo, hi, dtype=np.uint32)
    for p, P in zip(primes.tolist(), primes):
        spf[-lo % p :: p] = P
    return spf


def _build_spf(limit: int) -> np.ndarray:
    """spf[0..limit], spf[0] = spf[1] = 0, joined from block_spf blocks."""
    primes = FactorSieve(isqrt(limit)).prime_array() if limit >= 4 else np.empty(0, dtype=np.int64)
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for lo in range(2, limit + 1, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, limit + 1)
        spf[lo:hi] = block_spf(primes, lo, hi)
    return spf
