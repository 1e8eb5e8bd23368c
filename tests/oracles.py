"""Oracles shared by the tests, independent of the bulk paths they check:
the spf table by a masked sieve over the whole table, the factorization
of n by a walk down a sieve's spf table (``factorize``), the distinct
primes of a block and their repeat patterns by the same walk on every
lane at once (``spf_walk_rows``), over an spf table or, for any m < 2^32,
Miller-Rabin and trial division (``TrialSpf``), the
multiplicative functions of n read off it, the bulk tables
from the recurrence n = p*m over a full spf table, the integer forms
of the four duality identities by enumeration of the squarefree divisors
(not the coefficient tables of artinsums.duality), a weight's value at
one m (``weight_at``), random_weight's values from splitmix64 on Python
ints (``random_value``), a weight's table from one value per prime
(``weight_table``), the exact bucket sums as one Fraction
per term added in pairs, the float bucket sums of the
segment kernel before it put terms in bucket order (intp bucket ids from
``route``, one ``np.bincount`` per limb), the inversion's right side as
the Dirichlet convolution mu * (f o P2) over full tables, split at
isqrt(nmax) (``mu_convolution``) and as one slice per squarefree m
(``inversion_rhs``), and a scan's segments from the sorted set of every
cut."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from typing import NamedTuple

import numpy as np

from artinsums.errors import IntegrityError
from artinsums.sieve import is_prime


class Factored(NamedTuple):
    """Functions of n with the value-1 conventions: p1 = P1 = 1 at n = 1,
    P2s = 1 when omega(n) < 2."""

    mu: int
    omega: int
    Omega: int
    p1: int  # smallest prime factor
    P1: int  # largest prime factor
    P2s: int  # largest prime factor strictly below P1
    repeats: bool  # P1^2 divides n


def spf_table(limit: int) -> np.ndarray:
    """spf[0..limit] as uint32, spf[0] = spf[1] = 0: each p <= isqrt(limit)
    not yet marked writes itself into the unmarked entries from p^2 on,
    and the entries left unmarked are primes."""
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            sl = spf[p * p :: p]
            sl[sl == 0] = p
    left = np.nonzero(spf[2:] == 0)[0] + 2
    spf[left] = left
    return spf


def factorize(sieve, n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of 1 <= n <= sieve.limit, primes
    increasing, each the spf of what is left of n; empty for n = 1."""
    if not 1 <= n <= sieve.limit:
        raise ValueError(f"n = {n} outside [1, {sieve.limit}]")
    out: list[tuple[int, int]] = []
    while n > 1:
        p = int(sieve.spf[n])
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


def factored(sieve, n: int) -> Factored:
    fac = factorize(sieve, n)
    primes = [p for p, _ in fac]
    return Factored(
        mu=0 if any(e > 1 for _, e in fac) else (-1) ** len(fac),
        omega=len(fac),
        Omega=sum(e for _, e in fac),
        p1=primes[0] if primes else 1,
        P1=primes[-1] if primes else 1,
        P2s=primes[-2] if len(primes) > 1 else 1,
        repeats=bool(fac) and fac[-1][1] > 1,
    )


def recurrence_tables(spf: np.ndarray) -> dict[str, np.ndarray]:
    """mu, omega, P1, P2s and rep for 0 <= n <= limit from n = p*m, with
    p = spf[n], over blocks [lo, min(2 lo, lo + 2^18)): every m a block
    reads is at most n/2 < lo, so already final.  spf[1] = 0 makes the
    m = 1 lanes (n prime) come out right."""
    size = len(spf)
    mu = np.zeros(size, dtype=np.int8)
    omega = np.zeros(size, dtype=np.int8)
    P1 = np.zeros(size, dtype=np.uint32)
    P2s = np.ones(size, dtype=np.uint32)
    rep = np.zeros(size, dtype=bool)
    mu[1] = P1[1] = 1
    lo = 2
    while lo < size:
        hi = min(2 * lo, lo + (1 << 18), size)
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


def spf_walk_rows(spf, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct primes of every lo <= n < hi (lo >= 2), increasing down
    column n - lo of a (max omega, hi - lo) int64 array padded with 1, and
    each n's repeat pattern (bit j set where the prime in row j divides n
    twice), as artinsums.duality.distinct_prime_rows gives them.  One
    strip of spf per pass; a prime is recorded where it changes, and
    repeats where it does not."""
    size = hi - lo
    rows = np.ones((9, size), dtype=np.int64)
    omega = np.zeros(size, dtype=np.intp)
    reps = np.zeros(size, dtype=np.intp)
    lane = np.arange(size)
    m = np.arange(lo, hi, dtype=np.int64)
    last = np.zeros(size, dtype=np.int64)
    while lane.size:
        p = spf[m].astype(np.int64)
        new = p != last
        at = lane[new]
        rows[omega[at], at] = p[new]
        omega[at] += 1
        again = lane[~new]
        reps[again] |= 1 << (omega[again] - 1)
        m //= p
        live = m > 1
        lane, m, last = lane[live], m[live], p[live]
    return rows[: omega.max()], reps


class TrialSpf:
    """spf of any 2 <= m < 2^32, indexed by an int64 array as an spf
    table is: m where Miller-Rabin proves it prime, else the first of
    `primes`, which must hold every prime below 2^16, that divides it."""

    def __init__(self, primes: np.ndarray):
        self.primes = primes.tolist()

    def __getitem__(self, m: np.ndarray) -> np.ndarray:
        return np.array([self.one(v) for v in m.tolist()], dtype=np.int64)

    @lru_cache(maxsize=None)
    def one(self, v: int) -> int:
        if is_prime(v):
            return v
        return next(p for p in self.primes if v % p == 0)


def binom(m: int, j: int) -> int:
    # the m = -1 case only ever multiplies f(1) = 0; fixed for definiteness
    if m < 0:
        return 1 if (m == -1 and j == 0) else 0
    return comb(m, j) if j <= m else 0


def kth(primes_sorted: list[int], k: int, largest: bool) -> int:
    """k-th largest (or smallest) element of an increasing prime list,
    1 when there are fewer than k."""
    if k > len(primes_sorted):
        return 1
    return primes_sorted[-k] if largest else primes_sorted[k - 1]


@lru_cache(maxsize=None)
def weight_at(weight, m: int) -> int:
    """f(m), read from the weight's values at m alone; 0 at m = 1, as
    f(1) = 0."""
    if m == 1:
        return 0
    return int(weight.values(np.array([m], dtype=np.int64))[0])


_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(z: int) -> int:
    """splitmix64's output at state z: a fixed 64-bit integer mix, on
    Python ints masked to 64 bits."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def random_value(seed: int, p: int) -> int:
    """random_weight(seed) at p: from r = splitmix64((seed << 32) ^ p) mod
    60, a (60 // d) with a = r mod 10 - 5, moved up by one unless
    negative, and d = r // 10 + 1."""
    r = splitmix64((seed << 32) ^ p) % 60
    num = r % 10 - 5
    return (num + (num >= 0)) * (60 // (r // 10 + 1))


def divisor_sum(sieve, n: int, k: int, identity: int, weight) -> int:
    """Left-hand side of duality identity 1..4 at n >= 2 and k >= 1, by
    full divisor enumeration.

    1: sum_{d|n} mu(d) f(P_k(d))
    2: sum_{d|n} mu(d) f(p_k(d))
    3: sum_{d|n} mu(d) C(omega(d)-1, k-1) f(P_1(d))
    4: sum_{d|n} mu(d) C(omega(d)-1, k-1) f(p_1(d))

    Only squarefree divisors contribute (mu kills the rest), so d ranges
    over subsets of the distinct primes of n; d = 1 contributes 0 because
    f(1) = 0.
    """
    primes = [p for p, _ in factorize(sieve, n)]
    total = 0
    for r in range(1, len(primes) + 1):
        mu_d = -1 if r % 2 else 1
        for subset in combinations(primes, r):
            if identity == 1:
                term = weight_at(weight, kth(list(subset), k, largest=True))
            elif identity == 2:
                term = weight_at(weight, subset[k - 1] if k <= r else 1)
            elif identity == 3:
                term = binom(r - 1, k - 1) * weight_at(weight, subset[-1])
            else:
                term = binom(r - 1, k - 1) * weight_at(weight, subset[0])
            total += mu_d * term
    return total


def identity_rhs(sieve, n: int, k: int, identity: int, weight) -> int:
    """Right-hand side of duality identity 1..4, in closed form."""
    primes = [p for p, _ in factorize(sieve, n)]
    sign = (-1) ** k
    if identity == 1:
        return sign * binom(len(primes) - 1, k - 1) * weight_at(weight, primes[0])
    if identity == 2:
        return sign * binom(len(primes) - 1, k - 1) * weight_at(weight, primes[-1])
    if identity == 3:
        return sign * weight_at(weight, kth(primes, k, largest=False))
    return sign * weight_at(weight, kth(primes, k, largest=True))


def weight_table(weight, sieve, nmax: int) -> list[int]:
    """The weight's table from its value at each prime p <= nmax alone:
    F[m] = f(m) for m <= nmax as Python ints, 0 off the primes."""
    F = [0] * (nmax + 1)
    for p in sieve.prime_array(nmax).tolist():
        F[p] = weight_at(weight, p)
    return F


def pairwise_sum(vals: list[Fraction]) -> Fraction:
    """Tree-shaped Fraction sum."""
    if not vals:
        return Fraction(0)
    work = list(vals)
    while len(work) > 1:
        work = [
            work[i] + work[i + 1] if i + 1 < len(work) else work[i]
            for i in range(0, len(work), 2)
        ]
    return work[0]


def fraction_bucket_sums(ids, size, num, den) -> list[Fraction]:
    """Sums of num/den per bucket id below `size`, then over all terms,
    those of the discarded bucket `size` too: one Fraction per nonzero
    term, grouped by bucket, each group summed pairwise."""
    live = num != 0
    terms = [Fraction(a, d) for a, d in zip(num[live].tolist(), den[live].tolist())]
    groups = [[] for _ in range(size + 1)]
    for b, t in zip(ids[live].tolist(), terms):
        groups[b].append(t)
    return [pairwise_sum(g) for g in groups[:size]] + [pairwise_sum(terms)]


def route(c, ram_primes, sp, n_classes):
    """Bucket id of every term with smallest prime factor sp and class
    code c of sp: the code, n_classes + j for the ramified prime
    ram_primes[j], and a last bucket, thrown away, for UNCLASSIFIED_CODE
    (never a negative id, which would wrap around)."""
    ids = np.where(c >= 0, c, np.intp(n_classes + len(ram_primes)))
    for j, p in enumerate(ram_primes):
        np.copyto(ids, n_classes + j, where=sp == p)
    return ids


def binned(ids, w, size):
    """Integer sums of the integer weights w per bucket id below `size`,
    then over all of w (the discarded bucket `size` too); exact while the
    sum of |w| stays below 2^53."""
    bins = [int(v) for v in np.bincount(ids, weights=w, minlength=size + 1).tolist()]
    return [*bins[:size], sum(bins)]


def limb_sums(ids, size, r):
    """The exact sums of the float terms r per bucket id below `size`,
    then over all of r, as Fractions; r is used up.  Each term is split
    exactly into three 30-bit limbs (26, 30 and 30 bits below the point
    2^-84), each limb summed by ``binned``."""
    limb = np.empty_like(r)
    sums = [0] * (size + 1)
    for shift in (26, 30, 30):
        r *= 2.0**shift
        np.trunc(r, out=limb)
        sums = [(s << shift) + v for s, v in zip(sums, binned(ids, limb, size))]
        r -= limb
    if np.any(r):
        raise IntegrityError("a float term is not a multiple of 2^-84")
    return [Fraction(s, 1 << 86) for s in sums]


def mu_convolution(mu: np.ndarray, G: np.ndarray, nmax: int) -> np.ndarray:
    """(mu * G)[n] = sum_{m d = n} mu(m) G[d] for n <= nmax over full
    tables, 0 at n = 0 (mu[0] = G[0] = 0), mu and G int64, its pairs m d
    split at s = isqrt(nmax): for every m <= s with mu(m) != 0,
    mu(m) G[1..nmax/m] is added into out[m::m]; for every d <= nmax/(s+1)
    with G[d] != 0, mu[s+1..nmax/d] G[d] into out[(s+1)d::d].  At most
    2 sqrt(nmax) slices."""
    out = np.zeros(nmax + 1, dtype=np.int64)
    s = isqrt(nmax)
    for m in np.flatnonzero(mu[: s + 1]).tolist():
        out[m::m] += int(mu[m]) * G[1 : nmax // m + 1]
    for d in np.flatnonzero(G[: nmax // (s + 1) + 1]).tolist():
        out[(s + 1) * d :: d] += mu[s + 1 : nmax // d + 1] * G[d]
    return out


def inversion_rhs(mu: np.ndarray, G: np.ndarray) -> np.ndarray:
    """rhs[n] = sum_{m d = n} mu(m) G[d] for n < len(G): for every m with
    mu(m) != 0, mu(m) G[1..N/m] added into rhs[m::m]."""
    nmax = len(G) - 1
    rhs = np.zeros(nmax + 1, dtype=G.dtype)
    for m in np.flatnonzero(mu).tolist():
        rhs[m::m] += int(mu[m]) * G[1 : nmax // m + 1]
    return rhs


def segment_list(lo: int, hi: int, size: int, checkpoints) -> list[tuple[int, int]]:
    """The segments of [lo, hi] cut after every multiple of size and every
    checkpoint, from the set of all the cuts."""
    cuts = {k * size for k in range(1, hi // size + 1)}
    cuts.update(c for c in checkpoints if lo <= c <= hi)
    cuts.add(hi)
    out = []
    start = lo
    for c in sorted(cuts):
        if c < start:
            continue
        out.append((start, c))
        start = c + 1
    return out
