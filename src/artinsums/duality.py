"""Exact verification machinery for the divisor-sum duality identities
that exchange information between smallest and k-th largest prime
factors, and for the Mobius-inversion form that the class-restricted
series results rest on.  For a weight f on the primes, f(1) = 0, and n
with omega(n) = w, the four identities read

    1: sum_{d|n} mu(d) f(P_k(d))                    = (-1)^k C(w-1, k-1) f(p_1(n))
    2: sum_{d|n} mu(d) f(p_k(d))                    = (-1)^k C(w-1, k-1) f(P_1(n))
    3: sum_{d|n} mu(d) C(omega(d)-1, k-1) f(P_1(d)) = (-1)^k f(p_k(n))
    4: sum_{d|n} mu(d) C(omega(d)-1, k-1) f(p_1(d)) = (-1)^k f(P_k(n))

with p_k / P_k the k-th smallest / largest distinct prime factor, 1 when
there are fewer than k.

These are identities, not estimates, so there is no tolerance anywhere:
exact integer sums over a common denominator; Fractions only in reports.
Every identity is linear in the weight f, so a check takes one L per
weight, the lcm of the denominators of f(p) over the primes p <= nmax,
and sums F(p) = f(p) L: on int64 lanes where a stated bound rules out
overflow, on Python-int (object) lanes otherwise.

Each check covers every 2 <= n <= nmax in one batched pass per weight.
The four identities take the distinct primes of each n from one strip of
the spf table, group the n by omega(n) and apply, per omega, the
coefficients of the subset enumeration to the F columns.  The
Mobius-inverted form is the Dirichlet convolution mu * (F o P2), formed
for all n at once in two loops split at s = isqrt(nmax): one slice per
m <= s, then one per d <= nmax/(s+1), at most 2 sqrt(nmax) slices.
``hyperbola_check`` is its own exact check; its left side takes the
same omega(n) groups (``_omega_groups``) and sums over the 2^omega
subsets of each group at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, isqrt, lcm
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .sieve import FactorSieve


@dataclass(frozen=True)
class PrimeWeight:
    """Arithmetic function supported on the primes with f(1) = 0.  Values
    are memoized per argument."""

    name: str
    fn: Callable[[int], Fraction]
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __call__(self, m: int) -> Fraction:
        v = self._memo.get(m)
        if v is None:
            v = self._memo[m] = Fraction(0) if m == 1 else self.fn(m)
        return v


def _splitmix64(z: int) -> int:
    """splitmix64's output at state z: a fixed 64-bit integer mix."""
    z = (z + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def random_weight(seed: int) -> PrimeWeight:
    """Seeded pseudorandom rational weight: numerator in [-5, 5] but never
    0 (a zero weight would hide a wrong mu at the n it multiplies),
    denominator in [1, 6].  Deterministic in (seed, p), from one
    splitmix64 value of the pair."""
    def fn(p: int) -> Fraction:
        r = _splitmix64((seed << 32) ^ p) % 60
        num = r % 10 - 5
        return Fraction(num + (num >= 0), r // 10 + 1)
    return PrimeWeight(f"random[{seed}]", fn)


class IdentityReport(NamedTuple):
    """Both sides of one identity instance as integers over the common
    denominator `denom`.  The batched checks build one only for a
    mismatch."""

    n: int
    identity: int  # 1..4, or 0 for the inversion form
    k: int
    lhs_num: int
    rhs_num: int
    denom: int

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.lhs_num, self.denom)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rhs_num, self.denom)

    @property
    def passed(self) -> bool:
        return self.lhs_num == self.rhs_num


# most values of n per block of the identity pass; bounds its temporaries
BLOCK = 1 << 16
# n < 2^32 (uint32 spf) has at most 9 distinct primes: 2*3*...*29 > 2^32
_MAX_OMEGA = 9


class BatchCheck(NamedTuple):
    """Outcome of one batched check over 2 <= n <= nmax: the common
    denominator L, how many instances were compared, and a report for each
    mismatch, in (n, identity, k) order."""

    denom: int
    instances: int
    failures: list[IdentityReport]

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_nmax(sieve: FactorSieve, nmax: int) -> None:
    if not 2 <= nmax <= sieve.limit:
        raise ValueError(f"nmax = {nmax} outside [2, {sieve.limit}]")


def _scaled_table(
    weight: PrimeWeight, sieve: FactorSieve, nmax: int, terms: int
) -> tuple[np.ndarray, int]:
    """(F, L): L the lcm of the denominators of f(p) over the primes
    p <= nmax, F[m] = f(m) L for 0 <= m <= nmax (0 off the primes).  F is
    int64 when a sum of `terms` values of |F| stays below 2^63, which the
    caller states as the bound of its sums; Python ints otherwise."""
    primes = sieve.prime_array(nmax)
    vals = [weight(p) for p in primes.tolist()]
    L = lcm(*(v.denominator for v in vals))
    F_of = [v.numerator * (L // v.denominator) for v in vals]
    big = max(map(abs, F_of), default=0)
    F = np.zeros(nmax + 1, dtype=np.int64 if big * terms < 2**63 else object)
    F[primes] = F_of
    return F, L


def distinct_prime_rows(spf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Distinct primes of every lo <= n < hi (lo >= 2), increasing down
    column n - lo of a (max omega, hi - lo) int64 array padded with 1.
    One strip of spf per pass; a prime is recorded where it changes."""
    size = hi - lo
    rows = np.ones((_MAX_OMEGA, size), dtype=np.int64)
    omega = np.zeros(size, dtype=np.intp)
    lane = np.arange(size)
    m = np.arange(lo, hi, dtype=np.int64)
    last = np.zeros(size, dtype=np.int64)
    while lane.size:
        p = spf[m].astype(np.int64)
        new = p != last
        at = lane[new]
        rows[omega[at], at] = p[new]
        omega[at] += 1
        m //= p
        live = m > 1
        lane, m, last = lane[live], m[live], p[live]
    return rows[: omega.max()]


@lru_cache(maxsize=None)  # at most 45 pairs (w, kw), as w <= _MAX_OMEGA
def _coefficients(w: int, kw: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, R), each (4, kw, w): C[i-1, k-1, j] is the coefficient of F(q_j)
    in the left side of identity i at k, for n with the w primes
    q_0 < ... < q_{w-1}, from the enumeration of the squarefree divisors d
    as subsets of r primes (sign (-1)^r, C(r-1, k-1), k <= r); R holds the
    right sides."""
    C = np.zeros((4, kw, w), dtype=np.int64)
    R = np.zeros((4, kw, w), dtype=np.int64)
    for r in range(1, w + 1):
        mu_d = -1 if r % 2 else 1
        for s in combinations(range(w), r):
            for k in range(1, min(r, kw) + 1):
                b = mu_d * comb(r - 1, k - 1)
                C[0, k - 1, s[-k]] += mu_d
                C[1, k - 1, s[k - 1]] += mu_d
                C[2, k - 1, s[-1]] += b
                C[3, k - 1, s[0]] += b
    for k in range(1, kw + 1):
        sign = -1 if k % 2 else 1
        R[0, k - 1, 0] = R[1, k - 1, w - 1] = sign * comb(w - 1, k - 1)
        R[2, k - 1, k - 1] += sign
        R[3, k - 1, w - k] += sign
    C.flags.writeable = R.flags.writeable = False  # shared by every caller
    return C, R


def identity_sides(
    sieve: FactorSieve, nmax: int, kmax: int, weight: PrimeWeight
) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """(L, groups): both sides of the four identities, scaled by L, for
    every 2 <= n <= nmax and k <= min(kmax, omega(n)).  Each group is
    (ns, lhs, rhs) for the n of one block of at most BLOCK values with
    omega(n) = w; lhs and rhs have shape (4, min(kmax, w), len(ns)) and are
    indexed [identity - 1, k - 1, row].  For k > omega(n) both sides are 0
    (f(1) = 0 in identities 1, 2; C(r-1, k-1) = 0 in 3, 4), so nothing is
    stored for them and memory does not grow with kmax."""
    _check_nmax(sieve, nmax)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    # the |coefficients| of one side sum to less than 3^omega(n)
    F, L = _scaled_table(weight, sieve, nmax, 3**_MAX_OMEGA)
    return L, _identity_groups(sieve.spf, nmax, kmax, F)


def _omega_groups(spf: np.ndarray, nmax: int):
    """(ns, primes) per block of [2, nmax] and omega(n) = w: the n with w
    distinct primes, and those primes as a (w, len(ns)) array, increasing
    down each column."""
    for lo in range(2, nmax + 1, BLOCK):
        hi = min(lo + BLOCK, nmax + 1)
        rows = distinct_prime_rows(spf, lo, hi)
        omega = np.count_nonzero(rows > 1, axis=0)
        for w in range(1, rows.shape[0] + 1):
            cols = np.flatnonzero(omega == w)
            if cols.size:
                yield cols + lo, rows[:w, cols]


def _identity_groups(spf: np.ndarray, nmax: int, kmax: int, F: np.ndarray):
    for ns, primes in _omega_groups(spf, nmax):
        Fc = F[primes]
        C, R = _coefficients(len(primes), min(kmax, len(primes)))
        yield ns, C @ Fc, R @ Fc


def check_all_identities(
    sieve: FactorSieve, nmax: int, kmax: int, weight: PrimeWeight
) -> BatchCheck:
    """All four identities for every 2 <= n <= nmax and k = 1..kmax, in
    one batched pass (identity_sides); 4 kmax (nmax - 1) instances, those
    with k > omega(n) 0 on both sides."""
    L, groups = identity_sides(sieve, nmax, kmax, weight)
    failures = [
        IdentityReport(int(ns[r]), i + 1, k + 1, int(lhs[i, k, r]), int(rhs[i, k, r]), L)
        for ns, lhs, rhs in groups
        for i, k, r in np.argwhere(lhs != rhs).tolist()
    ]
    return BatchCheck(L, 4 * kmax * (nmax - 1), sorted(failures))


def inversion_sides(
    sieve: FactorSieve, nmax: int, weight: PrimeWeight
) -> tuple[np.ndarray, np.ndarray, int]:
    """(lhs, rhs, L) of the Mobius-inverted second-order duality
    mu(n)(omega(n)-1) f(p1(n)) = sum_{d|n} mu(n/d) f(P2(d)),
    strict P2, scaled by L, as arrays indexed by n <= nmax (entries 0 and
    1 unused).  The right side is the Dirichlet convolution mu * G with
    G = F o P2, its pairs m d <= nmax split at s = isqrt(nmax): for every
    m <= s with mu(m) != 0, mu(m) G[1..nmax/m] is added into rhs[m::m];
    for every d <= nmax/(s+1) with G[d] != 0, mu[s+1..nmax/d] G[d] into
    rhs[(s+1)d::d].  At most 2 sqrt(nmax) slices; mu comes from
    mu_table()."""
    _check_nmax(sieve, nmax)
    # a side sums at most d(n) <= nmax values of |F|
    F, L = _scaled_table(weight, sieve, nmax, nmax)
    mu = sieve.mu_table()[: nmax + 1].astype(np.int64)
    omega = sieve.omega_table()[: nmax + 1].astype(np.int64)
    lhs = mu * (omega - 1) * F[sieve.spf[: nmax + 1]]
    G = F[sieve.P2_strict_table()[: nmax + 1]]
    rhs = np.zeros(nmax + 1, dtype=F.dtype)
    s = isqrt(nmax)
    for m in np.flatnonzero(mu[: s + 1]).tolist():
        rhs[m::m] += int(mu[m]) * G[1 : nmax // m + 1]
    # an int64 slice times a Python-int G[d] would overflow: cast mu first
    mu = mu.astype(F.dtype)
    for d in np.flatnonzero(G[: nmax // (s + 1) + 1]).tolist():
        rhs[(s + 1) * d :: d] += mu[s + 1 : nmax // d + 1] * G[d]
    return lhs, rhs, L


def check_inversion(sieve: FactorSieve, nmax: int, weight: PrimeWeight) -> BatchCheck:
    """The Mobius-inverted form (inversion_sides) for every 2 <= n <= nmax;
    reports carry identity 0, k 2."""
    lhs, rhs, L = inversion_sides(sieve, nmax, weight)
    bad = np.flatnonzero(lhs[2:] != rhs[2:]) + 2
    failures = [IdentityReport(n, 0, 2, int(lhs[n]), int(rhs[n]), L) for n in bad.tolist()]
    return BatchCheck(L, nmax - 1, failures)


def hyperbola_check(sieve: FactorSieve, x: int, weight: PrimeWeight) -> tuple[Fraction, Fraction]:
    """Both sides of the divisor-sum rearrangement
    sum_{n<=x} sum_{d|n} mu(n/d) f(P2(d))
      = sum_{m<=x} mu(m) sum_{d<=x/m} f(P2(d)).
    Returns (lhs, rhs); they must be equal exactly.

    The rearrangement holds for any function in place of mu, so the two
    sides take mu from different sources: the left from the distinct
    primes of n (mu(n/d) = (-1)^r for n/d a product of r of them), the
    right from mu_table().  A wrong mu entry then shows.  The left side
    takes the n grouped by omega(n) = w with their distinct primes
    (_omega_groups) and sums G = F o P2 over each of the 2^w subsets at
    once; n = 1 adds G[1] = 0."""
    if x > sieve.limit:
        raise ValueError(f"x = {x} exceeds sieve limit {sieve.limit}")
    # a group or prefix sum adds at most x values of |F|
    F, L = _scaled_table(weight, sieve, x, x)
    G = F[sieve.P2_strict_table()[: x + 1]]
    lhs = 0
    for ns, primes in _omega_groups(sieve.spf, x):
        terms = [(1, ns)]
        for p in primes:
            terms += [(-s, d // p) for s, d in terms]
        lhs += sum(s * int(G[d].sum()) for s, d in terms)
    prefix = np.cumsum(G).tolist()
    mu = sieve.mu_table()[: x + 1].tolist()
    rhs = sum(mu[m] * prefix[x // m] for m in range(1, x + 1))
    return Fraction(lhs, L), Fraction(rhs, L)
