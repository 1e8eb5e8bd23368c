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
exact sums of integers on int64 lanes.  A weight is read one way only:
``PrimeWeight.values`` maps an array of primes to the int64 array of f
at each; ``random_weight`` computes it from splitmix64 on wrapping
uint64 lanes.  Every check is linear in f, so integer weights lose
nothing: a rational weight passes or fails with any integer multiple of
it.  Each check raises ValueError for a weight whose sums, at the most
terms that check adds, could pass int64 (``_check_bound``).

The four identities cover every 2 <= n <= nmax and every weight in one
shared pass: it sieves each block of n by the primes up to isqrt(nmax)
for their distinct primes and groups the n by omega(n); for each group,
each weight in turn gives its values at the group's primes, and the
coefficients of the subset enumeration for that omega apply.  The
Mobius-inverted form
is the Dirichlet convolution mu * (f o P2), formed for all n at once in
two loops split at s = isqrt(nmax): one slice per m <= s, then one per
d <= nmax/(s+1), at most 2 sqrt(nmax) slices.
``hyperbola_check`` is its own exact check; its left side takes the
same omega(n) groups (``_omega_groups``) and sums over the 2^omega
subsets of each group at once.  Both read mu, omega, P2s and spf from
the arrays their caller hands them.  The inversion reads mu(p) of a prime p
only at the multiples of 6p, so ``mobius_sum_failures`` checks
sum_{d|n} mu(d) = [n = 1] over the same mu array, split at isqrt(nmax)
the same way: it reads every mu(n) at n.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .sieve import X_MAX, FactorSieve


class PrimeWeight(NamedTuple):
    """Integer-valued arithmetic function supported on the primes with
    f(1) = 0: `values` maps an int64 array of primes, of any shape, to the
    int64 array of f at each.  Every check is linear in f, so a rational
    weight is checked exactly by an integer multiple of it."""

    name: str
    values: Callable[[np.ndarray], np.ndarray]


_MASK64 = 0xFFFFFFFFFFFFFFFF


def _splitmix64_lanes(z: np.ndarray) -> np.ndarray:
    """splitmix64's output at every uint64 state of z, on wrapping uint64
    lanes."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def random_weight(seed: int) -> PrimeWeight:
    """Seeded pseudorandom weight a (60 // d), 60 times the rational a/d:
    a in [-5, 5] but never 0 (a zero weight would hide a wrong mu at the n
    it multiplies), d in [1, 6], so 0 < |f| <= 300.  Deterministic in
    (seed, p), from r = the splitmix64 value of (seed << 32) ^ p mod 2^64
    (which is (seed << 32 mod 2^64) | p for any integer seed and prime
    p < 2^32) mod 60: a = r mod 10 - 5, moved up by one unless negative,
    and d = r // 10 + 1."""
    def values(primes: np.ndarray) -> np.ndarray:
        z = primes.astype(np.uint64) | np.uint64((seed << 32) & _MASK64)
        r = (_splitmix64_lanes(z) % np.uint64(60)).astype(np.int64)
        num = r % 10 - 5
        return (num + (num >= 0)) * (60 // (r // 10 + 1))
    return PrimeWeight(f"random[{seed}]", values)


class IdentityReport(NamedTuple):
    """Both sides of one identity instance for the weight named `weight`.
    The batched checks build one only for a mismatch."""

    n: int
    identity: int  # 1..4, or 0 for the inversion form
    k: int
    lhs: int
    rhs: int
    weight: str

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


# most values of n per block of the identity pass; bounds its temporaries
BLOCK = 1 << 16
# n < 2^32 has at most 9 distinct primes: 2*3*...*29 > 2^32
_MAX_OMEGA = 9


class BatchCheck(NamedTuple):
    """Outcome of one batched check over 2 <= n <= nmax: how many
    instances were compared, and a report for each mismatch, in
    (weight, n, identity, k) order."""

    instances: int
    failures: list[IdentityReport]

    @property
    def passed(self) -> bool:
        return not self.failures


def _check_nmax(sieve: FactorSieve, nmax: int) -> None:
    top = min(X_MAX, (sieve.limit + 1) ** 2 - 1)  # isqrt(top) <= sieve.limit
    if not 2 <= nmax <= top:
        raise ValueError(f"nmax = {nmax} outside [2, {top}]")


def _check_bound(weight: PrimeWeight, f: np.ndarray, terms: int) -> None:
    """Raises ValueError when a sum of `terms` values of |f|, which the
    caller states as the bound of its sums, could reach 2^63."""
    # never for random_weight: |f| <= 300, while terms <= max(3^9, 2^32)
    # (the identities' coefficients, nmax < 2^32)
    bound = (2**63 - 1) // terms
    if np.any((f > bound) | (f < -bound)):
        raise ValueError(f"weight {weight.name}: sums of {terms} values f(p) overflow int64")


def _weight_table(weight: PrimeWeight, spf: np.ndarray, nmax: int, terms: int) -> np.ndarray:
    """F[m] = f(m) for 0 <= m <= nmax, 0 off the primes p (spf[p] = p,
    spf[0] = 0), int64, after _check_bound of the values at the primes."""
    primes = np.flatnonzero(spf[: nmax + 1] == np.arange(nmax + 1, dtype=np.uint32))[1:]
    f = weight.values(primes)
    _check_bound(weight, f, terms)
    F = np.zeros(nmax + 1, dtype=np.int64)
    F[primes] = f
    return F


def distinct_prime_rows(primes: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Distinct primes of every lo <= n < hi (2 <= lo < hi <= 2^32),
    increasing down column n - lo of a (max omega, hi - lo) int64 array
    padded with 1.  Each prime p <= isqrt(hi - 1) of `primes` (increasing)
    goes into row omega(n) of its multiples n and divides its powers out of
    a copy of n; what is left is 1 or n's one prime above, recorded last."""
    size = hi - lo
    rows = np.ones((_MAX_OMEGA, size), dtype=np.int64)
    omega = np.zeros(size, dtype=np.intp)
    m = np.arange(lo, hi, dtype=np.uint32)
    for p in primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")].tolist():
        at = np.arange(-lo % p, size, p)
        rows[omega[at], at] = p
        omega[-lo % p :: p] += 1
        q = p
        while (s := -lo % q) < size:
            m[s::q] //= p
            q *= p
    big = m > 1
    rows[omega[big], big] = m[big]
    return rows[: (omega + big).max()]


@lru_cache(maxsize=None)  # at most 45 pairs (w, kw), as w <= _MAX_OMEGA
def _coefficients(w: int, kw: int) -> tuple[np.ndarray, np.ndarray]:
    """(C, R), each (4, kw, w): C[i-1, k-1, j] is the coefficient of f(q_j)
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
    sieve: FactorSieve, nmax: int, kmax: int, weights: list[PrimeWeight]
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Both sides of the four identities for every weight, every
    2 <= n <= nmax and k <= min(kmax, omega(n)), as groups (j, ns, lhs,
    rhs), each for weight j and the n of one block of at most BLOCK
    values with omega(n) = w, the weights in turn for each block and w;
    lhs and rhs have shape (4, min(kmax, w), len(ns)) and are indexed
    [identity - 1, k - 1, row].  For k > omega(n) both sides are 0 (f(1)
    = 0 in identities 1, 2; C(r-1, k-1) = 0 in 3, 4), so nothing is
    stored for them, and memory grows with neither kmax nor the number of
    weights.  Arguments are checked, and each group's values against
    int64, as the groups are reached."""
    _check_nmax(sieve, nmax)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    for ns, group in _omega_groups(sieve.prime_array(isqrt(nmax)), nmax):
        C, R = _coefficients(len(group), min(kmax, len(group)))
        for j, weight in enumerate(weights):
            f = weight.values(group)
            # the |coefficients| of one side sum to less than 3^omega(n)
            _check_bound(weight, f, 3**_MAX_OMEGA)
            yield j, ns, C @ f, R @ f


def _omega_groups(primes: np.ndarray, nmax: int):
    """(ns, primes) per block of [2, nmax] and omega(n) = w: the n with w
    distinct primes, and those primes as a (w, len(ns)) array, increasing
    down each column.  `primes` holds those up to isqrt(nmax)."""
    for lo in range(2, nmax + 1, BLOCK):
        hi = min(lo + BLOCK, nmax + 1)
        rows = distinct_prime_rows(primes, lo, hi)
        omega = np.count_nonzero(rows > 1, axis=0)
        for w in range(1, rows.shape[0] + 1):
            cols = np.flatnonzero(omega == w)
            if cols.size:
                yield cols + lo, rows[:w, cols]


def check_all_identities(
    sieve: FactorSieve, nmax: int, kmax: int, weights: list[PrimeWeight]
) -> BatchCheck:
    """All four identities for every weight, 2 <= n <= nmax and
    k = 1..kmax, in one shared pass (identity_sides); 4 kmax (nmax - 1)
    instances per weight, those with k > omega(n) 0 on both sides."""
    groups = identity_sides(sieve, nmax, kmax, weights)
    found = sorted(
        (j, int(ns[r]), i + 1, k + 1, int(lhs[i, k, r]), int(rhs[i, k, r]))
        for j, ns, lhs, rhs in groups
        for i, k, r in np.argwhere(lhs != rhs).tolist()
    )
    failures = [IdentityReport(n, i, k, a, b, weights[j].name) for j, n, i, k, a, b in found]
    return BatchCheck(4 * kmax * (nmax - 1) * len(weights), failures)


def _mu_convolution(mu: np.ndarray, G: np.ndarray, nmax: int) -> np.ndarray:
    """(mu * G)[n] = sum_{m d = n} mu(m) G[d] for n <= nmax, 0 at n = 0
    (mu[0] = G[0] = 0), mu and G int64, its pairs m d split at
    s = isqrt(nmax): for every m <= s with mu(m) != 0, mu(m) G[1..nmax/m]
    is added into out[m::m]; for every d <= nmax/(s+1) with G[d] != 0,
    mu[s+1..nmax/d] G[d] into out[(s+1)d::d].  At most 2 sqrt(nmax)
    slices."""
    out = np.zeros(nmax + 1, dtype=np.int64)
    s = isqrt(nmax)
    for m in np.flatnonzero(mu[: s + 1]).tolist():
        out[m::m] += int(mu[m]) * G[1 : nmax // m + 1]
    for d in np.flatnonzero(G[: nmax // (s + 1) + 1]).tolist():
        out[(s + 1) * d :: d] += mu[s + 1 : nmax // d + 1] * G[d]
    return out


def inversion_sides(
    sieve: FactorSieve, nmax: int, weight: PrimeWeight, arrays: dict
) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the Mobius-inverted second-order duality
    mu(n)(omega(n)-1) f(p1(n)) = sum_{d|n} mu(n/d) f(P2(d)),
    strict P2, as arrays indexed by n <= nmax (entries 0 and 1 unused).
    The right side is the Dirichlet convolution mu * G with G = F o P2,
    F the table of f (``_mu_convolution``); mu, omega, P2s and spf come
    from `arrays` over at least [0, nmax], as sieve.factor_tables gives them."""
    _check_nmax(sieve, nmax)
    # a side sums at most d(n) <= nmax values of |f|
    F = _weight_table(weight, arrays["spf"], nmax, nmax)
    mu = arrays["mu"][: nmax + 1].astype(np.int64)
    omega = arrays["omega"][: nmax + 1].astype(np.int64)
    lhs = mu * (omega - 1) * F[arrays["spf"][: nmax + 1]]
    return lhs, _mu_convolution(mu, F[arrays["P2s"][: nmax + 1]], nmax)


def mobius_sum_failures(mu: np.ndarray, nmax: int) -> list[tuple[int, int]]:
    """(n, sum_{d|n} mu(d)) for every n <= nmax where that sum is not
    [n = 1], mu read from an array over at least [0, nmax]: the
    convolution mu * 1 (``_mu_convolution``).  The inversion reads mu(p)
    of a prime p only at the multiples of 6p, and its left side is 0
    wherever omega(n) = 1; this sum reads every mu(n) at n itself."""
    ones = np.ones(nmax + 1, dtype=np.int64)
    ones[0] = 0
    sums = _mu_convolution(mu[: nmax + 1].astype(np.int64), ones, nmax)
    sums[1] -= 1
    bad = np.flatnonzero(sums)
    return list(zip(bad.tolist(), sums[bad].tolist()))


def check_inversion(
    sieve: FactorSieve, nmax: int, weight: PrimeWeight, arrays: dict
) -> BatchCheck:
    """The Mobius-inverted form (inversion_sides) for every 2 <= n <= nmax;
    reports carry identity 0, k 2."""
    lhs, rhs = inversion_sides(sieve, nmax, weight, arrays)
    bad = np.flatnonzero(lhs[2:] != rhs[2:]) + 2
    failures = [IdentityReport(n, 0, 2, int(lhs[n]), int(rhs[n]), weight.name) for n in bad.tolist()]
    return BatchCheck(nmax - 1, failures)


def hyperbola_check(
    sieve: FactorSieve, x: int, weight: PrimeWeight, arrays: dict
) -> tuple[int, int]:
    """Both sides of the divisor-sum rearrangement
    sum_{n<=x} sum_{d|n} mu(n/d) f(P2(d))
      = sum_{m<=x} mu(m) sum_{d<=x/m} f(P2(d)).
    Returns (lhs, rhs); they must be equal exactly.

    The rearrangement holds for any function in place of mu, so the two
    sides take mu from different sources: the left from the distinct
    primes of n (mu(n/d) = (-1)^r for n/d a product of r of them), the
    right from `arrays`, which give P2s and spf too over at least [0, x], as
    sieve.factor_tables gives them.  A wrong mu entry then shows.  The
    left side takes the n grouped by omega(n) = w with their distinct
    primes (_omega_groups) and sums G = f o P2 over each of the 2^w
    subsets at once; n = 1 adds G[1] = 0."""
    _check_nmax(sieve, max(2, x))
    # a group or prefix sum adds at most x values of |f|
    F = _weight_table(weight, arrays["spf"], x, x)
    G = F[arrays["P2s"][: x + 1]]
    lhs = 0
    for ns, primes in _omega_groups(sieve.prime_array(isqrt(x)), x):
        terms = [(1, ns)]
        for p in primes:
            terms += [(-s, d // p) for s, d in terms]
        lhs += sum(s * int(G[d].sum()) for s, d in terms)
    prefix = np.cumsum(G).tolist()
    mu = arrays["mu"][: x + 1].tolist()
    rhs = sum(mu[m] * prefix[x // m] for m in range(1, x + 1))
    return lhs, rhs
