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

The identities, the Mobius-inverted form and the Mobius sums cover
every 2 <= n <= nmax and every weight in one walk (``duality_sides``):
each block of n is sieved once by the primes up to isqrt(nmax) for its
distinct primes, grouped by omega(n), and factored once by
``factor_block`` for mu; for each group, each weight in turn gives its
values at the group's primes once, and the coefficients of the subset
enumeration for that omega apply to them.  ``hyperbola_check`` reads mu
from ``factor_block`` of its one block [2, x]; ``corrupt_mu``, verify's
test hook, flips one mu there.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb, isqrt
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .sieve import X_MAX, FactorSieve, factor_block


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


_SIXTY = np.uint64(60)
# random_weight's value a (60 // d) at each r in [0, 60)
_RANDOM_VALUES = np.array([(r % 10 - 5 + (r % 10 >= 5)) * (60 // (r // 10 + 1)) for r in range(60)])


def random_weight(seed: int) -> PrimeWeight:
    """Seeded pseudorandom weight a (60 // d), 60 times the rational a/d:
    a in [-5, 5] but never 0 (a zero weight would hide a wrong mu at the n
    it multiplies), d in [1, 6], so 0 < |f| <= 300.  Deterministic in
    (seed, p), from r = the splitmix64 value of (seed << 32) ^ p mod 2^64
    (which is (seed << 32 mod 2^64) | p for any integer seed and prime
    p < 2^32) mod 60: a = r mod 10 - 5, moved up by one unless negative,
    and d = r // 10 + 1, read from a table indexed by r."""
    def values(primes: np.ndarray) -> np.ndarray:
        z = _splitmix64_lanes(primes.astype(np.uint64) | np.uint64((seed << 32) & _MASK64))
        # z mod 60 from a floor division, which numpy does by multiplying
        # (its uint64 remainder divides); int64 indices gather faster
        z -= z // _SIXTY * _SIXTY
        return _RANDOM_VALUES[z.view(np.int64)]
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


# most values of n per block of the duality checks' walk; bounds its temporaries
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


def distinct_prime_rows(primes: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct primes of every lo <= n < hi (2 <= lo < hi <= 2^32),
    increasing down column n - lo of a (max omega, hi - lo) int64 array
    padded with 1, and each n's repeat pattern: bit j set where row j's
    prime divides n twice.  Each prime p <= isqrt(hi - 1) of `primes`
    (increasing) goes into row omega(n) of its multiples n, sets that bit
    at those of p^2 and divides its powers out of a copy of n; what is
    left is 1 or n's one prime above, recorded last."""
    size = hi - lo
    rows = np.ones((_MAX_OMEGA, size), dtype=np.int64)
    omega = np.zeros(size, dtype=np.intp)
    reps = np.zeros(size, dtype=np.intp)
    m = np.arange(lo, hi, dtype=np.uint32)
    for p in primes[: np.searchsorted(primes, isqrt(hi - 1), side="right")].tolist():
        at = np.arange(-lo % p, size, p)
        rows[omega[at], at] = p
        if (s := -lo % (p * p)) < size:  # no multiple of p^2 for most p > isqrt(size)
            reps[s :: p * p] |= 1 << omega[s :: p * p]
        omega[-lo % p :: p] += 1
        q = p
        while (s := -lo % q) < size:
            m[s::q] //= p
            q *= p
    big = m > 1
    rows[omega[big], big] = m[big]
    return rows[: (omega + big).max()], reps


@lru_cache(maxsize=None)  # at most 45 pairs (w, kw), as w <= _MAX_OMEGA
def _coefficients(w: int, kw: int) -> tuple[np.ndarray, np.ndarray]:
    """(D, R), each (4, kw, w), for n with the w primes q_0 < ... < q_{w-1}:
    R[i-1, k-1, j] is the coefficient of f(q_j) in the right side of
    identity i at k, and D = C - R, C the left sides' coefficients from
    the enumeration of the squarefree divisors d as subsets of r primes
    (sign (-1)^r, C(r-1, k-1), k <= r).  An identity holds at f where
    D @ f is 0."""
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
    D = C - R
    D.flags.writeable = R.flags.writeable = False  # shared by every caller
    return D, R


def _omega_groups(primes: np.ndarray, lo: int, hi: int):
    """(cols, primes, reps) per omega(n) = w over lo <= n < hi: the columns
    n - lo of the n with w distinct primes, and those primes, (w, len(cols)),
    and repeat patterns of distinct_prime_rows."""
    rows, reps = distinct_prime_rows(primes, lo, hi)
    omega = np.count_nonzero(rows > 1, axis=0)
    for w in range(1, rows.shape[0] + 1):
        cols = np.flatnonzero(omega == w)
        if cols.size:
            yield cols, rows[:w, cols], reps[cols]


def _factor_block(primes: np.ndarray, lo: int, hi: int, corrupt_mu: int | None) -> dict[str, np.ndarray]:
    """factor_block of lo <= n < hi, mu(corrupt_mu) negated, or set to 1
    where it is 0, when the block holds it (verify's test hook)."""
    block = factor_block(primes, lo, hi)
    if corrupt_mu is not None and lo <= corrupt_mu < hi:
        mu = block["mu"]
        mu[corrupt_mu - lo] = -mu[corrupt_mu - lo] or 1
    return block


@lru_cache(maxsize=None)
def _inversion_coefficients(w: int, reps: int) -> np.ndarray:
    """Coefficient of f(q_j) in sum_S (-1)^|S| f(P2(n / prod S)), S over
    the subsets of n's w primes q_0 < ... < q_{w-1}, bit j of `reps` set
    where q_j^2 | n: n / prod S keeps q_j unless S holds it and the bit
    is clear."""
    R = np.zeros(w, dtype=np.int64)
    for r in range(w + 1):
        for s in combinations(range(w), r):
            kept = [j for j in range(w) if j not in s or reps >> j & 1]
            if len(kept) > 1:
                R[kept[-2]] += -1 if r % 2 else 1
    R.flags.writeable = False  # shared by every caller
    return R


def duality_sides(
    sieve: FactorSieve, nmax: int, kmax: int, weights: list[PrimeWeight], corrupt_mu: int | None = None
) -> Iterator[tuple]:
    """Every check of the walk over 2 <= n <= nmax, as groups (j, ns, f,
    residual, lhs, rhs), each for the n of one block of at most BLOCK
    values with omega(n) = w.  First, j = None: lhs is the block's mu(n)
    and rhs (-1)^w [n squarefree], whose difference is sum_{d|n} mu(d),
    and f = residual = None.  Then, for weight j in turn: f, its values
    at the group's primes, (w, len(ns)); the residual D @ f of the four
    identities, (4, min(kmax, w), len(ns)) indexed [identity - 1, k - 1,
    row], which is 0 where they hold (for k > omega(n) both sides are 0,
    so nothing is stored for them, and memory grows with neither kmax
    nor the number of weights); and lhs, rhs the two sides of
    mu(n)(omega(n)-1) f(p1(n)) = sum_{d|n} mu(n/d) f(P2(d)), strict P2,
    the left side 0 at a prime or prime power.  mu and omega come from
    _factor_block, p1 and the right side's d = n / prod S from the
    distinct primes.  Arguments are checked, and each group's values
    against int64, as the groups are reached."""
    _check_nmax(sieve, nmax)
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    primes = sieve.prime_array(isqrt(nmax))
    for lo in range(2, nmax + 1, BLOCK):
        hi = min(lo + BLOCK, nmax + 1)
        block = _factor_block(primes, lo, hi, corrupt_mu)
        for cols, group, reps in _omega_groups(primes, lo, hi):
            w = len(group)
            ns, mu = cols + lo, block["mu"][cols]
            yield None, ns, None, None, mu, (reps == 0) * (-1) ** w
            D = _coefficients(w, min(kmax, w))[0]
            left = mu * (block["omega"][cols] - 1)
            # row i: the inversion's coefficient of f(q_i) at each n
            R = np.array([_inversion_coefficients(w, r) for r in range(reps.max() + 1)]).T[:, reps]
            for j, weight in enumerate(weights):
                f = weight.values(group)
                # the |coefficients| of an identity's sides sum to less
                # than 3^omega(n), the inversion's to 2^omega(n)
                _check_bound(weight, f, 3**_MAX_OMEGA)
                yield j, ns, f, D @ f, left * f[0], sum(R[i] * f[i] for i in range(w))


def check_all_identities(
    sieve: FactorSieve, nmax: int, kmax: int, weights: list[PrimeWeight], corrupt_mu: int | None = None
) -> tuple[BatchCheck, BatchCheck, list[tuple[int, int]]]:
    """The walk of duality_sides, reduced: the four identities for every
    weight and k = 1..kmax, 4 kmax (nmax - 1) instances per weight, those
    with k > omega(n) 0 on both sides; the Mobius-inverted form, nmax - 1
    instances per weight, reports carrying identity 0, k 2; and (n,
    sum_{d|n} mu(d)) wherever that is not 0.  A group whose residual is
    not 0 is reported from its right sides R @ f, the left ones being
    R @ f + residual."""
    found, inverted, mobius = [], [], []
    for j, ns, f, residual, lhs, rhs in duality_sides(sieve, nmax, kmax, weights, corrupt_mu):
        bad = np.flatnonzero(lhs != rhs)
        if j is None:
            mobius += zip(ns[bad].tolist(), (lhs[bad] - rhs[bad]).tolist())
            continue
        inverted += ((j, *nab) for nab in zip(ns[bad].tolist(), lhs[bad].tolist(), rhs[bad].tolist()))
        if residual.any():
            right = _coefficients(len(f), residual.shape[1])[1] @ f
            found += (
                (j, int(ns[r]), i + 1, k + 1, int(right[i, k, r]) + int(residual[i, k, r]), int(right[i, k, r]))
                for i, k, r in np.argwhere(residual).tolist()
            )
    identities = [IdentityReport(n, i, k, a, b, weights[j].name) for j, n, i, k, a, b in sorted(found)]
    inversion = [IdentityReport(n, 0, 2, a, b, weights[j].name) for j, n, a, b in sorted(inverted)]
    return (
        BatchCheck(4 * kmax * (nmax - 1) * len(weights), identities),
        BatchCheck(len(weights) * (nmax - 1), inversion),
        sorted(mobius),
    )


def check_inversion(
    sieve: FactorSieve, nmax: int, weights: list[PrimeWeight], corrupt_mu: int | None = None
) -> tuple[BatchCheck, list[tuple[int, int]]]:
    """The inversion's and the Mobius sums' results of check_all_identities."""
    _, inversion, mobius = check_all_identities(sieve, nmax, 1, weights, corrupt_mu)
    return inversion, mobius


def hyperbola_check(
    sieve: FactorSieve, x: int, weight: PrimeWeight, corrupt_mu: int | None = None
) -> tuple[int, int]:
    """Both sides of the divisor-sum rearrangement
    sum_{n<=x} sum_{d|n} mu(n/d) f(P2(d))
      = sum_{m<=x} mu(m) sum_{d<=x/m} f(P2(d)).
    Returns (lhs, rhs); they must be equal exactly.

    The rearrangement holds for any function in place of mu, so the sides
    take mu from different sources and a wrong one shows: the left from
    the distinct primes of n (_omega_groups), summing G = f o P2 over the
    2^w subsets of each group at once (n = 1 adds G[1] = 0), the right
    from _factor_block of [2, x], which gives P2 too."""
    _check_nmax(sieve, max(2, x))
    if x < 2:
        return 0, 0
    primes = sieve.prime_array(isqrt(x))
    block = _factor_block(primes, 2, x + 1, corrupt_mu)
    P2s = block["P2s"].astype(np.int64)
    G = np.zeros(x + 1, dtype=np.int64)
    G[2:][P2s > 1] = f = weight.values(P2s[P2s > 1])
    # a group or prefix sum adds at most x values of |f|
    _check_bound(weight, f, x)
    lhs = 0
    for cols, group, _ in _omega_groups(primes, 2, x + 1):
        terms = [(1, cols + 2)]
        for p in group:
            terms += [(-s, d // p) for s, d in terms]
        lhs += sum(s * int(G[d].sum()) for s, d in terms)
    prefix = np.cumsum(G).tolist()
    mu = [0, 1, *block["mu"].tolist()]
    rhs = sum(mu[m] * prefix[x // m] for m in range(1, x + 1))
    return lhs, rhs
