"""Exact verification machinery for the divisor-sum duality identities
that exchange information between smallest and k-th largest prime
factors, and for the Mobius-inversion form that the class-restricted
series results rest on.

These are identities, not estimates, so there is no tolerance anywhere:
exact integer sums over a common denominator; Fractions only in reports
and the oracle.  Every identity is linear in the weight f, so a check
takes L = lcm of the denominators of f(p) over the primes it reads and
sums F(p) = f(p) L as Python ints; ``divisor_sum`` and ``identity_rhs``
are the Fraction oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import Callable, NamedTuple

from .galois import GaloisContext
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


def indicator_weight(predicate: Callable[[int], bool], name: str) -> PrimeWeight:
    return PrimeWeight(name, lambda p: Fraction(1 if predicate(p) else 0))


def residue_weight(ell: int, k: int) -> PrimeWeight:
    """Indicator of primes congruent to ell mod k."""
    return indicator_weight(lambda p: p % k == ell, f"p = {ell} mod {k}")

def class_weight(ctx: GaloisContext, label: str) -> PrimeWeight:
    """Indicator of primes whose Frobenius class is `label` (ramified
    primes get 0)."""
    def fn(p: int) -> Fraction:
        out = ctx.classify(p)
        return Fraction(1 if (not out.is_ramified and out.label == label) else 0)
    return PrimeWeight(f"class {label} in {ctx.spec_string()}", fn)


def random_weight(seed: int) -> PrimeWeight:
    """Seeded pseudorandom rational weight, bounded in [-5, 5] with
    denominators <= 6.  Deterministic in (seed, p)."""
    def fn(p: int) -> Fraction:
        rng = random.Random((seed << 32) ^ p)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return PrimeWeight(f"random[{seed}]", fn)


class IdentityReport(NamedTuple):
    """Both sides of one identity instance as integers over the common
    denominator `denom` (a tuple: hundreds of thousands are built per
    verify run)."""

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


def _binom(m: int, j: int) -> int:
    # the m = -1 case only ever multiplies f(1) = 0; fixed for definiteness
    if m < 0:
        return 1 if (m == -1 and j == 0) else 0
    return comb(m, j) if j <= m else 0


def _distinct_primes(sieve: FactorSieve, n: int) -> list[int]:
    return [p for p, _ in sieve.factorize(n)]


def _scaled(weight: PrimeWeight, args) -> tuple[dict[int, int], int]:
    """({m: F(m)}, L): L the lcm of the denominators of f over `args`,
    F(m) = f(m) L as an int."""
    vals = {m: weight(m) for m in args}
    L = lcm(*(v.denominator for v in vals.values()))
    return {m: v.numerator * (L // v.denominator) for m, v in vals.items()}, L


def _kth(primes_sorted: list[int], k: int, largest: bool) -> int:
    """k-th largest (or smallest) element of an increasing prime list,
    1 when there are fewer than k."""
    if k > len(primes_sorted):
        return 1
    return primes_sorted[-k] if largest else primes_sorted[k - 1]


def divisor_sum(
    sieve: FactorSieve, n: int, k: int, identity: int, weight: PrimeWeight
) -> Fraction:
    """Left-hand side of one of the four duality identities, by full
    divisor enumeration.

    1: sum_{d|n} mu(d) f(P_k(d))
    2: sum_{d|n} mu(d) f(p_k(d))
    3: sum_{d|n} mu(d) C(omega(d)-1, k-1) f(P_1(d))
    4: sum_{d|n} mu(d) C(omega(d)-1, k-1) f(p_1(d))

    Only squarefree divisors contribute (mu kills the rest), so d ranges
    over subsets of the distinct primes of n; d = 1 contributes 0 because
    f(1) = 0.
    """
    if identity not in (1, 2, 3, 4):
        raise ValueError(f"identity must be 1..4, got {identity}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 2 <= n <= sieve.limit:
        raise ValueError(f"n = {n} outside [2, {sieve.limit}]")
    primes = _distinct_primes(sieve, n)
    total = Fraction(0)
    for r in range(1, len(primes) + 1):
        mu_d = -1 if r % 2 else 1
        for subset in combinations(primes, r):
            if identity == 1:
                term = weight(_kth(list(subset), k, largest=True))
            elif identity == 2:
                term = weight(subset[k - 1] if k <= r else 1)
            elif identity == 3:
                term = _binom(r - 1, k - 1) * weight(subset[-1])
            else:
                term = _binom(r - 1, k - 1) * weight(subset[0])
            total += mu_d * term
    return total


def identity_rhs(
    sieve: FactorSieve, n: int, k: int, identity: int, weight: PrimeWeight
) -> Fraction:
    primes = _distinct_primes(sieve, n)
    sign = (-1) ** k
    if identity == 1:
        return sign * _binom(len(primes) - 1, k - 1) * weight(primes[0])
    if identity == 2:
        return sign * _binom(len(primes) - 1, k - 1) * weight(primes[-1])
    if identity == 3:
        return sign * weight(_kth(primes, k, largest=False))
    return sign * weight(_kth(primes, k, largest=True))


def check_identity(
    sieve: FactorSieve, n: int, k: int, identity: int, weight: PrimeWeight
) -> IdentityReport:
    """One identity instance from the Fraction oracle."""
    lhs = divisor_sum(sieve, n, k, identity, weight)
    rhs = identity_rhs(sieve, n, k, identity, weight)
    L = lcm(lhs.denominator, rhs.denominator)
    return IdentityReport(n, identity, k, int(lhs * L), int(rhs * L), L)


def check_all_identities(
    sieve: FactorSieve, n: int, kmax: int, weight: PrimeWeight
) -> list[IdentityReport]:
    """All four identities for k = 1..kmax in one subset-enumeration pass
    over the distinct primes of n, each carried as its scaled weight F(p);
    the right-hand sides are the closed forms of identity_rhs in F."""
    primes = _distinct_primes(sieve, n)
    w = len(primes)
    F_of, L = _scaled(weight, primes)
    F = list(F_of.values())
    lhs = [[0] * (kmax + 1) for _ in range(5)]  # lhs[identity][k]
    for r in range(1, w + 1):
        mu_d = -1 if r % 2 else 1
        # k > r reads f(1) = 0 (identities 1, 2) or C(r-1, k-1) = 0 (3, 4)
        kr = range(1, min(r, kmax) + 1)
        b = [0] + [mu_d * comb(r - 1, k - 1) for k in kr]
        for subset in combinations(F, r):
            for k in kr:
                lhs[1][k] += mu_d * subset[-k]
                lhs[2][k] += mu_d * subset[k - 1]
                lhs[3][k] += b[k] * subset[-1]
                lhs[4][k] += b[k] * subset[0]
    reports = []
    for i in (1, 2, 3, 4):
        for k in range(1, kmax + 1):
            sign = -1 if k % 2 else 1
            if i <= 2:
                rhs = sign * _binom(w - 1, k - 1) * (F[0] if i == 1 else F[-1])
            else:
                rhs = sign * (F[k - 1] if i == 3 else F[-k]) if k <= w else 0
            reports.append(IdentityReport(n, i, k, lhs[i][k], rhs, L))
    return reports


def check_inversion(sieve: FactorSieve, n: int, weight: PrimeWeight) -> IdentityReport:
    """Mobius-inverted second-order duality:
    mu(n)(omega(n)-1) f(p1(n)) = sum_{d|n} mu(n/d) f(P2(d)),
    with the strict (distinct-prime) second-largest factor."""
    if not 2 <= n <= sieve.limit:
        raise ValueError(f"n = {n} outside [2, {sieve.limit}]")
    mu, P2 = sieve.mu_table(), sieve.P2_strict_table()
    factors = sieve.factorize(n)
    primes = [p for p, _ in factors]
    F_of, L = _scaled(weight, [1] + primes)
    lhs = int(mu[n]) * (int(sieve.omega_table()[n]) - 1) * F_of[primes[0]]
    rhs = 0
    for d in _divisors(factors):
        mu_cof = int(mu[n // d])
        if mu_cof:
            rhs += mu_cof * F_of[int(P2[d])]
    return IdentityReport(n, 0, 2, lhs, rhs, L)


def _divisors(factors: list[tuple[int, int]]) -> list[int]:
    divs = [1]
    for p, e in factors:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return divs


def hyperbola_check(sieve: FactorSieve, x: int, weight: PrimeWeight) -> tuple[Fraction, Fraction]:
    """Both sides of the divisor-sum rearrangement
    sum_{n<=x} sum_{d|n} mu(n/d) f(P2(d))
      = sum_{m<=x} mu(m) sum_{d<=x/m} f(P2(d)).
    Returns (lhs, rhs); they must be equal exactly.

    The rearrangement holds for any function in place of mu, so the two
    sides take mu from different sources: the left from the distinct
    primes of n (mu(n/d) = (-1)^r for n/d a product of r of them), the
    right from mu_table().  A wrong mu entry then shows."""
    if x > sieve.limit:
        raise ValueError(f"x = {x} exceeds sieve limit {sieve.limit}")
    P2 = sieve.P2_strict_table()[: x + 1].tolist()
    F_of, L = _scaled(weight, set(P2))
    f_of_P2 = [F_of[q] for q in P2]
    lhs = 0
    for n in range(1, x + 1):
        terms = [(1, n)]
        for p in _distinct_primes(sieve, n):
            terms += [(-s, d // p) for s, d in terms]
        lhs += sum(s * f_of_P2[d] for s, d in terms)
    prefix = [0] * (x + 1)
    for d in range(1, x + 1):
        prefix[d] = prefix[d - 1] + f_of_P2[d]
    mu = sieve.mu_table()[: x + 1].tolist()
    rhs = sum(mu[m] * prefix[x // m] for m in range(1, x + 1))
    return Fraction(lhs, L), Fraction(rhs, L)
