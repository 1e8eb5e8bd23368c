"""Exact duality identities: hand-enumerated cases, the k > omega(n)
conventions, and property tests with seeded integer weights."""

import re
from functools import cache
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsums.duality import (
    BLOCK,
    BatchCheck,
    PrimeWeight,
    _check_bound,
    _coefficients,
    _splitmix64_lanes,
    check_all_identities,
    check_inversion,
    distinct_prime_rows,
    duality_sides,
    hyperbola_check,
    random_weight,
)
from artinsums.sieve import FactorSieve
from oracles import (
    TrialSpf,
    binom,
    divisor_sum,
    factored,
    factorize,
    identity_rhs,
    inversion_rhs,
    mu_convolution,
    random_value,
    spf_walk_rows,
    splitmix64,
    weight_at,
    weight_table,
)


def indicator(name, keep):
    """Weight 1 on the primes p where keep(p), 0 on the others."""
    return PrimeWeight(name, lambda p: keep(p).astype(np.int64))


ONE_ON_PRIMES = indicator("1 on primes", lambda p: p > 1)
MOD4 = indicator("p = 3 mod 4", lambda p: p % 4 == 3)
MOD3 = indicator("p = 1 mod 3", lambda p: p % 3 == 1)


def class_weight(ctx, label):
    """Indicator of the primes whose Frobenius class is `label` (ramified
    primes get 0), one classify a prime."""
    @cache
    def one(p):
        return int(ctx.classify(p).label == label)

    return indicator(f"class {label} in {ctx.spec_string()}", np.vectorize(one, otypes=[bool]))


def test_weight_vanishes_at_one(sieve_small):
    # f(1) = 0 is a convention of the checks: none of them asks a weight
    # for a value at 1
    for w in (ONE_ON_PRIMES, MOD4, random_weight(3)):
        assert weight_at(w, 1) == 0

    def values(p):
        assert np.all(p > 1), "asked for f(1)"
        return random_weight(3).values(p)

    w = PrimeWeight("no value at 1", values)
    assert check_all_identities(sieve_small, 300, 3, [w]) == (BatchCheck(3588, []), BatchCheck(299, []), [])
    assert len(set(hyperbola_check(sieve_small, 300, w))) == 1


def test_residue_weight():
    assert weight_at(MOD4, 3) == 1
    assert weight_at(MOD4, 7) == 1
    assert weight_at(MOD4, 5) == 0


def test_random_weight_deterministic():
    primes = np.array([2, 3, 5, 7, 11, 97])
    assert np.array_equal(random_weight(9).values(primes), random_weight(9).values(primes))
    assert np.any(random_weight(1).values(primes) != random_weight(2).values(primes))


def test_random_weight_bounds():
    # a (60 // d), a a nonzero integer in [-5, 5] and d in [1, 6]: every
    # value taken, never 0, |f| <= 300
    values = set()
    for seed in (-1, 0, 1, 2**40):
        values |= set(random_weight(seed).values(np.arange(2, 3000)).tolist())
    assert values == {a * (60 // d) for a in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5) for d in range(1, 7)}


def test_binom_convention():
    assert binom(-1, 0) == 1
    assert binom(-1, 1) == 0
    assert binom(-1, 5) == 0
    assert binom(3, 2) == 3
    assert binom(2, 5) == 0


def test_identity4_n21_k2(sieve_small):
    # six divisors of 21; the only surviving term is f(P2(21)) = f(3)
    assert divisor_sum(sieve_small, 21, 2, 4, MOD4) == identity_rhs(sieve_small, 21, 2, 4, MOD4) == 1


def test_identity4_n12_k2(sieve_small):
    # P2(12) = 2 and f(2) = 0 for the 3-mod-4 indicator
    assert divisor_sum(sieve_small, 12, 2, 4, MOD4) == identity_rhs(sieve_small, 12, 2, 4, MOD4) == 0


def test_identity2_n21_k1(sieve_small):
    # full divisor sum: -f(3) - f(7) + f(3) = -f(P1(21)) = -f(7)
    assert divisor_sum(sieve_small, 21, 1, 2, MOD4) == -weight_at(MOD4, 7)


def test_identity1_prime(sieve_small):
    for p in (2, 3, 97):
        assert divisor_sum(sieve_small, p, 1, 1, ONE_ON_PRIMES) == -1
        assert identity_rhs(sieve_small, p, 1, 1, ONE_ON_PRIMES) == -1


def test_identity3_n30_k1(sieve_small):
    # sum mu(d) f(P1(d)) over d | 30 collapses to -f(p1(30)) = -f(2)
    lhs = divisor_sum(sieve_small, 30, 1, 3, ONE_ON_PRIMES)
    assert lhs == identity_rhs(sieve_small, 30, 1, 3, ONE_ON_PRIMES) == -1


def test_identity2_k_beyond_omega(sieve_small):
    # omega(6) = 2 < k = 5: the binomial on the right vanishes
    lhs = divisor_sum(sieve_small, 6, 5, 2, ONE_ON_PRIMES)
    assert lhs == identity_rhs(sieve_small, 6, 5, 2, ONE_ON_PRIMES) == 0


def inversion_arrays(sieve, nmax, weights, corrupt_mu=None):
    """The inversion's sides of duality_sides gathered into one int64
    array of shape (len(weights) + 1, 2, nmax + 1): (lhs, rhs) indexed by
    n for each weight, then the block's mu and (-1)^omega [n squarefree];
    entries 0 and 1 are 0.  Checks that each group holds the n of one
    omega and that every n comes once for each j."""
    out = np.zeros((len(weights) + 1, 2, nmax + 1), dtype=np.int64)
    seen = np.zeros((len(weights) + 1, nmax + 1), dtype=np.int64)
    for j, ns, _, _, lhs, rhs in duality_sides(sieve, nmax, 1, weights, corrupt_mu):
        assert len({len(factorize(sieve, n)) for n in ns[[0, -1]].tolist()}) == 1
        j = len(weights) if j is None else j
        out[j, 0, ns], out[j, 1, ns] = lhs, rhs
        seen[j, ns] += 1
    assert (seen[:, 2:] == 1).all() and not seen[:, :2].any()
    return out


def test_inversion_examples(sieve_small):
    (lhs, rhs), _ = inversion_arrays(sieve_small, 15, [ONE_ON_PRIMES])
    # squarefree omega = 2; a prime: both sides zero; non-squarefree: mu(12) = 0 on the left
    for n, value in ((15, 1), (13, 0), (12, 0)):
        assert lhs[n] == rhs[n] == value
    assert check_inversion(sieve_small, 15, [ONE_ON_PRIMES]) == (BatchCheck(14, []), [])


def identity_groups(sieve, nmax, kmax, weights):
    """(j, ns, lhs, rhs) per group and weight of duality_sides: the right
    sides R @ f of the identities, and the left ones R @ f + residual."""
    for j, ns, f, residual, _, _ in duality_sides(sieve, nmax, kmax, weights):
        if j is not None:
            rhs = _coefficients(len(f), residual.shape[1])[1] @ f
            yield j, ns, rhs + residual, rhs


def unit_weight(q):
    """Weight 1 at the prime q, 0 at every other."""
    return indicator(f"1 at {q}", lambda p: p == q)


def test_coefficients_match_the_oracles(sieve_big):
    # C = D + R and R against the enumeration oracle and the closed form,
    # a unit weight on each distinct prime q_j in turn, at the first three
    # n from the primorial on for each omega = w up to 7, squarefree or not;
    # a smaller kw keeps the first kw rows
    omega = sieve_big.omega_table()
    for w in range(1, 8):
        D, R = _coefficients(w, w)
        primorial = int(np.prod(sieve_big.prime_array(20)[:w]))
        for n in (np.flatnonzero(omega[primorial:] == w)[:3] + primorial).tolist():
            for j, (q, _) in enumerate(factorize(sieve_big, n)):
                unit = unit_weight(q)
                for i in (1, 2, 3, 4):
                    for k in range(1, w + 1):
                        got = int(D[i - 1, k - 1, j] + R[i - 1, k - 1, j]), int(R[i - 1, k - 1, j])
                        want = divisor_sum(sieve_big, n, k, i, unit), identity_rhs(sieve_big, n, k, i, unit)
                        assert got == want, (n, q, i, k)
        for kw in range(1, w):
            assert all(np.array_equal(a, b[:, :kw]) for a, b in zip(_coefficients(w, kw), (D, R))), (w, kw)


def batched_sides(sieve, nmax, kmax, weights, wanted=None):
    """[{n: {(identity, k): (lhs, rhs)}} per weight] from identity_groups
    as ints, with the k > omega(n) entries, which the walk does not
    store, as 0."""
    out = [{} for _ in weights]
    for j, ns, lhs, rhs in identity_groups(sieve, nmax, kmax, weights):
        for r, n in enumerate(ns.tolist()):
            if wanted is None or n in wanted:
                out[j][n] = {
                    (i, k): (
                        int(lhs[i - 1, k - 1, r]) if k <= lhs.shape[1] else 0,
                        int(rhs[i - 1, k - 1, r]) if k <= lhs.shape[1] else 0,
                    )
                    for i in (1, 2, 3, 4)
                    for k in range(1, kmax + 1)
                }
    return out


def assert_matches_oracle(sieve, sides, weight):
    for n, by_ik in sides.items():
        for (i, k), (lhs, rhs) in by_ik.items():
            assert lhs == divisor_sum(sieve, n, k, i, weight), (weight.name, n, i, k)
            assert rhs == identity_rhs(sieve, n, k, i, weight), (weight.name, n, i, k)
            assert lhs == rhs


def test_check_all_matches_single_path(sieve_small):
    w = random_weight(4)
    ns = (2, 12, 30, 210, 2310, 96577)  # 96577 = 13*17*19*23
    (sides,) = batched_sides(sieve_small, 96577, 3, [w], set(ns))
    assert sorted(sides) == list(ns)
    assert_matches_oracle(sieve_small, sides, w)


@given(st.integers(2, 5000), st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_identities_hold_exactly(sieve_small, n, k, seed):
    w = random_weight(seed)
    for identity in (1, 2, 3, 4):
        lhs = divisor_sum(sieve_small, n, k, identity, w)
        rhs = identity_rhs(sieve_small, n, k, identity, w)
        assert lhs == rhs, (n, k, identity, str(lhs), str(rhs))


def test_inversion_holds_exactly(sieve_small):
    result, mobius = check_inversion(sieve_small, 5000, [random_weight(seed) for seed in range(5)])
    assert result.passed and result.instances == 5 * 4999 and mobius == [], result.failures[:1]


def test_corrupt_mu_fails_the_inversion_for_each_weight(sieve_small):
    # verify's hook flips mu(42): mu(42) (omega(42) - 1) f(2) changes sign
    # for every weight, none of which is 0 at 2, and the identities, which
    # read no mu, still pass
    weights = [random_weight(0), random_weight(1)]
    identities, inversion, mobius = check_all_identities(sieve_small, 300, 3, weights, corrupt_mu=42)
    assert identities == BatchCheck(2 * 4 * 3 * 299, [])
    assert [(rep.n, rep.weight) for rep in inversion.failures] == [(42, "random[0]"), (42, "random[1]")]
    assert all(rep.lhs == -rep.rhs == 2 * weight_at(w, 2) for rep, w in zip(inversion.failures, weights))
    assert mobius == [(42, 2)]


def test_class_weight_indicator(sieve_small, ctx_cubic):
    w = class_weight(ctx_cubic, "3")
    assert weight_at(w, 2) == 1  # 2 is a 3-cycle prime
    assert weight_at(w, 3) == 0
    assert weight_at(w, 31) == 0  # ramified primes weigh nothing
    assert weight_at(w, 1) == 0


def test_identity4_k2_reproduces_second_order_form(sieve_small, ctx_cubic):
    # with a class indicator, identity 4 at k=2 reads
    # sum_{d|n} mu(d)(omega(d)-1) f(p1(d)) = f(P2(n)) for squarefree n
    w = class_weight(ctx_cubic, "1+2")
    for n in (15, 21, 105, 210, 1155):
        p2 = factored(sieve_small, n).P2s
        assert divisor_sum(sieve_small, n, 2, 4, w) == identity_rhs(sieve_small, n, 2, 4, w) == weight_at(w, p2)


def test_hyperbola_rearrangement(sieve_small):
    for seed in (0, 1):
        lhs, rhs = hyperbola_check(sieve_small, 300, random_weight(seed))
        assert lhs == rhs
    lhs, rhs = hyperbola_check(sieve_small, 100, MOD4)
    assert lhs == rhs


# --- the int64 path against the scalar oracles -------------------------------

# both signs and |f| up to 5 * 2^40 / 7, about 2^39.5: far wider than the
# seeded weights' 300, with values that differ with p mod 7 and p mod 11
_COPRIME_DIVISORS = np.array([7, 11, 13, 17, 19, 23, 29])
WIDE = PrimeWeight(
    "(p mod 11 - 5) 2^40 // (7, 11, ..., 29)[p mod 7]",
    lambda p: (p % 11 - 5) * ((1 << 40) // _COPRIME_DIVISORS[p % 7]),
)
# |f| at most 2^56, at p = 2: sums of 128 or more values may pass int64
OVER_P = PrimeWeight("(p mod 7 - 3) 2^57 // p", lambda p: (p % 7 - 3) * ((1 << 57) // p))
# values of size 2^62: every |f| fits in int64, but sums of two do not
HUGE = PrimeWeight("(p mod 3 - 1) 2^62", lambda p: (p % 3 - 1) << 62)


def overflows(F, terms):
    """Whether int64 lanes cannot hold sums of `terms` values of F."""
    return terms * max(map(abs, F)) >= 2**63


def scalar_inversion(sieve, n, weight):
    """Scalar form of the inversion at one n: the factorize
    oracle on every divisor."""
    f = factored(sieve, n)
    lhs = f.mu * (f.omega - 1) * weight_at(weight, f.p1)
    rhs = 0
    for d in scalar_divisors(sieve, n):
        mu_cof = factored(sieve, n // d).mu
        if mu_cof:
            rhs += mu_cof * weight_at(weight, factored(sieve, d).P2s)
    return lhs, rhs


def scalar_divisors(sieve, n):
    divs = [1]
    for p, e in factorize(sieve, n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def scalar_hyperbola(sieve, x, weight):
    """Scalar form of hyperbola_check."""
    f_of_P2 = [0] * (x + 1)
    for d in range(1, x + 1):
        f_of_P2[d] = weight_at(weight, factored(sieve, d).P2s)
    lhs = 0
    for n in range(1, x + 1):
        for d in scalar_divisors(sieve, n):
            mu_cof = factored(sieve, n // d).mu
            if mu_cof:
                lhs += mu_cof * f_of_P2[d]
    prefix = [0] * (x + 1)
    for d in range(1, x + 1):
        prefix[d] = prefix[d - 1] + f_of_P2[d]
    rhs = 0
    for m in range(1, x + 1):
        mu_m = factored(sieve, m).mu
        if mu_m:
            rhs += mu_m * prefix[x // m]
    return lhs, rhs


def test_check_all_matches_oracle(sieve_small, ctx_cubic):
    # every n <= 5000, every identity and k <= 4, for four weights in one
    # walk: seeded, two indicators and the wide one
    weights = [random_weight(4), MOD3, class_weight(ctx_cubic, "1+2"), WIDE]
    result = check_all_identities(sieve_small, 5000, 4, weights)[0]
    assert result.passed and result.instances == 4 * 4 * 4999 * len(weights)
    for w, sides in zip(weights, batched_sides(sieve_small, 5000, 4, weights)):
        assert sorted(sides) == list(range(2, 5001))
        assert_matches_oracle(sieve_small, sides, w)


def test_scaled_table_lanes(sieve_small):
    # int64 lanes only: a weight's values are int64, and a weight whose
    # sums of `terms` values do not fit them raises
    primes = sieve_small.prime_array(5000)
    for weight, terms in ((random_weight(1), 3**5), (WIDE, 3**9), (HUGE, 1)):
        f = weight.values(primes)
        assert f.dtype == np.int64 and f.tolist() == [weight_at(weight, p) for p in primes.tolist()]
        _check_bound(weight, f, terms)
    for weight, terms in ((HUGE, 2), (OVER_P, 128)):
        with pytest.raises(ValueError, match=re.escape(f"weight {weight.name}:")):
            _check_bound(weight, weight.values(primes), terms)


# negative seeds and seeds of 2^32 and more: the uint64 lanes take
# (seed << 32) mod 2^64, as the Python-int splitmix64 does
@pytest.mark.parametrize("seed", [-1, 0, 1, 2**32 - 1, 2**32, 2**40, 2**70, 12345678901])
def test_weight_arrays_match_the_scalar_weight(sieve_small, seed):
    primes = sieve_small.prime_array(10**4)
    z = [((seed << 32) ^ p) & (2**64 - 1) for p in primes.tolist()]
    assert _splitmix64_lanes(np.array(z, dtype=np.uint64)).tolist() == list(map(splitmix64, z))
    values = random_weight(seed).values(primes)
    assert values.dtype == np.int64
    assert values.tolist() == [random_value(seed, p) for p in primes.tolist()]


@pytest.mark.parametrize("nmax, terms", [(2, 1), (5000, 3**9), (5000, 1), (10**4, 10**4)])
@pytest.mark.parametrize(
    "weight",
    [random_weight(1), random_weight(2**70), MOD3, OVER_P, HUGE],
    ids=["r1", "r2^70", "mod3", "over_p", "huge"],
)
def test_scaled_table_matches_fraction_route(sieve_small, weight, nmax, terms):
    # the value arrays and the per-prime values agree, and the bound
    # raises exactly where sums of `terms` of them overflow int64
    want = weight_table(weight, sieve_small, nmax)
    primes = sieve_small.prime_array(nmax)
    f = weight.values(primes)
    assert f.dtype == np.int64 and f.tolist() == [want[p] for p in primes.tolist()]
    if overflows(want, terms):
        with pytest.raises(ValueError, match=re.escape(weight.name)):
            _check_bound(weight, f, terms)
    else:
        _check_bound(weight, f, terms)


def flipped_mobius_sums(sieve, nmax, n, full_loop=False):
    """(m, sum_{d|m} mu(d)) for every m <= nmax where that sum is not
    [m = 1], over a full mu table with mu(n) flipped as verify's hook
    flips it: the convolution mu * 1, split (mu_convolution) or as the
    full m loop (inversion_rhs)."""
    mu = sieve.mu_table()[: nmax + 1].astype(np.int64)
    mu[n] = -mu[n] or 1
    ones = np.ones(nmax + 1, dtype=np.int64)
    ones[0] = 0
    sums = inversion_rhs(mu, ones) if full_loop else mu_convolution(mu, ones, nmax)
    sums[1] -= 1
    return [(m, int(sums[m])) for m in np.flatnonzero(sums).tolist()]


def test_mobius_sum_catches_every_single_flip(sieve_small):
    # the inversion's left side is 0 at a prime or prime power; the Mobius
    # check shows any flip at n alone, with the sum over the full table,
    # whose failures go on at multiples of n
    nmax = 300
    assert check_inversion(sieve_small, nmax, [])[1] == []
    for n in range(2, nmax + 1):
        want = flipped_mobius_sums(sieve_small, nmax, n)
        assert want[0][0] == n and check_inversion(sieve_small, nmax, [], n)[1] == want[:1], n


# nmax = s^2 - 1, s^2 and s^2 + 1 put the oracle's split s = isqrt(nmax)
# on each side of a square
@pytest.mark.parametrize("nmax", [2, 3, 4, 24, 25, 26, 99, 100, 101, 5000])
def test_mobius_sums_match_full_m_loop(sieve_small, nmax):
    for n in {2, nmax, nmax // 2 + 1, isqrt(nmax) + 1}:
        want = flipped_mobius_sums(sieve_small, nmax, n, full_loop=True)
        assert want == flipped_mobius_sums(sieve_small, nmax, n)
        assert want[0][0] == n and check_inversion(sieve_small, nmax, [], n)[1] == want[:1], n


def same_rows(got, want):
    """Whether two (rows, reps) pairs are equal."""
    return len(got) == len(want) == 2 and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_distinct_prime_rows_match_factorize(sieve_small):
    rows, reps = distinct_prime_rows(sieve_small.prime_array(), 2, 100_001)
    assert rows.shape == (6, 99_999)  # 2*3*5*7*11*13 = 30030 <= 10^5
    for n in range(2, 100_001):
        fac = factorize(sieve_small, n)
        col = [int(p) for p in rows[:, n - 2] if p > 1]
        assert col == [p for p, _ in fac], n
        assert reps[n - 2] == sum(1 << j for j, (_, e) in enumerate(fac) if e > 1), n
    for lo, hi in ((2, 3), (30029, 30031), (99_990, 100_001)):
        part, part_reps = distinct_prime_rows(sieve_small.prime_array(), lo, hi)
        assert np.array_equal(part, rows[: part.shape[0], lo - 2 : hi - 2])
        assert np.array_equal(part_reps, reps[lo - 2 : hi - 2])


# at 97 integers a block, isqrt(hi - 1) is a prime p with a multiple in
# the block for 104 blocks and every prime 13 <= p <= 313 but 23, 37, 43
@pytest.mark.parametrize("size", [BLOCK, 97])
def test_distinct_prime_rows_match_the_spf_walk(sieve_small, size):
    # every block of [2, 10^5], sieved by the primes up to 10^5 of which
    # the rows read those up to isqrt(hi - 1)
    primes = sieve_small.prime_array()
    for lo in range(2, 100_001, size):
        hi = min(lo + size, 100_001)
        assert same_rows(distinct_prime_rows(primes, lo, hi), spf_walk_rows(sieve_small.spf, lo, hi)), lo


@pytest.fixture(scope="module")
def trial_spf():
    """The primes below 2^16, and the spf of any m < 2^32 from them."""
    primes = FactorSieve(65535).prime_array()
    return primes, TrialSpf(primes)


# p^2 - 1, p^2 and p^3 for small and 4-digit primes: from p = 2053 on,
# isqrt(hi - 1) = p at p^2 - 1 and p^2; blocks 65536 k + 1 and the last
# block below 2^32, where isqrt(hi - 1) = 65535
_HIGH_BLOCKS = sorted(
    {lo for p in (2, 3, 5, 7, 13, 1009, 1601, 2053, 9973) for lo in (p * p - 1, p * p, p**3) if lo + 4096 <= 2**32}
    | {65536 * k + 1 for k in (1, 2, 1000, 65535)}
    | {2**32 - 4096}
)


@pytest.mark.parametrize("lo", _HIGH_BLOCKS)
def test_distinct_prime_rows_on_blocks_up_to_2_32(trial_spf, lo):
    primes, spf = trial_spf
    assert same_rows(distinct_prime_rows(primes, lo, lo + 4096), spf_walk_rows(spf, lo, lo + 4096))


@pytest.mark.parametrize("nmax", [2, 3, 4, 5])
def test_distinct_prime_rows_at_the_smallest_nmax(sieve_small, nmax):
    # the primes up to max(2, isqrt(nmax)), as the commands sieve them
    primes = FactorSieve(max(2, isqrt(nmax))).prime_array()
    assert same_rows(distinct_prime_rows(primes, 2, nmax + 1), spf_walk_rows(sieve_small.spf, 2, nmax + 1))


def test_identity_blocks_cover_each_n_once(sieve_big):
    # two block edges: every n lands in exactly one group of its omega, and
    # the values beside each edge match the oracle
    nmax = 2 + 2 * BLOCK + 3
    w = random_weight(2)
    seen = {None: [], 0: []}
    for j, ns, f, residual, lhs, rhs in duality_sides(sieve_big, nmax, 3, [w]):
        omegas = {len(factorize(sieve_big, n)) for n in ns.tolist()}
        assert len(omegas) == 1 and lhs.shape == rhs.shape == ns.shape
        if j is not None:
            (omega,) = omegas
            assert j == 0 and f.shape == (omega, len(ns)) and residual.shape == (4, min(3, omega), len(ns))
        seen[j] += ns.tolist()
    assert sorted(seen[None]) == sorted(seen[0]) == list(range(2, nmax + 1))
    edges = {e + d for e in (2 + BLOCK, 2 + 2 * BLOCK) for d in range(-3, 4) if e + d <= nmax}
    (sides,) = batched_sides(sieve_big, nmax, 3, [w], edges)
    assert sorted(sides) == sorted(edges)
    assert_matches_oracle(sieve_big, sides, w)


def test_kmax_beyond_omega_stores_nothing(sieve_small):
    result = check_all_identities(sieve_small, 50, 10**6, [random_weight(1)])[0]
    assert result.passed and result.instances == 4 * 10**6 * 49
    groups = duality_sides(sieve_small, 50, 10**6, [random_weight(1)])
    # omega(30) = omega(42) = 3
    assert max(residual.shape[1] for j, _, _, residual, _, _ in groups if j is not None) == 3


def test_batch_args_validated(sieve_small):
    # 2 <= nmax <= 2^32 - 1, and the sieve must hold the primes up to
    # isqrt(nmax), the only ones read: limit 99 serves nmax = 99^2 + 198
    # and not one more
    small = FactorSieve(99)
    for sieve, nmax, top in ((sieve_small, 1, 2**32 - 1), (sieve_small, 2**32, 2**32 - 1), (small, 10**4, 9999)):
        match = re.escape(f"nmax = {nmax} outside [2, {top}]")
        with pytest.raises(ValueError, match=match):
            check_all_identities(sieve, nmax, 3, [ONE_ON_PRIMES])
        with pytest.raises(ValueError, match=match):
            check_inversion(sieve, nmax, [ONE_ON_PRIMES])
    with pytest.raises(ValueError, match="kmax"):
        check_all_identities(sieve_small, 50, 0, [ONE_ON_PRIMES])
    with pytest.raises(ValueError, match=re.escape("nmax = 10000 outside [2, 9999]")):
        hyperbola_check(small, 10**4, ONE_ON_PRIMES)
    assert check_all_identities(small, 9999, 3, [ONE_ON_PRIMES])[0].passed
    assert check_inversion(small, 9999, [ONE_ON_PRIMES]) == (BatchCheck(9998, []), [])


@pytest.mark.parametrize("weight", [random_weight(0), random_weight(7), WIDE, MOD4])
def test_inversion_matches_scalar_oracle(sieve_small, weight):
    (lhs, rhs), _ = inversion_arrays(sieve_small, 2000, [weight])
    for n in range(2, 2001):
        assert (int(lhs[n]), int(rhs[n])) == scalar_inversion(sieve_small, n, weight), n
    assert check_inversion(sieve_small, 2000, [weight]) == (BatchCheck(1999, []), [])


def test_weights_beyond_int64_raise(sieve_small):
    # HUGE's values fit int64 but sums of two do not, and OVER_P's sums
    # may pass it at 128 terms: each of the three checks refuses them,
    # naming the weight
    for weight in (HUGE, OVER_P):
        match = re.escape(f"weight {weight.name}:")
        with pytest.raises(ValueError, match=match):
            check_all_identities(sieve_small, 500, 3, [random_weight(0), weight])
        with pytest.raises(ValueError, match=match):
            check_inversion(sieve_small, 500, [random_weight(0), weight])
        with pytest.raises(ValueError, match=match):
            hyperbola_check(sieve_small, 500, weight)


def test_identity_bound_is_checked_in_every_group(sieve_small):
    # a weight that is 0 through the first block and 2^62 above it: the
    # identities raise at the second block's first group, whose primes
    # hold its first nonzero values, after yielding the first block's
    late = PrimeWeight("2^62 above the first block", lambda p: (p >= 2 + BLOCK) * (1 << 62))
    with pytest.raises(ValueError, match=re.escape(f"weight {late.name}:")):
        check_all_identities(sieve_small, 70_000, 3, [random_weight(0), late])
    seen = []
    with pytest.raises(ValueError, match=re.escape(f"weight {late.name}:")):
        for j, ns, _, _, _, _ in duality_sides(sieve_small, 70_000, 3, [late]):
            seen += ns.tolist() if j == 0 else []
    assert sorted(seen) == list(range(2, 2 + BLOCK))


# ids: "object" for HUGE and "object-beyond-int64" for OVER_P, whose sums
# would need Python-int (object) lanes, "coprime" for WIDE, built on the
# coprime divisors 7, 11, ..., 29
def edge_weight(top):
    """+-top, the sign by p mod 4."""
    return PrimeWeight(f"+-{top}", lambda p: np.where(p % 4 == 3, -top, top))


@pytest.mark.parametrize("extra, passes", [(0, True), (1, False)])
def test_int64_bound_is_exact(sieve_small, extra, passes):
    # each check adds at most `terms` values of |f|: 3^9 in the walk of
    # the identities and the inversion (whose 2^9 it covers), x in the
    # hyperbola check.  max |f| = (2^63 - 1) // terms is checked exactly,
    # one more raises
    checks = [
        (3**9, lambda w: check_all_identities(sieve_small, 300, 3, [w])[0].passed),
        (3**9, lambda w: check_inversion(sieve_small, 300, [w]) == (BatchCheck(299, []), [])),
        (300, lambda w: len(set(hyperbola_check(sieve_small, 300, w))) == 1),
    ]
    for terms, check in checks:
        weight = edge_weight((2**63 - 1) // terms + extra)
        if passes:
            assert check(weight), terms
        else:
            with pytest.raises(ValueError, match=re.escape(f"weight {weight.name}:")):
                check(weight)


@pytest.mark.parametrize("nmax", [2, 3, 4, 8, 9, 10, 24, 25, 26, 99, 100, 101, 5000])
@pytest.mark.parametrize(
    "weight",
    [random_weight(3), HUGE, OVER_P, WIDE],
    ids=["int64", "object", "object-beyond-int64", "coprime"],
)
def test_inversion_matches_full_m_loop(sieve_small, nmax, weight):
    # the block walk's right side against the convolution over full
    # tables, as one slice per squarefree m and split at s = isqrt(nmax):
    # nmax = s^2 - 1, s^2 and s^2 + 1 put the split on each side of a
    # square.  HUGE's and OVER_P's sums of 3^9 values, the walk's bound,
    # could pass int64: there the sides raise
    F = weight_table(weight, sieve_small, nmax)
    if overflows(F, 3**9):
        with pytest.raises(ValueError, match=re.escape(weight.name)):
            inversion_arrays(sieve_small, nmax, [weight])
        return
    (_, rhs), _ = inversion_arrays(sieve_small, nmax, [weight])
    mu = sieve_small.mu_table()[: nmax + 1].astype(np.int64)
    G = np.array(F, dtype=np.int64)[sieve_small.P2_strict_table()[: nmax + 1]]
    want = inversion_rhs(mu, G)
    assert want.dtype == np.int64 and mu_convolution(mu, G, nmax).tolist() == want.tolist()
    assert rhs[2:].tolist() == want[2:].tolist()


# the first block ends at 65537, the second at 131073
@pytest.mark.parametrize("nmax", [2, 3, 4, 5, 300, 65537, 65538, 131073])
def test_inversion_sides_match_the_convolution(sieve_big, nmax):
    # both sides against mu (omega - 1) F[p1] and mu * (F o P2) over the
    # sieve's full tables, and the block's mu against the rows' (-1)^omega
    # [n squarefree] and the table
    weights = [random_weight(0), random_weight(2**40), WIDE]
    sides = inversion_arrays(sieve_big, nmax, weights)
    mu = sieve_big.mu_table()[: nmax + 1].astype(np.int64)
    omega = sieve_big.omega_table()[: nmax + 1].astype(np.int64)
    p1, P2s = sieve_big.spf[: nmax + 1], sieve_big.P2_strict_table()[: nmax + 1]
    for (lhs, rhs), weight in zip(sides, weights):
        F = np.array(weight_table(weight, sieve_big, nmax), dtype=np.int64)
        assert lhs[2:].tolist() == (mu * (omega - 1) * F[p1])[2:].tolist(), weight.name
        assert rhs[2:].tolist() == mu_convolution(mu, F[P2s], nmax)[2:].tolist(), weight.name
    assert sides[-1, 0, 2:].tolist() == sides[-1, 1, 2:].tolist() == mu[2:].tolist()


# 210 = 2*3*5*7 and 2310 = 2*3*5*7*11: omega reaches 4 and 5
@pytest.mark.parametrize("x", [1, 2, 300, 210, 2310, 2500])
@pytest.mark.parametrize("weight", [random_weight(0), WIDE, MOD4])
def test_hyperbola_matches_scalar_oracle(sieve_small, x, weight):
    lhs, rhs = hyperbola_check(sieve_small, x, weight)
    assert (lhs, rhs) == scalar_hyperbola(sieve_small, x, weight)
    assert lhs == rhs


def test_hyperbola_reads_the_handed_mu_only_on_the_right(sieve_small, monkeypatch):
    # the left side takes mu from the distinct primes of n, the right one
    # from factor_block alone: never from the sieve's table, and the
    # hook's flip of mu(42) moves the right side only
    w = random_weight(1)
    monkeypatch.setattr(FactorSieve, "mu_table", lambda self: pytest.fail("read mu_table()"))
    lhs, rhs = hyperbola_check(sieve_small, 300, w)
    bad_lhs, bad_rhs = hyperbola_check(sieve_small, 300, w, corrupt_mu=42)
    assert bad_lhs == lhs == rhs != bad_rhs
