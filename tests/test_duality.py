"""Exact duality identities: hand-enumerated cases, the k > omega(n)
conventions, and property tests with seeded rational weights."""

from fractions import Fraction
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsums.duality import (
    BLOCK,
    PrimeWeight,
    _scaled_table,
    check_all_identities,
    check_inversion,
    distinct_prime_rows,
    hyperbola_check,
    identity_sides,
    inversion_sides,
    mobius_sum_failures,
    random_weight,
)
from artinsums.sieve import FactorSieve, factor_tables
from oracles import binom, divisor_sum, factored, factorize, identity_rhs, inversion_rhs, scaled_table

ONE_ON_PRIMES = PrimeWeight("1 on primes", lambda p: Fraction(1))
MOD4 = PrimeWeight("p = 3 mod 4", lambda p: Fraction(int(p % 4 == 3)))
MOD3 = PrimeWeight("p = 1 mod 3", lambda p: Fraction(int(p % 3 == 1)))


def class_weight(ctx, label):
    """Indicator of the primes whose Frobenius class is `label` (ramified
    primes get 0)."""
    def fn(p):
        out = ctx.classify(p)
        return Fraction(int(out.label == label))
    return PrimeWeight(f"class {label} in {ctx.spec_string()}", fn)


def test_weight_vanishes_at_one():
    assert ONE_ON_PRIMES(1) == 0
    assert MOD4(1) == 0
    assert random_weight(3)(1) == 0


def test_residue_weight():
    assert MOD4(3) == 1
    assert MOD4(7) == 1
    assert MOD4(5) == 0


def test_random_weight_deterministic():
    w1, w2 = random_weight(9), random_weight(9)
    assert [w1(p) for p in (2, 3, 5, 97)] == [w2(p) for p in (2, 3, 5, 97)]
    assert any(random_weight(1)(p) != random_weight(2)(p) for p in (2, 3, 5, 7, 11))


def test_random_weight_bounds():
    # numerator a nonzero integer in [-5, 5], denominator in [1, 6], each value taken
    values = {random_weight(seed)(p) for seed in (-1, 0, 1, 2**40) for p in range(2, 3000)}
    assert {(v.numerator, v.denominator) for v in values if v.denominator == 1} == {
        (a, 1) for a in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
    }
    assert 0 not in values and all(abs(v) <= 5 and v.denominator <= 6 for v in values)
    assert {v.denominator for v in values} == {1, 2, 3, 4, 5, 6}


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
    assert divisor_sum(sieve_small, 21, 1, 2, MOD4) == -MOD4(7)


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


def test_inversion_examples(sieve_small):
    lhs, rhs, L = inversion_sides(sieve_small, 15, ONE_ON_PRIMES)
    # squarefree omega = 2; a prime: both sides zero; non-squarefree: mu(12) = 0 on the left
    for n, value in ((15, 1), (13, 0), (12, 0)):
        assert Fraction(int(lhs[n]), L) == Fraction(int(rhs[n]), L) == value
    assert check_inversion(sieve_small, 15, ONE_ON_PRIMES).passed


def batched_sides(sieve, nmax, kmax, weight, wanted=None):
    """{n: {(identity, k): (lhs, rhs)}} from identity_sides as Fractions,
    with the k > omega(n) entries, which the batch does not store, as 0."""
    L, groups = identity_sides(sieve, nmax, kmax, weight)
    out = {}
    for ns, lhs, rhs in groups:
        for r, n in enumerate(ns.tolist()):
            if wanted is None or n in wanted:
                out[n] = {
                    (i, k): (
                        Fraction(int(lhs[i - 1, k - 1, r]), L) if k <= lhs.shape[1] else 0,
                        Fraction(int(rhs[i - 1, k - 1, r]), L) if k <= lhs.shape[1] else 0,
                    )
                    for i in (1, 2, 3, 4)
                    for k in range(1, kmax + 1)
                }
    return out


def assert_matches_oracle(sieve, sides, weight):
    for n, by_ik in sides.items():
        for (i, k), (lhs, rhs) in by_ik.items():
            assert lhs == divisor_sum(sieve, n, k, i, weight), (n, i, k)
            assert rhs == identity_rhs(sieve, n, k, i, weight), (n, i, k)
            assert lhs == rhs


def test_check_all_matches_single_path(sieve_small):
    w = random_weight(4)
    ns = (2, 12, 30, 210, 2310, 96577)  # 96577 = 13*17*19*23
    sides = batched_sides(sieve_small, 96577, 3, w, set(ns))
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
    for seed in range(5):
        result = check_inversion(sieve_small, 5000, random_weight(seed))
        assert result.passed and result.instances == 4999, result.failures[:1]


def test_class_weight_indicator(sieve_small, ctx_cubic):
    w = class_weight(ctx_cubic, "3")
    assert w(2) == 1  # 2 is a 3-cycle prime
    assert w(3) == 0
    assert w(31) == 0  # ramified primes weigh nothing
    assert w(1) == 0


def test_identity4_k2_reproduces_second_order_form(sieve_small, ctx_cubic):
    # with a class indicator, identity 4 at k=2 reads
    # sum_{d|n} mu(d)(omega(d)-1) f(p1(d)) = f(P2(n)) for squarefree n
    w = class_weight(ctx_cubic, "1+2")
    for n in (15, 21, 105, 210, 1155):
        p2 = factored(sieve_small, n).P2s
        assert divisor_sum(sieve_small, n, 2, 4, w) == identity_rhs(sieve_small, n, 2, 4, w) == w(p2)


def test_hyperbola_rearrangement(sieve_small):
    for seed in (0, 1):
        lhs, rhs = hyperbola_check(sieve_small, 300, random_weight(seed))
        assert lhs == rhs
    lhs, rhs = hyperbola_check(sieve_small, 100, MOD4)
    assert lhs == rhs


# --- the integer path against the Fraction oracles ---------------------------

# denominators p: coprime across the primes of n, far past the lcm 60 of
# random_weight's, so the common-denominator scaling is exercised
OVER_P = PrimeWeight("(p mod 7 - 3)/p", lambda p: Fraction(p % 7 - 3, p))


def scalar_inversion(sieve, n, weight):
    """Scalar Fraction form of the inversion at one n: the factorize
    oracle on every divisor."""
    f = factored(sieve, n)
    lhs = f.mu * (f.omega - 1) * weight(f.p1)
    rhs = Fraction(0)
    for d in scalar_divisors(sieve, n):
        mu_cof = factored(sieve, n // d).mu
        if mu_cof:
            rhs += mu_cof * weight(factored(sieve, d).P2s)
    return Fraction(lhs), rhs


def scalar_divisors(sieve, n):
    divs = [1]
    for p, e in factorize(sieve, n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def scalar_hyperbola(sieve, x, weight):
    """Scalar Fraction form of hyperbola_check."""
    f_of_P2 = [Fraction(0)] * (x + 1)
    for d in range(1, x + 1):
        f_of_P2[d] = weight(factored(sieve, d).P2s)
    lhs = Fraction(0)
    for n in range(1, x + 1):
        for d in scalar_divisors(sieve, n):
            mu_cof = factored(sieve, n // d).mu
            if mu_cof:
                lhs += mu_cof * f_of_P2[d]
    prefix = [Fraction(0)] * (x + 1)
    for d in range(1, x + 1):
        prefix[d] = prefix[d - 1] + f_of_P2[d]
    rhs = Fraction(0)
    for m in range(1, x + 1):
        mu_m = factored(sieve, m).mu
        if mu_m:
            rhs += mu_m * prefix[x // m]
    return lhs, rhs


# integer weights of size 2^62: every |F| fits in int64, but sums over
# the divisors of n do not, so the checks must take Python-int lanes
HUGE = PrimeWeight("(p mod 3 - 1) 2^62", lambda p: Fraction((p % 3 - 1) << 62))


def test_check_all_matches_oracle(sieve_small, ctx_cubic):
    # every n <= nmax, every identity and k <= 4; OVER_P and HUGE take the
    # Python-int lanes, the others int64
    weights = (random_weight(4), MOD3, class_weight(ctx_cubic, "1+2"), OVER_P)
    for w, nmax in [(w, 5000) for w in weights] + [(HUGE, 1000)]:
        result = check_all_identities(sieve_small, nmax, 4, w)
        assert result.passed and result.instances == 4 * 4 * (nmax - 1)
        sides = batched_sides(sieve_small, nmax, 4, w)
        assert sorted(sides) == list(range(2, nmax + 1))
        assert_matches_oracle(sieve_small, sides, w)


def test_scaled_table_lanes(sieve_small):
    F, L = _scaled_table(random_weight(1), sieve_small, 5000, 3**5)
    assert F.dtype == np.int64 and 60 % L == 0
    assert _scaled_table(OVER_P, sieve_small, 5000, 3**5)[0].dtype == object
    assert _scaled_table(HUGE, sieve_small, 5000, 3**5)[0].dtype == object
    assert _scaled_table(HUGE, sieve_small, 5000, 1)[0].dtype == np.int64
    assert F[4] == F[1] == 0 and F[7] == random_weight(1)(7) * L


# negative seeds and seeds of 2^32 and more: the uint64 lanes take
# (seed << 32) mod 2^64, as the Python-int splitmix64 does
@pytest.mark.parametrize("seed", [-1, 0, 1, 2**32 - 1, 2**32, 2**40, 2**70, 12345678901])
def test_weight_arrays_match_the_scalar_weight(sieve_small, seed):
    primes = sieve_small.prime_array(10**4)
    num, den = random_weight(seed).arrays(primes)
    assert num.dtype == den.dtype == np.int64
    assert list(map(Fraction, num.tolist(), den.tolist())) == [random_weight(seed)(p) for p in primes.tolist()]


@pytest.mark.parametrize("nmax, terms", [(2, 1), (5000, 3**9), (5000, 1), (10**4, 10**4)])
@pytest.mark.parametrize(
    "weight",
    [random_weight(1), random_weight(2**70), MOD3, OVER_P, HUGE],
    ids=["r1", "r2^70", "mod3", "over_p", "huge"],
)
def test_scaled_table_matches_fraction_route(sieve_small, weight, nmax, terms):
    # the arrays' route and the per-prime Fraction route give the same L,
    # lanes and values; random weights' unreduced ratios (4/4 is 1/1) must
    # not raise L past the lcm of the reduced denominators
    F, L = _scaled_table(weight, sieve_small, nmax, terms)
    want, want_L = scaled_table(weight, sieve_small, nmax, terms)
    assert (L, F.dtype) == (want_L, want.dtype) and F.tolist() == want.tolist()


def test_mobius_sum_catches_every_single_flip(sieve_small):
    # the inversion misses a flip at a prime or prime power above nmax/6;
    # the Mobius sum shows any flip at n itself, first
    nmax = 300
    mu = factor_tables(sieve_small, nmax)["mu"]
    assert mobius_sum_failures(mu, nmax) == []
    for n in range(2, nmax + 1):
        bad = mu.copy()
        bad[n] = -bad[n] if bad[n] else 1
        assert mobius_sum_failures(bad, nmax)[0] == (n, -2 * int(mu[n]) if mu[n] else 1), n


# nmax = s^2 - 1, s^2 and s^2 + 1 put the split s = isqrt(nmax) on each
# side of a square
@pytest.mark.parametrize("nmax", [2, 3, 4, 24, 25, 26, 99, 100, 101, 5000])
def test_mobius_sums_match_full_m_loop(sieve_small, nmax):
    mu = factor_tables(sieve_small, nmax)["mu"].copy()
    for n in {2, nmax, nmax // 2 + 1, isqrt(nmax) + 1}:
        mu[n] = 1 - mu[n]  # any change of mu(n) shows
    sums = inversion_rhs(mu[: nmax + 1].astype(np.int64), np.ones(nmax + 1, dtype=np.int64))
    sums[1] -= 1
    want = [(n, int(sums[n])) for n in range(1, nmax + 1) if sums[n]]
    assert want and mobius_sum_failures(mu, nmax) == want


def test_check_all_scales_coprime_denominators(sieve_small):
    # L = lcm of the denominators p of f(p) = (p mod 7 - 3)/p over p <= 2310,
    # except p = 3 mod 7 where f(p) = 0
    result = check_all_identities(sieve_small, 2310, 3, OVER_P)
    assert result.denom == prod(p for p in sieve_small.prime_array(2310).tolist() if p % 7 != 3)
    assert result.passed
    # 2*3*5*7*11: each value comes out exact over the common L
    assert_matches_oracle(sieve_small, batched_sides(sieve_small, 2310, 3, OVER_P, {2310}), OVER_P)


def test_distinct_prime_rows_match_factorize(sieve_small):
    rows = distinct_prime_rows(sieve_small.spf, 2, 100_001)
    assert rows.shape == (6, 99_999)  # 2*3*5*7*11*13 = 30030 <= 10^5
    for n in range(2, 100_001):
        col = [int(p) for p in rows[:, n - 2] if p > 1]
        assert col == [p for p, _ in factorize(sieve_small, n)], n
    for lo, hi in ((2, 3), (30029, 30031), (99_990, 100_001)):
        part = distinct_prime_rows(sieve_small.spf, lo, hi)
        assert np.array_equal(part, rows[: part.shape[0], lo - 2 : hi - 2])


def test_identity_blocks_cover_each_n_once(sieve_big):
    # two block edges: every n lands in exactly one group of its omega, and
    # the values beside each edge match the oracle
    nmax = 2 + 2 * BLOCK + 3
    w = random_weight(2)
    _, groups = identity_sides(sieve_big, nmax, 3, w)
    seen = []
    for ns, lhs, rhs in groups:
        omegas = {len(factorize(sieve_big, n)) for n in ns.tolist()}
        assert len(omegas) == 1 and lhs.shape == rhs.shape == (4, min(3, *omegas), len(ns))
        seen += ns.tolist()
    assert sorted(seen) == list(range(2, nmax + 1))
    edges = {e + d for e in (2 + BLOCK, 2 + 2 * BLOCK) for d in range(-3, 4) if e + d <= nmax}
    sides = batched_sides(sieve_big, nmax, 3, w, edges)
    assert sorted(sides) == sorted(edges)
    assert_matches_oracle(sieve_big, sides, w)


def test_kmax_beyond_omega_stores_nothing(sieve_small):
    result = check_all_identities(sieve_small, 50, 10**6, random_weight(1))
    assert result.passed and result.instances == 4 * 10**6 * 49
    _, groups = identity_sides(sieve_small, 50, 10**6, random_weight(1))
    assert max(lhs.shape[1] for _, lhs, _ in groups) == 3  # omega(30) = omega(42) = 3


def test_batch_args_validated(sieve_small):
    for nmax, kmax in ((1, 3), (100_001, 3), (50, 0)):
        with pytest.raises(ValueError):
            check_all_identities(sieve_small, nmax, kmax, ONE_ON_PRIMES)
    for nmax in (1, 100_001):
        with pytest.raises(ValueError):
            check_inversion(sieve_small, nmax, ONE_ON_PRIMES)


@pytest.mark.parametrize("weight", [random_weight(0), random_weight(7), OVER_P, MOD4])
def test_inversion_matches_scalar_oracle(sieve_small, weight):
    lhs, rhs, L = inversion_sides(sieve_small, 2000, weight)
    for n in range(2, 2001):
        assert (Fraction(int(lhs[n]), L), Fraction(int(rhs[n]), L)) == scalar_inversion(sieve_small, n, weight), n
    result = check_inversion(sieve_small, 2000, weight)
    assert result.passed and result.instances == 1999


def test_inversion_huge_weight_exact(sieve_small):
    lhs, rhs, L = inversion_sides(sieve_small, 500, HUGE)
    assert lhs.dtype == rhs.dtype == object
    for n in range(2, 501):
        assert (Fraction(lhs[n], L), Fraction(rhs[n], L)) == scalar_inversion(sieve_small, n, HUGE), n


@pytest.mark.parametrize("nmax", [2, 3, 4, 8, 9, 10, 24, 25, 26, 99, 100, 101, 5000])
@pytest.mark.parametrize(
    "weight", [random_weight(3), HUGE, OVER_P], ids=["int64", "object", "object-beyond-int64"]
)
def test_inversion_matches_full_m_loop(sieve_small, nmax, weight):
    # nmax = s^2 - 1, s^2 and s^2 + 1 put the split s = isqrt(nmax) on
    # each side of a square; OVER_P has values F(p) beyond int64 at
    # nmax >= 99
    lhs, rhs, L = inversion_sides(sieve_small, nmax, weight)
    F, L_F = _scaled_table(weight, sieve_small, nmax, nmax)
    want = inversion_rhs(sieve_small.mu_table()[: nmax + 1], F[sieve_small.P2_strict_table()[: nmax + 1]])
    assert rhs.dtype == want.dtype == F.dtype
    assert L == L_F and rhs.tolist() == want.tolist()


# 210 = 2*3*5*7 and 2310 = 2*3*5*7*11: omega reaches 4 and 5
@pytest.mark.parametrize("x", [1, 2, 300, 210, 2310, 2500])
@pytest.mark.parametrize("weight", [random_weight(0), OVER_P, MOD4])
def test_hyperbola_matches_scalar_oracle(sieve_small, x, weight):
    lhs, rhs = hyperbola_check(sieve_small, x, weight)
    assert (lhs, rhs) == scalar_hyperbola(sieve_small, x, weight)
    assert lhs == rhs


def test_hyperbola_reads_the_handed_mu_only_on_the_right(sieve_small, monkeypatch):
    # the left side takes mu from the distinct primes of n, the right one
    # from the handed array alone: never from the sieve's table, and a
    # flipped mu(42) moves the right side only
    w = random_weight(1)
    monkeypatch.setattr(FactorSieve, "mu_table", lambda self: pytest.fail("read mu_table()"))
    arrays = factor_tables(sieve_small, 300)
    lhs, rhs = hyperbola_check(sieve_small, 300, w, arrays)
    bad = dict(arrays, mu=arrays["mu"].copy())
    bad["mu"][42] = -bad["mu"][42]
    bad_lhs, bad_rhs = hyperbola_check(sieve_small, 300, w, bad)
    assert bad_lhs == lhs == rhs != bad_rhs
    # with no arrays handed, the check builds those of factor_tables
    assert hyperbola_check(sieve_small, 300, w) == (lhs, rhs)


def test_weight_memoized():
    calls = []

    def fn(p):
        calls.append(p)
        return Fraction(p, 3)

    w = PrimeWeight("counted", fn)
    assert [w(5), w(5), w(7), w(5)] == [Fraction(5, 3)] * 2 + [Fraction(7, 3), Fraction(5, 3)]
    assert calls == [5, 7]
    w1, w2 = random_weight(11), random_weight(11)
    first = [w1(p) for p in (2, 3, 5, 97, 4999)]
    assert first == [w1(p) for p in (2, 3, 5, 97, 4999)]
    assert first == [w2(p) for p in (2, 3, 5, 97, 4999)]
