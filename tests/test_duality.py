"""Exact duality identities: hand-enumerated cases, the k > omega(n)
conventions, and property tests with seeded rational weights."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsums.duality import (
    IdentityReport,
    PrimeWeight,
    _binom,
    check_all_identities,
    check_identity,
    check_inversion,
    class_weight,
    divisor_sum,
    hyperbola_check,
    identity_rhs,
    indicator_weight,
    random_weight,
    residue_weight,
)

ONE_ON_PRIMES = indicator_weight(lambda p: True, "1 on primes")
MOD4 = residue_weight(3, 4)


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


def test_binom_convention():
    assert _binom(-1, 0) == 1
    assert _binom(-1, 1) == 0
    assert _binom(-1, 5) == 0
    assert _binom(3, 2) == 3
    assert _binom(2, 5) == 0


def test_identity4_n21_k2(sieve_small):
    # six divisors of 21; the only surviving term is f(P2(21)) = f(3)
    assert divisor_sum(sieve_small, 21, 2, 4, MOD4) == 1
    rep = check_identity(sieve_small, 21, 2, 4, MOD4)
    assert rep.passed and rep.lhs == 1


def test_identity4_n12_k2(sieve_small):
    # P2(12) = 2 and f(2) = 0 for the 3-mod-4 indicator
    rep = check_identity(sieve_small, 12, 2, 4, MOD4)
    assert rep.passed and rep.lhs == 0


def test_identity2_n21_k1(sieve_small):
    # full divisor sum: -f(3) - f(7) + f(3) = -f(P1(21)) = -f(7)
    assert divisor_sum(sieve_small, 21, 1, 2, MOD4) == -MOD4(7)


def test_identity1_prime(sieve_small):
    for p in (2, 3, 97):
        assert divisor_sum(sieve_small, p, 1, 1, ONE_ON_PRIMES) == -1
        assert identity_rhs(sieve_small, p, 1, 1, ONE_ON_PRIMES) == -1


def test_identity3_n30_k1(sieve_small):
    # sum mu(d) f(P1(d)) over d | 30 collapses to -f(p1(30)) = -f(2)
    rep = check_identity(sieve_small, 30, 1, 3, ONE_ON_PRIMES)
    assert rep.passed and rep.lhs == -1


def test_identity2_k_beyond_omega(sieve_small):
    # omega(6) = 2 < k = 5: the binomial on the right vanishes
    rep = check_identity(sieve_small, 6, 5, 2, ONE_ON_PRIMES)
    assert rep.passed and rep.rhs == 0


def test_inversion_examples(sieve_small):
    # squarefree omega = 2
    rep = check_inversion(sieve_small, 15, ONE_ON_PRIMES)
    assert rep.passed and rep.lhs == 1
    # prime: both sides zero
    rep = check_inversion(sieve_small, 13, ONE_ON_PRIMES)
    assert rep.passed and rep.lhs == 0
    # non-squarefree: mu(12) = 0 on the left
    rep = check_inversion(sieve_small, 12, ONE_ON_PRIMES)
    assert rep.passed and rep.lhs == 0


def test_divisor_sum_validation(sieve_small):
    with pytest.raises(ValueError):
        divisor_sum(sieve_small, 12, 1, 5, ONE_ON_PRIMES)
    with pytest.raises(ValueError):
        divisor_sum(sieve_small, 12, 0, 1, ONE_ON_PRIMES)
    with pytest.raises(ValueError):
        divisor_sum(sieve_small, 1, 1, 1, ONE_ON_PRIMES)


def test_check_all_matches_single_path(sieve_small):
    w = random_weight(4)
    for n in (2, 12, 30, 210, 2310, 96577):  # 96577 = 13*17*19*23
        reports = check_all_identities(sieve_small, n, 3, w)
        for rep in reports:
            assert rep.lhs == divisor_sum(sieve_small, n, rep.k, rep.identity, w)
            assert rep.rhs == identity_rhs(sieve_small, n, rep.k, rep.identity, w)


@given(st.integers(2, 5000), st.integers(1, 4), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_identities_hold_exactly(sieve_small, n, k, seed):
    w = random_weight(seed)
    for identity in (1, 2, 3, 4):
        rep = check_identity(sieve_small, n, k, identity, w)
        assert rep.passed, (n, k, identity, str(rep.lhs), str(rep.rhs))


@given(st.integers(2, 5000), st.integers(0, 4))
@settings(max_examples=300, deadline=None)
def test_inversion_holds_exactly(sieve_small, n, seed):
    rep = check_inversion(sieve_small, n, random_weight(seed))
    assert rep.passed, (n, str(rep.lhs), str(rep.rhs))


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
        rep = check_identity(sieve_small, n, 2, 4, w)
        assert rep.passed
        p2 = sieve_small.prime_extremes(n)[2]
        assert rep.rhs == w(p2)


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
    """Scalar Fraction form of check_inversion: arith_fns and
    prime_extremes on every divisor."""
    mu_n, omega_n, _ = sieve.arith_fns(n)
    p1 = sieve.prime_extremes(n)[0]
    lhs = mu_n * (omega_n - 1) * weight(p1)
    rhs = Fraction(0)
    for d in scalar_divisors(sieve, n):
        mu_cof = sieve.arith_fns(n // d)[0]
        if mu_cof:
            rhs += mu_cof * weight(sieve.prime_extremes(d)[2] if d > 1 else 1)
    return Fraction(lhs), rhs


def scalar_divisors(sieve, n):
    divs = [1]
    for p, e in sieve.factorize(n):
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def scalar_hyperbola(sieve, x, weight):
    """Scalar Fraction form of hyperbola_check."""
    f_of_P2 = [Fraction(0)] * (x + 1)
    for d in range(1, x + 1):
        f_of_P2[d] = weight(sieve.prime_extremes(d)[2] if d > 1 else 1)
    lhs = Fraction(0)
    for n in range(1, x + 1):
        for d in scalar_divisors(sieve, n):
            mu_cof = sieve.arith_fns(n // d)[0]
            if mu_cof:
                lhs += mu_cof * f_of_P2[d]
    prefix = [Fraction(0)] * (x + 1)
    for d in range(1, x + 1):
        prefix[d] = prefix[d - 1] + f_of_P2[d]
    rhs = Fraction(0)
    for m in range(1, x + 1):
        mu_m = sieve.arith_fns(m)[0]
        if mu_m:
            rhs += mu_m * prefix[x // m]
    return lhs, rhs


@given(st.integers(2, 5000), st.integers(1, 4), st.sampled_from(["over_p", "class", "residue"]))
@settings(max_examples=300, deadline=None)
def test_check_all_matches_oracle(sieve_small, ctx_cubic, n, kmax, kind):
    w = {
        "over_p": OVER_P,
        "class": class_weight(ctx_cubic, "1+2"),
        "residue": residue_weight(1, 3),
    }[kind]
    reports = check_all_identities(sieve_small, n, kmax, w)
    assert [(r.identity, r.k) for r in reports] == [
        (i, k) for i in (1, 2, 3, 4) for k in range(1, kmax + 1)
    ]
    for rep in reports:
        assert rep.n == n and rep.passed
        assert rep.lhs == divisor_sum(sieve_small, n, rep.k, rep.identity, w)
        assert rep.rhs == identity_rhs(sieve_small, n, rep.k, rep.identity, w)


def test_check_all_scales_coprime_denominators(sieve_small):
    # 2*3*5*7*11: L = lcm of the denominators 2, 3, 5, 7, 11 (f(3) = 0)
    reports = check_all_identities(sieve_small, 2310, 3, OVER_P)
    assert {r.denom for r in reports} == {2 * 5 * 7 * 11}
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("weight", [random_weight(0), random_weight(7), OVER_P, MOD4])
def test_inversion_matches_scalar_oracle(sieve_small, weight):
    for n in range(2, 2001):
        rep = check_inversion(sieve_small, n, weight)
        assert (rep.n, rep.identity, rep.k) == (n, 0, 2)
        assert (rep.lhs, rep.rhs) == scalar_inversion(sieve_small, n, weight), n
        assert rep.passed


@pytest.mark.parametrize("x", [1, 2, 300])
@pytest.mark.parametrize("weight", [random_weight(0), OVER_P, MOD4])
def test_hyperbola_matches_scalar_oracle(sieve_small, x, weight):
    lhs, rhs = hyperbola_check(sieve_small, x, weight)
    assert (lhs, rhs) == scalar_hyperbola(sieve_small, x, weight)
    assert lhs == rhs


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
