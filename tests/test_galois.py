"""Galois contexts: class tables, densities, ramified sets, prime
classification (the batched trace kernel against the distinct-degree
factorization oracle)."""

from fractions import Fraction
from math import factorial, gcd, isqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artinsums.errors import NotSquarefreeError
from artinsums.fieldpoly import (
    discriminant,
    distinct_degree_factorization,
    reduce_poly,
    shape_label,
)
from artinsums.galois import (
    _CHUNK,
    RAMIFIED_CODE,
    UNCLASSIFIED_CODE,
    ClassOutcome,
    _frobenius_fixed_points,
    new_cyclotomic,
    new_splitting_field,
)
from artinsums.sieve import is_prime


def ramified_up_to(ctx, bound=1000):
    """The primes <= bound that classify as ramified."""
    primes = [p for p in range(2, bound + 1) if is_prime(p)]
    return {p for p, out in zip(primes, ctx.classify_primes(primes)) if out.is_ramified}


def test_cyclotomic_class_table():
    ctx = new_cyclotomic(4)
    assert ctx.labels() == ["1 mod 4", "3 mod 4"]
    assert ctx.group_order == 2
    assert [c.density for c in ctx.classes] == [Fraction(1, 2)] * 2
    assert ramified_up_to(ctx) == {2}


def test_cyclotomic_12():
    ctx = new_cyclotomic(12)
    assert ctx.labels() == ["1 mod 12", "5 mod 12", "7 mod 12", "11 mod 12"]
    assert ctx.group_order == 4  # phi(12)
    assert ramified_up_to(ctx) == {2, 3}
    assert all(c.density == Fraction(1, 4) for c in ctx.classes)


def test_cyclotomic_classify():
    ctx = new_cyclotomic(4)
    assert ctx.classify(5) == ClassOutcome("1 mod 4")
    assert ctx.classify(7) == ClassOutcome("3 mod 4")
    assert ctx.classify(2).is_ramified


def test_cyclotomic_coprimality(sieve_small):
    # classify never emits a residue sharing a factor with k
    for k in (4, 9, 12, 15):
        ctx = new_cyclotomic(k)
        for p in sieve_small.prime_array(2000).tolist():
            out = ctx.classify(p)
            if not out.is_ramified:
                r = int(out.label.split()[0])
                assert gcd(r, k) == 1


def test_cyclotomic_validation():
    with pytest.raises(ValueError):
        new_cyclotomic(2)
    # int16 class codes hold phi(k) <= 2^15 classes: phi(65536) = 2^15,
    # phi(65537) = 2^16; a primorial and 10^18 fail without a pass over k
    assert len(new_cyclotomic(65536).classes) == 1 << 15
    for k in (65537, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19, 10**18):
        with pytest.raises(ValueError, match="more than 32768 classes"):
            new_cyclotomic(k)


def test_cubic_class_table(ctx_cubic):
    specs = [(c.label, c.size, c.density) for c in ctx_cubic.classes]
    assert specs == [
        ("1+1+1", 1, Fraction(1, 6)),
        ("1+2", 3, Fraction(1, 2)),
        ("3", 2, Fraction(1, 3)),
    ]
    assert ctx_cubic.group_order == 6
    assert ramified_up_to(ctx_cubic) == {31}
    assert ctx_cubic.disc == -31


def test_class_sizes_sum_to_group_order():
    for coeffs in ([1, 1, 0, 1], [1, 1, 1], [-2, 0, 0, 0, 1], [1, 1, 0, 0, 0, 1]):
        ctx = new_splitting_field(coeffs)
        deg = len(coeffs) - 1
        assert sum(c.size for c in ctx.classes) == ctx.group_order == factorial(deg)
        assert sum(c.density for c in ctx.classes) == 1


def test_quartic_partitions():
    ctx = new_splitting_field([-2, 0, 0, 0, 1])  # x^4 - 2
    assert ctx.labels() == ["1+1+1+1", "1+1+2", "1+3", "2+2", "4"]
    # cycle-type sizes in S_4: 1, 6, 8, 3, 6
    assert [c.size for c in ctx.classes] == [1, 6, 8, 3, 6]


def test_cubic_classify_examples(ctx_cubic, ctx_c4):
    assert ctx_c4.classify(5) == ClassOutcome("1 mod 4")
    assert ctx_cubic.classify(31).is_ramified
    assert ctx_cubic.classify(2) == ClassOutcome("3")  # no roots mod 2
    assert ctx_cubic.classify(3) == ClassOutcome("1+2")  # exactly one root


def test_classify_rejects_composite(ctx_cubic):
    with pytest.raises(ValueError):
        ctx_cubic.classify(10)


def test_cubic_classify_and_density(ctx_cubic):
    assert ctx_cubic.classify(2) == ClassOutcome("3")
    assert {c.label: c.density for c in ctx_cubic.classes}["3"] == Fraction(1, 3)


def test_splitting_field_validation():
    with pytest.raises(ValueError):
        new_splitting_field([1, 2])  # degree 1
    with pytest.raises(ValueError):
        new_splitting_field([1, 1, 2])  # not monic
    with pytest.raises(ValueError):
        new_splitting_field([0, 0, 1])  # disc = 0 (repeated root)


def test_cubic_fast_path_matches_generic_ddf(ctx_cubic, sieve_small):
    """classify must agree with the generic distinct-degree route for
    every prime up to 10^4."""
    poly = list(ctx_cubic.poly)
    for p in sieve_small.prime_array(10_000).tolist():
        out = ctx_cubic.classify(p)
        if ctx_cubic.disc % p == 0:
            assert out.is_ramified
            continue
        shape = distinct_degree_factorization(reduce_poly(poly, p))
        assert out.label == shape_label(shape), p


def test_classify_matches_generic_shape_quintic(sieve_small):
    ctx = new_splitting_field([1, 1, 0, 0, 0, 1])  # x^5 + x + 1... see below
    # note: x^5+x+1 factors over Q, but factor shapes mod p still partition
    # 5 and classification must agree with the DDF route prime by prime
    for p in sieve_small.prime_array(500).tolist():
        out = ctx.classify(p)
        if ctx.disc % p == 0:
            assert out.is_ramified
        else:
            shape = distinct_degree_factorization(reduce_poly(list(ctx.poly), p))
            assert out.label == shape_label(shape)


def test_class_code_array(ctx_cubic, ctx_c4, sieve_small):
    for ctx in (ctx_cubic, ctx_c4):
        codes = ctx.class_code_array(sieve_small, 10_000)
        for p in sieve_small.prime_array(10_000).tolist():
            out = ctx.classify(p)
            code = int(codes[p])
            if out.is_ramified:
                assert code == RAMIFIED_CODE
            else:
                assert code == ctx.code_of(out.label)
        # non-primes carry the unclassified marker
        assert int(codes[1]) == UNCLASSIFIED_CODE
        assert int(codes[4]) == UNCLASSIFIED_CODE
        assert int(codes[100]) == UNCLASSIFIED_CODE


def test_ramified_partition(ctx_cubic, ctx_c4, sieve_small):
    # classify's ramified outcomes are exactly the RAMIFIED_CODE entries of
    # the class-code array, and those are the primes dividing disc(f) or k
    for ctx, expected in ((ctx_cubic, {31}), (ctx_c4, {2})):
        primes = sieve_small.prime_array(10_000)
        seen = {p for p in primes.tolist() if ctx.classify(p).is_ramified}
        codes = ctx.class_code_array(sieve_small, 10_000)
        assert seen == set(primes[codes[primes] == RAMIFIED_CODE].tolist()) == expected


def test_spec_strings(ctx_cubic, ctx_c4):
    assert ctx_c4.spec_string() == "cyclotomic:4"
    assert ctx_cubic.spec_string() == "poly:1,1,0,1"
    assert "zeta_4" in ctx_c4.describe()


@given(st.sampled_from([5, 7, 8, 9, 11, 12, 13, 60]), st.integers(0, 1000))
@settings(max_examples=150, deadline=None)
def test_cyclotomic_classify_is_residue(k, idx):
    ctx = new_cyclotomic(k)
    # pick the idx-th prime-ish candidate deterministically
    from artinsums.sieve import is_prime

    p = 2 + idx
    while not is_prime(p):
        p += 1
    out = ctx.classify(p)
    if k % p == 0:
        assert out.is_ramified
    else:
        assert out.label == f"{p % k} mod {k}"


def oracle_code(ctx, p):
    """Class code of p from the distinct-degree factorization of f mod p."""
    if ctx.disc % p == 0:
        return RAMIFIED_CODE
    shape = distinct_degree_factorization(reduce_poly(list(ctx.poly), p))
    return ctx.code_of(shape_label(shape))


# degrees 2..6; not all have group S_n: x^5+x+1 is reducible, x^4+1 has
# group V_4 and x^3-3x+1 group A_3
ORACLE_POLYS = [
    [1, 1, 1],
    [1, 1, 0, 1],
    [1, -3, 0, 1],
    [1, 0, 0, 0, 1],
    [-2, 0, 0, 0, 1],
    [-1, -1, 0, 0, 0, 1],
    [1, 1, 0, 0, 0, 1],
    [1, 1, 0, 0, 0, 0, 1],
]


@pytest.mark.parametrize("poly", ORACLE_POLYS, ids=lambda c: ",".join(map(str, c)))
def test_class_codes_match_ddf_oracle(poly, sieve_small):
    # every prime <= 2*10^4, the primes p <= deg f included
    ctx = new_splitting_field(poly)
    codes = ctx.class_code_array(sieve_small, 20_000)
    primes = sieve_small.prime_array(20_000).tolist()
    assert [int(codes[p]) for p in primes] == [oracle_code(ctx, p) for p in primes]
    # the one-lane route gives the same outcome
    for p in primes[:8] + primes[::97]:
        out = ctx.classify(p)
        assert (RAMIFIED_CODE if out.is_ramified else ctx.code_of(out.label)) == codes[p]


def trial_prime_divisors(d, bound):
    """The primes <= bound dividing d, by trial division."""
    d, found, q = abs(d), set(), 2
    while q <= bound and d > 1:
        if d % q == 0:
            found.add(q)
            while d % q == 0:
                d //= q
        q += 1
    return found


@pytest.mark.parametrize(
    "ctx",
    [new_splitting_field(c) for c in ORACLE_POLYS] + [new_cyclotomic(k) for k in (3, 4, 5, 8, 12)],
    ids=lambda ctx: ctx.spec_string(),
)
def test_ramified_codes_are_the_divisors(ctx, sieve_small):
    # the primes <= 2*10^4 marked RAMIFIED_CODE are those dividing disc(f), or k
    codes = ctx.class_code_array(sieve_small, 20_000)
    primes = sieve_small.prime_array(20_000)
    marked = set(primes[codes[primes] == RAMIFIED_CODE].tolist())
    assert marked == trial_prime_divisors(ctx.disc if ctx.kind == "splitting" else ctx.k, 20_000)


def test_ramified_beyond_int64_discriminant(sieve_small):
    # x^2 + x + c, c = 2^63 + 1 = 2 mod 7: disc = 1 - 4c = -(2^65 + 3) is
    # divisible by 7 and too large for int64 lanes
    ctx = new_splitting_field([2**63 + 1, 1, 1])
    assert abs(ctx.disc) >= 2**63 and ctx.disc % 7 == 0
    assert ctx.classify(7).is_ramified
    codes = ctx.class_code_array(sieve_small, 2_000)
    primes = sieve_small.prime_array(2_000).tolist()
    assert [int(codes[p]) for p in primes] == [oracle_code(ctx, p) for p in primes]
    assert codes[7] == RAMIFIED_CODE


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


@given(
    st.integers(2, 6).flatmap(
        lambda deg: st.lists(st.integers(-4, 4), min_size=deg, max_size=deg)
    ),
    st.lists(st.integers(2, 999_000), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_random_polys_match_ddf_oracle(low, starts):
    assume(discriminant(low + [1]) != 0)
    ctx = new_splitting_field(low + [1])
    primes = sorted({next_prime(n) for n in starts})
    codes = ctx._class_codes(np.array(primes, dtype=np.int64))
    assert codes.tolist() == [oracle_code(ctx, p) for p in primes]


@pytest.mark.parametrize("poly", ORACLE_POLYS, ids=lambda c: ",".join(map(str, c)))
def test_class_codes_mixed_bit_lengths(poly):
    # one batch: the short primes see leading zero bits of the longest, on
    # Python-int lanes with 2^31 - 1 and on int64 lanes without it
    ctx = new_splitting_field(poly)
    primes = [7, 11, 65537, 999983, 2**31 - 1]
    for batch in (primes, primes[:-1]):
        codes = ctx._class_codes(np.array(batch, dtype=np.int64))
        assert codes.tolist() == [oracle_code(ctx, p) for p in batch]


@pytest.mark.parametrize(
    "poly", [ORACLE_POLYS[i] for i in (0, 1, 4, 5, 7)], ids=lambda c: ",".join(map(str, c))
)
def test_fixed_points_match_ddf_shape(poly, sieve_small):
    # fix(sigma^d) = sum of e * c_e over e | d, c_e the number of degree-e
    # factors of f mod p, on every unramified prime in (deg f, 10^4]
    n = len(poly) - 1
    disc = discriminant(poly)
    primes = [p for p in sieve_small.prime_array(10_000).tolist() if p > n and disc % p]
    expected = []
    for p in primes:
        shape = distinct_degree_factorization(reduce_poly(poly, p))
        expected.append([sum(e * c for e, c in shape if d % e == 0) for d in range(1, n + 1)])
    assert _frobenius_fixed_points(poly, np.array(primes)).tolist() == expected


def test_class_code_array_across_chunk_edge(sieve_small):
    primes = sieve_small.prime_array()[: _CHUNK + 1].tolist()
    ctx = new_splitting_field([1, 1, 0, 1])
    expected = [oracle_code(ctx, p) for p in primes]
    for count in (_CHUNK - 1, _CHUNK, _CHUNK + 1):
        fresh = new_splitting_field([1, 1, 0, 1])
        assert len(sieve_small.prime_array(primes[count - 1])) == count
        codes = fresh.class_code_array(sieve_small, primes[count - 1])
        assert [int(codes[p]) for p in primes[:count]] == expected[:count], count


def width_primes(n):
    """2^31 - 1, the primes on either side of the int64 lane bound
    2n (p - 1)^2 < 2^63 and of n (p - 1)^2 < 2^63, the bound of one sum of
    n products, and 2^61 - 1."""
    primes = [2**31 - 1, 2**61 - 1]
    for m in (2 * n, n):
        top = isqrt((2**63 - 1) // m) + 1  # the largest p within the bound
        while m * (top - 1) ** 2 >= 2**63:
            top -= 1
        assert m * top**2 >= 2**63
        below = top
        while not is_prime(below):
            below -= 1
        primes += [below, next_prime(top + 1)]
    return sorted(primes)


@pytest.mark.parametrize(
    "poly", [[1, 1, 0, 1], [-1, -1, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 1]], ids=["cubic", "quintic", "sextic"]
)
def test_classify_across_integer_width_bound(poly):
    ctx = new_splitting_field(poly)
    for p in width_primes(len(poly) - 1):
        out = ctx.classify(p)
        assert (RAMIFIED_CODE if out.is_ramified else ctx.code_of(out.label)) == oracle_code(ctx, p), p
