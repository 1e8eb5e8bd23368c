"""Polynomial arithmetic over F_p, factor-shape computation against a
brute-force irreducible-enumeration oracle, and the exact discriminant."""

import math
from functools import reduce
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinsums.errors import NotSquarefreeError
from artinsums.fieldpoly import (
    PolyModP,
    count_roots,
    discriminant,
    distinct_degree_factorization,
    poly_gcd,
    poly_powmod,
    powmod_x,
    reduce_poly,
    shape_label,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 31, 97]

coeff_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=7)
prime_st = st.sampled_from(SMALL_PRIMES)


# -- oracle: factor shape by enumerating monic irreducibles -----------------


def all_monic(p, d):
    for tail in product(range(p), repeat=d):
        yield PolyModP.make(p, list(tail) + [1])


def monic_irreducibles(p, dmax):
    """All monic irreducibles over F_p of degree <= dmax, by sieving the
    monic polynomials against products of smaller irreducibles."""
    irr = {d: [] for d in range(1, dmax + 1)}
    irr[1] = list(all_monic(p, 1))
    for d in range(2, dmax + 1):
        for f in all_monic(p, d):
            if not any(
                f % g == PolyModP(p, ())
                for dd in range(1, d // 2 + 1)
                for g in irr[dd]
            ):
                irr[d].append(f)
    return irr


def oracle_shape(f):
    """Degree multiset of f's irreducible factors by trial division against
    the full irreducible list (p and deg small enough to enumerate)."""
    p = f.p
    f = f.monic()
    irr = monic_irreducibles(p, f.degree())
    parts = []
    for d in range(1, f.degree() + 1):
        for g in irr[d]:
            while f.degree() >= d and f % g == PolyModP(p, ()):
                parts.append(d)
                f = f // g
    assert f.degree() == 0
    out = []
    for d in sorted(set(parts)):
        out.append((d, parts.count(d)))
    return out


def oracle_is_squarefree(f):
    p = f.p
    irr = monic_irreducibles(p, max(1, f.degree() // 2 + 1))
    for d in irr:
        for g in irr[d]:
            sq = g * g
            if f.degree() >= sq.degree() and f % sq == PolyModP(p, ()):
                return False
    return True


# -- arithmetic -------------------------------------------------------------


@given(prime_st, coeff_lists, coeff_lists)
@settings(max_examples=150, deadline=None)
def test_divmod_identity(p, a, b):
    fa = PolyModP.make(p, a)
    fb = PolyModP.make(p, b)
    if fb.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(fa, fb)
        return
    q, r = divmod(fa, fb)
    assert q * fb + r == fa
    assert r.is_zero() or r.degree() < fb.degree()


@given(prime_st, coeff_lists, coeff_lists, coeff_lists)
@settings(max_examples=100, deadline=None)
def test_mul_distributes(p, a, b, c):
    fa, fb, fc = (PolyModP.make(p, v) for v in (a, b, c))
    assert fa * (fb + fc) == fa * fb + fa * fc


@given(prime_st, coeff_lists, coeff_lists, st.integers(0, 40))
@settings(max_examples=100, deadline=None)
def test_evaluate_is_ring_hom(p, a, b, x0):
    # evaluation at x0, by Horner's rule on the reduced coefficients
    def at(f):
        return reduce(lambda v, c: (v * x0 + c) % p, reversed(f.coeffs), 0)

    fa, fb = PolyModP.make(p, a), PolyModP.make(p, b)
    assert at(fa) == sum(c * x0**i for i, c in enumerate(a)) % p
    assert at(fa + fb) == (at(fa) + at(fb)) % p
    assert at(fa * fb) == at(fa) * at(fb) % p


@given(prime_st, coeff_lists, coeff_lists)
@settings(max_examples=100, deadline=None)
def test_gcd_divides_both(p, a, b):
    fa = PolyModP.make(p, a)
    fb = PolyModP.make(p, b)
    g = poly_gcd(fa, fb)
    if g.is_zero():
        assert fa.is_zero() and fb.is_zero()
        return
    assert (fa % g).is_zero()
    assert (fb % g).is_zero()
    assert g.coeffs[-1] == 1  # monic


def test_powmod_small_cases():
    f = reduce_poly([1, 1, 0, 1], 2)  # x^3 + x + 1 over F_2
    # x generates F_8^*, so x^7 = 1 and x^8 = x
    assert powmod_x(f, 7).coeffs == (1,)
    assert powmod_x(f, 8).coeffs == (0, 1)
    assert powmod_x(f, 2).coeffs == (0, 0, 1)
    assert powmod_x(f, 0).coeffs == (1,)


@given(prime_st, st.lists(st.integers(-20, 20), min_size=2, max_size=5), st.integers(0, 64))
@settings(max_examples=100, deadline=None)
def test_powmod_matches_naive(p, coeffs, e):
    f = PolyModP.make(p, coeffs[:-1] + [1])
    if f.degree() < 1:
        return
    x = PolyModP.x(p)
    naive = PolyModP.make(p, (1,))
    for _ in range(e):
        naive = naive * x % f
    assert powmod_x(f, e) == naive


# -- roots and factor shape -------------------------------------------------


@given(prime_st, st.lists(st.integers(-30, 30), min_size=2, max_size=5))
@settings(max_examples=150, deadline=None)
def test_count_roots_vs_exhaustive(p, coeffs):
    f = PolyModP.make(p, coeffs[:-1] + [1])
    if f.degree() < 1:
        return
    # f(a) by Horner's rule
    brute = sum(1 for a in range(p) if reduce(lambda v, c: (v * a + c) % p, reversed(f.coeffs), 0) == 0)
    assert count_roots(f) == brute


def test_ddf_known_cubic():
    cubic = [1, 1, 0, 1]
    assert distinct_degree_factorization(reduce_poly(cubic, 2)) == [(3, 1)]
    assert distinct_degree_factorization(reduce_poly(cubic, 11)) == [(1, 1), (2, 1)]
    with pytest.raises(NotSquarefreeError):
        distinct_degree_factorization(reduce_poly(cubic, 31))  # 31 | disc


@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.integers(-15, 15), min_size=2, max_size=5))
@settings(max_examples=120, deadline=None)
def test_ddf_vs_irreducible_enumeration(p, coeffs):
    f = PolyModP.make(p, coeffs[:-1] + [1])
    if f.degree() < 1:
        return
    if not oracle_is_squarefree(f):
        with pytest.raises(NotSquarefreeError):
            distinct_degree_factorization(f)
        return
    assert distinct_degree_factorization(f) == oracle_shape(f)


def test_ddf_degrees_sum(sieve_small):
    for p in sieve_small.prime_array(60).tolist():
        for coeffs in ([1, 1, 0, 1], [3, 0, 1, 0, 1], [-1, -1, 0, 0, 0, 1]):
            try:
                shape = distinct_degree_factorization(reduce_poly(coeffs, p))
            except NotSquarefreeError:
                continue
            assert sum(d * m for d, m in shape) == len(coeffs) - 1


def test_shape_label_ascending():
    assert shape_label([(1, 1), (2, 1)]) == "1+2"
    assert shape_label([(1, 3)]) == "1+1+1"
    assert shape_label([(3, 1)]) == "3"
    assert shape_label([(1, 2), (2, 2)]) == "1+1+2+2"


def test_reduce_poly_requires_monic():
    with pytest.raises(ValueError):
        reduce_poly([1, 2], 5)
    with pytest.raises(ValueError):
        reduce_poly([], 5)


# -- discriminant -----------------------------------------------------------


def test_discriminant_known_values():
    assert discriminant([1, 1, 0, 1]) == -31  # x^3 + x + 1
    assert discriminant([-1, -1, 0, 1]) == -23  # x^3 - x - 1
    assert discriminant([1, 0, 1]) == -4  # x^2 + 1
    assert discriminant([-1, 0, 1]) == 4  # x^2 - 1
    assert discriminant([2, 0, 0, 0, 0, 1]) == 5**5 * 2**4  # x^5 + 2


@given(st.integers(-30, 30), st.integers(-30, 30))
@settings(max_examples=100, deadline=None)
def test_discriminant_quadratic_formula(b, c):
    assert discriminant([c, b, 1]) == b * b - 4 * c


@given(st.lists(st.integers(-8, 8), min_size=2, max_size=4))
@settings(max_examples=100, deadline=None)
def test_discriminant_of_split_polynomial(roots):
    # disc of prod (x - r_i) is prod_{i<j} (r_i - r_j)^2
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    expected = 1
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            expected *= (roots[i] - roots[j]) ** 2
    assert discriminant(coeffs) == expected


def test_disc_mod_p_iff_not_squarefree(sieve_small):
    # p | disc(f) exactly when f mod p has a repeated factor
    for coeffs in ([1, 1, 0, 1], [-1, -1, 0, 1], [7, 0, 1], [3, 0, 1, 0, 1]):
        disc = discriminant(coeffs)
        for p in sieve_small.prime_array(10_000).tolist():
            squarefree = True
            try:
                distinct_degree_factorization(reduce_poly(coeffs, p))
            except NotSquarefreeError:
                squarefree = False
            assert squarefree == (disc % p != 0), (coeffs, p)


def test_discriminant_validation():
    with pytest.raises(ValueError):
        discriminant([1, 2, 3])  # not monic
    with pytest.raises(ValueError):
        discriminant([0, 1])  # degree 1
