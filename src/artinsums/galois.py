"""Computable Galois contexts over Q and the classification of rational
primes into conjugacy classes.

Two families are supported:

* ``Cyclotomic(k)`` -- Gal = (Z/k)^*, abelian, classes are the reduced
  residues mod k, each of size 1; a prime is classified by p mod k and is
  ramified exactly when p | k.

* ``SplittingField(f)`` -- f a monic integer polynomial whose splitting
  field has full symmetric Galois group S_deg(f) (a *declared*
  precondition, not verified here).  Classes are cycle types; a prime is
  classified by the multiset of irreducible-factor degrees of f mod p.

A prime is ramified when it divides k or the *polynomial* discriminant
disc(f), which is tested, never factored; the class codes (RAMIFIED_CODE)
record it.  ``ramified_primes`` lists those up to x from the codes up to
isqrt(x) and the cofactor of disc(f) (or k) they leave, whose primes up
to its square root are read off ``sieve.block_spf``.  A prime dividing
disc(f) but unramified in the field goes to the ramified bucket: finitely
many primes, whose fixed-prime slices of the main sums vanish in the
limit, so no density is affected.

Cycle types come from one numpy routine over an array of primes, one lane
per prime (Cohen, *A Course in Computational Algebraic Number Theory*,
3.4).  Each lane reduces f mod its own p, computes h = x^p mod f by
left-to-right square-and-multiply over the bits of p, and builds the
Berlekamp matrix Q, whose row i is x^(ip) mod f.  Q is the Frobenius of
F_p[x]/(f), a product of fields F_(p^e), one per irreducible factor, and
Frobenius^d has trace e on F_(p^e) when e | d and 0 otherwise.  So
tr(Q^d) mod p is fix(sigma^d), the number of roots of f fixed by the d-th
power of the Frobenius permutation sigma, and Moebius inversion gives the
number of e-cycles, c_e = (1/e) sum_{d | e} mu(e/d) fix(sigma^d).  This
is exact only while fix <= deg f < p: the few primes p <= deg f (2, 3, 5)
go through ``fieldpoly.distinct_degree_factorization`` instead.

The lanes run coefficient-major: row i of an (n, L) array holds the
coefficient of x^i for all L primes, so every numpy call runs over L
contiguous lanes.  Each bit step squares h and, in the lanes whose bit of
p is set, multiplies the square by x before one top-down reduction mod f
and p.  A row of the product starts as at most n products of residues and
takes at most n more while the rows above it are reduced, so int64 lanes
are used only while 2n (p - 1)^2 < 2^63 (p below about 8.8e8 for n = 6)
and the coefficients of f fit; larger primes run the same code on
Python-int (``dtype=object``) lanes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, isqrt

import numpy as np

from . import fieldpoly
from .errors import IntegrityError
from .fieldpoly import shape_label
from .sieve import MR_PROVEN_BELOW, FactorSieve, block_spf, is_prime

RAMIFIED_CODE = -1
UNCLASSIFIED_CODE = -2
# class codes are int16, 0 .. MAX_CLASSES - 1
MAX_CLASSES = 1 << 15

# primes per call of the trace kernel.  Of 2^10..2^15 lanes, 2^13 ran
# fastest on x^3+x+1 to 10^6 and x^5-x-1 to 2*10^5, about 10% ahead of 2^12,
# but its (n, n, primes) matrix powers raised the x^5-x-1 scan's peak RSS
# by 1 MB, where 2^12 adds 0.1 MB to that of 2^11
_CHUNK = 1 << 12
# integers per block of the search for ramified primes above isqrt(x); at
# 2^16 its loop over the sieving primes would run 16 times as often
_SEARCH_BLOCK = 1 << 20


@dataclass(frozen=True)
class ConjugacyClassSpec:
    label: str
    size: int
    density: Fraction


@dataclass(frozen=True)
class ClassOutcome:
    """Either a class label or the ramified marker (label None)."""

    label: str | None

    @property
    def is_ramified(self) -> bool:
        return self.label is None

    def __str__(self) -> str:
        return "ramified" if self.label is None else self.label


RAMIFIED = ClassOutcome(None)


class GaloisContext:
    """Immutable after construction."""

    def __init__(self, kind, classes, group_order, *, k=None, poly=None, disc=None):
        self.kind = kind  # "cyclotomic" | "splitting"
        self.k = k
        self.poly = tuple(poly) if poly is not None else None
        self.disc = disc
        self.classes: tuple[ConjugacyClassSpec, ...] = tuple(classes)
        self.group_order = group_order
        self._code = {c.label: i for i, c in enumerate(self.classes)}
        if kind == "cyclotomic":
            # class code of each residue p mod k; residues sharing a factor
            # with k occur only for the ramified primes p | k
            codes = [self._code.get(f"{r} mod {k}", RAMIFIED_CODE) for r in range(k)]
            self._residue_codes = np.array(codes, dtype=np.int16)
        else:
            # class code by cycle type, the counts c_1..c_n of e-cycles read
            # as the digits of a base-(n + 1) key
            n = len(self.poly) - 1
            self._cycle_codes = np.full((n + 1) ** n, UNCLASSIFIED_CODE, dtype=np.int16)
            for c in self.classes:
                key = sum((n + 1) ** (int(e) - 1) for e in c.label.split("+"))
                self._cycle_codes[key] = self._code[c.label]

    def labels(self) -> list[str]:
        return [c.label for c in self.classes]

    def spec_string(self) -> str:
        if self.kind == "cyclotomic":
            return f"cyclotomic:{self.k}"
        return "poly:" + ",".join(str(c) for c in self.poly)

    def describe(self) -> str:
        if self.kind == "cyclotomic":
            return f"Q(zeta_{self.k})"
        return "splitting field of [" + ",".join(str(c) for c in self.poly) + "]"

    # -- classification ------------------------------------------------

    def classify(self, p: int) -> ClassOutcome:
        return self.classify_primes([p])[0]

    def classify_primes(self, primes) -> list[ClassOutcome]:
        """Outcome of each of a list of primes, all classified in one batch
        once every entry is known to be prime."""
        for p in primes:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
        codes = self._class_codes(np.array(primes, dtype=object)).tolist()
        return [RAMIFIED if c == RAMIFIED_CODE else ClassOutcome(self.classes[c].label) for c in codes]

    def class_code_array(self, sieve: FactorSieve, limit: int) -> np.ndarray:
        """int16 array over [0, min(limit, sieve.limit)]: class index for
        primes, -1 for ramified primes, -2 elsewhere; each call classifies
        every prime up to there."""
        limit = min(limit, sieve.limit)
        arr = np.full(limit + 1, UNCLASSIFIED_CODE, dtype=np.int16)
        primes = sieve.prime_array(limit)
        arr[primes] = self._class_codes(primes)
        return arr

    def ramified_primes(self, codes: np.ndarray, x: int) -> list[int]:
        """The ramified primes up to x, increasing, where `codes` is the
        class-code array over [0, isqrt(x)]: the ones up to isqrt(x) are
        read off it and divided out of disc(f), or of k.  Unless what is
        left is a prime above x, the primes above isqrt(x) that divide it
        are divided out block by block until a block would start above its
        square root; what remains is then 1 or a prime, kept if <= x."""
        small = np.flatnonzero(codes == RAMIFIED_CODE).tolist()
        cof = self.k if self.kind == "cyclotomic" else abs(self.disc)
        for p in small:
            while cof % p == 0:
                cof //= p
        if x < cof < MR_PROVEN_BELOW and is_prime(cof):
            return small
        sieving = np.flatnonzero(codes != UNCLASSIFIED_CODE)
        dtype = np.int64 if cof < 2**63 else object
        found = []
        lo = len(codes)
        while lo <= min(x, isqrt(cof)):
            hi = min(lo + _SEARCH_BLOCK - 1, x, isqrt(cof)) + 1
            # uint32 on both sides: the comparison makes no wider temporary
            primes = np.flatnonzero(block_spf(sieving, lo, hi) == np.arange(lo, hi, dtype=np.uint32)) + lo
            for p in primes[np.array(cof, dtype=dtype) % primes.astype(dtype) == 0].tolist():
                found.append(p)
                while cof % p == 0:
                    cof //= p
            lo = hi
        return small + found + [cof] * (1 < cof <= x)

    def _class_codes(self, primes: np.ndarray) -> np.ndarray:
        """int16 class codes of an array of primes, RAMIFIED_CODE for the
        ramified ones; splitting-field primes go through the trace kernel
        _CHUNK at a time."""
        if self.kind == "cyclotomic":
            return self._residue_codes[(primes % self.k).astype(np.int64)]
        codes = np.empty(len(primes), dtype=np.int16)
        for lo in range(0, len(primes), _CHUNK):
            codes[lo : lo + _CHUNK] = self._cycle_type_codes(primes[lo : lo + _CHUNK])
        return codes

    def _cycle_type_codes(self, primes: np.ndarray) -> np.ndarray:
        n = len(self.poly) - 1
        codes = np.full(len(primes), RAMIFIED_CODE, dtype=np.int16)
        # p | disc(f) on int64 lanes while both fit, Python-int lanes beyond
        dtype = np.int64 if max(abs(self.disc), int(primes.max())) < 2**63 else object
        unramified = np.array(self.disc, dtype=dtype) % primes.astype(dtype) != 0
        small = unramified & (primes <= n)
        for i in np.flatnonzero(small):
            shape = fieldpoly.distinct_degree_factorization(
                fieldpoly.reduce_poly(self.poly, int(primes[i]))
            )
            codes[i] = self._code[shape_label(shape)]
        lanes = unramified & ~small
        if lanes.any():
            fix = _frobenius_fixed_points(self.poly, primes[lanes])
            # Moebius inversion of fix(sigma^e) = sum of d c_d over d | e
            counts = np.zeros_like(fix)
            ok = np.ones(len(fix), dtype=bool)
            for e in range(1, n + 1):
                ec = fix[:, e - 1] - sum(d * counts[:, d - 1] for d in range(1, e) if e % d == 0)
                counts[:, e - 1] = ec // e
                ok &= (ec >= 0) & (ec % e == 0)
            ok &= counts @ np.arange(1, n + 1) == n
            if not ok.all():
                p = primes[lanes][np.flatnonzero(~ok)[0]]
                raise IntegrityError(f"Frobenius traces of {list(self.poly)} mod {p} give no cycle type")
            codes[lanes] = self._cycle_codes[counts @ (n + 1) ** np.arange(n)]
        return codes

    def code_of(self, label: str) -> int:
        if label not in self._code:
            raise ValueError(f"unknown class label {label!r}")
        return self._code[label]


def new_cyclotomic(k: int) -> GaloisContext:
    """Context for the k-th cyclotomic field; Galois group (Z/k)^*, of
    order phi(k) <= MAX_CLASSES."""
    if k < 3:
        raise ValueError(f"cyclotomic modulus must be >= 3, got {k}")
    # stops at the first residue too many, so a huge k fails at once
    residues = list(islice((r for r in range(1, k) if gcd(r, k) == 1), MAX_CLASSES + 1))
    if len(residues) > MAX_CLASSES:
        raise ValueError(f"cyclotomic modulus {k} has more than {MAX_CLASSES} classes")
    order = len(residues)
    classes = [
        ConjugacyClassSpec(f"{r} mod {k}", 1, Fraction(1, order)) for r in residues
    ]
    return GaloisContext("cyclotomic", classes, order, k=k)


def new_splitting_field(int_coeffs) -> GaloisContext:
    """Context for the splitting field of a monic integer polynomial of
    degree 2..6, under the declared assumption Gal = S_deg."""
    coeffs = list(int_coeffs)
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    deg = len(coeffs) - 1
    if not 2 <= deg <= 6:
        raise ValueError(f"degree must be in [2, 6], got {deg}")
    disc = fieldpoly.discriminant(coeffs)
    if disc == 0:
        raise ValueError("polynomial has a repeated root (discriminant 0)")
    order = factorial(deg)
    classes = []
    for parts in _partitions(deg):
        label = "+".join(str(d) for d in parts)
        size = _cycle_type_size(deg, parts)
        classes.append(ConjugacyClassSpec(label, size, Fraction(size, order)))
    classes.sort(key=lambda c: c.label)
    return GaloisContext("splitting", classes, order, poly=coeffs, disc=disc)


def _frobenius_fixed_points(poly, primes: np.ndarray) -> np.ndarray:
    """(L, n) int64 array of fix(sigma^d) = tr(Q^d) mod p, d = 1..n, for
    primes p > n = deg f not dividing disc(f), one lane per prime."""
    n = len(poly) - 1
    pmax = int(primes.max())
    # _mulmod keeps every intermediate at most 2n (p - 1)^2
    fits = 2 * n * (pmax - 1) ** 2 < 2**63 and max(map(abs, poly)) < 2**62
    dtype = np.int64 if fits else object
    p = primes.astype(dtype)
    red = (-np.array(poly[:n], dtype=dtype)[:, None]) % p  # x^n = sum red_j x^j mod f
    h = np.zeros((n, len(p)), dtype=dtype)
    h[0] = 1
    for b in reversed(range(pmax.bit_length())):
        h = _mulmod(h, h, red, p, ((p >> b) & 1).astype(bool))
    Q = np.zeros((n, n, len(p)), dtype=dtype)
    Q[0, 0] = 1
    for i in range(1, n):
        Q[i] = _mulmod(Q[i - 1], h, red, p)
    fix = np.empty((len(p), n), dtype=np.int64)
    Qd = Q
    for d in range(n):
        if d:
            Qd = np.einsum("ijl,jkl->ikl", Qd, Q)
            Qd %= p
        fix[:, d] = (np.trace(Qd) % p).astype(np.int64)
    return fix


def _mulmod(a: np.ndarray, b: np.ndarray, red: np.ndarray, p: np.ndarray, times_x=False) -> np.ndarray:
    """Lane-wise a * b mod (f, p), times x in the lanes where times_x is
    set, for (n, L) coefficient arrays, row i the coefficient of x^i; red
    holds x^n mod f."""
    n = len(a)
    # row k + 1 holds the x^k coefficient of a * b, so row k holds that of
    # x * a * b: both products are views of one buffer
    prod = np.zeros((2 * n + 1, a.shape[1]), dtype=a.dtype)
    for i in range(n):
        prod[i + 1 : i + n + 1] += a[i] * b
    prod = np.where(times_x, prod[:-1], prod[1:])
    # a row starts as at most n products of residues and takes at most n
    # more while the rows above it are reduced, so it stays at most
    # 2n (p - 1)^2 until its own reduction
    for k in range(2 * n - 1, n - 1, -1):
        prod[k - n : k] += prod[k] % p * red
    return prod[:n] % p


def _partitions(n: int, largest: int | None = None):
    """Ascending-part partitions of n, e.g. 3 -> (1,1,1), (1,2), (3,)."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(1, min(n, largest) + 1):
        for rest in _partitions(n - first, first):
            yield tuple(sorted((first,) + rest))


def _cycle_type_size(n: int, parts) -> int:
    """Permutations of S_n with the given cycle type: n! / prod(d^m * m!)."""
    denom = 1
    for d in set(parts):
        m = list(parts).count(d)
        denom *= d**m * factorial(m)
    return factorial(n) // denom
