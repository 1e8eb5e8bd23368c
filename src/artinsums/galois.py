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

Ramification is tested against the *polynomial* discriminant rather than
the field discriminant.  A prime dividing disc(f) while actually
unramified in the field is conservatively routed to the ramified bucket;
this touches finitely many primes and every fixed-prime slice of the main
sums vanishes in the limit, so no density statement is affected.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import numpy as np

from . import fieldpoly
from .fieldpoly import PolyModP, shape_label
from .sieve import FactorSieve, is_prime

RAMIFIED_CODE = -1
UNCLASSIFIED_CODE = -2


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
    """Immutable after construction; classify() is pure and caches per
    prime, so bulk scans pay the polynomial work once per prime."""

    def __init__(self, kind, classes, group_order, ramified, *, k=None, poly=None, disc=None):
        self.kind = kind  # "cyclotomic" | "splitting"
        self.k = k
        self.poly = tuple(poly) if poly is not None else None
        self.disc = disc
        self.classes: tuple[ConjugacyClassSpec, ...] = tuple(classes)
        self.group_order = group_order
        self.ramified: frozenset[int] = frozenset(ramified)
        self._by_label = {c.label: c for c in self.classes}
        self._code = {c.label: i for i, c in enumerate(self.classes)}
        self._classify_cache: dict[int, ClassOutcome] = {}
        self._codes: np.ndarray | None = None

    def labels(self) -> list[str]:
        return [c.label for c in self.classes]

    def class_density(self, label: str) -> Fraction:
        if label not in self._by_label:
            raise ValueError(f"unknown class label {label!r}")
        return self._by_label[label].density

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
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        out = self._classify_cache.get(p)
        if out is None:
            out = self._classify_prime(p)
            self._classify_cache[p] = out
        return out

    def _classify_prime(self, p: int) -> ClassOutcome:
        if self.kind == "cyclotomic":
            if self.k % p == 0:
                return RAMIFIED
            return ClassOutcome(f"{p % self.k} mod {self.k}")
        if self.disc % p == 0:
            return RAMIFIED
        deg = len(self.poly) - 1
        if deg == 3 and p >= 5:
            return ClassOutcome(self._cubic_label(p))
        shape = fieldpoly.distinct_degree_factorization(
            fieldpoly.reduce_poly(self.poly, p)
        )
        return ClassOutcome(shape_label(shape))

    def _cubic_label(self, p: int) -> str:
        # For an S_3 cubic with p not dividing disc: the Frobenius lies in
        # A_3 iff disc is a square mod p.  A non-square disc forces the
        # 2-cycle shape outright; otherwise one gcd decides identity vs
        # 3-cycle.  Agrees with the generic degree-shape route (tested).
        if pow(self.disc % p, (p - 1) // 2, p) == p - 1:
            return "1+2"
        f = fieldpoly.reduce_poly(self.poly, p)
        return "1+1+1" if fieldpoly.count_roots(f) > 0 else "3"

    def class_code_array(self, sieve: FactorSieve, limit: int | None = None) -> np.ndarray:
        """int16 array over [0, limit]: class index for primes, -1 for
        ramified primes, -2 elsewhere.  The largest array built is kept,
        and a request at or below its limit gets a slice of it."""
        limit = sieve.limit if limit is None else min(limit, sieve.limit)
        arr = self._codes
        if arr is not None and len(arr) > limit:
            return arr[: limit + 1]
        arr = np.full(limit + 1, UNCLASSIFIED_CODE, dtype=np.int16)
        primes = sieve.prime_array(limit)
        if self.kind == "cyclotomic":
            lut = np.full(self.k, RAMIFIED_CODE, dtype=np.int16)
            for r in range(self.k):
                lab = f"{r} mod {self.k}"
                if lab in self._code:
                    lut[r] = self._code[lab]
            arr[primes] = lut[primes % self.k]
        else:
            for p in primes.tolist():
                out = self.classify(p)
                arr[p] = RAMIFIED_CODE if out.is_ramified else self._code[out.label]
        self._codes = arr
        return arr

    def code_of(self, label: str) -> int:
        if label not in self._code:
            raise ValueError(f"unknown class label {label!r}")
        return self._code[label]


def new_cyclotomic(k: int) -> GaloisContext:
    """Context for the k-th cyclotomic field; Galois group (Z/k)^*."""
    if k < 3:
        raise ValueError(f"cyclotomic modulus must be >= 3, got {k}")
    residues = [r for r in range(1, k) if gcd(r, k) == 1]
    order = len(residues)
    classes = [
        ConjugacyClassSpec(f"{r} mod {k}", 1, Fraction(1, order)) for r in residues
    ]
    ramified = {p for p, _ in _trial_factorize(k)}
    return GaloisContext("cyclotomic", classes, order, ramified, k=k)


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
    ramified = {p for p, _ in _trial_factorize(abs(disc))}
    return GaloisContext(
        "splitting", classes, order, ramified, poly=coeffs, disc=disc
    )


def classify_prime(ctx: GaloisContext, p: int) -> ClassOutcome:
    return ctx.classify(p)


def class_density(ctx: GaloisContext, label: str) -> Fraction:
    return ctx.class_density(label)


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


def _trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out
