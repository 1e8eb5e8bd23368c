"""Dense monic polynomial arithmetic over F_p, just enough to compute the
factorization *shape* of an integer polynomial mod p.

Only the multiset of irreducible-factor degrees is ever produced, never
the factors themselves, so everything here is deterministic.  Coefficients
are Python ints, so a prime modulus of any size works.  The classifier in
galois.py uses distinct_degree_factorization only for the primes
p <= deg f, where its trace method does not apply; the tests use it as
the oracle for every prime.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotSquarefreeError

# a factor shape is a list of (degree, count) pairs, degrees increasing
FactorShape = list[tuple[int, int]]


@dataclass(frozen=True)
class PolyModP:
    """Polynomial over F_p; coeffs lowest-degree first, trailing zeros
    stripped, () is the zero polynomial."""

    p: int
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, p: int, coeffs) -> "PolyModP":
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(p, tuple(cs))

    @classmethod
    def x(cls, p: int) -> "PolyModP":
        return cls(p, (0, 1))

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "PolyModP") -> "PolyModP":
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % self.p
        return PolyModP.make(self.p, out)

    def __sub__(self, other: "PolyModP") -> "PolyModP":
        self._same_field(other)
        a, b = self.coeffs, other.coeffs
        out = [0] * max(len(a), len(b))
        for i, c in enumerate(a):
            out[i] = c
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % self.p
        return PolyModP.make(self.p, out)

    def __mul__(self, other: "PolyModP") -> "PolyModP":
        self._same_field(other)
        if self.is_zero() or other.is_zero():
            return PolyModP(self.p, ())
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return PolyModP.make(self.p, out)

    def __divmod__(self, other: "PolyModP"):
        self._same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        db = other.degree()
        lead_inv = pow(other.coeffs[-1], p - 2, p) if p > 2 else other.coeffs[-1]
        if self.degree() < db:
            return PolyModP(p, ()), self
        quot = [0] * (self.degree() - db + 1)
        for i in range(len(quot) - 1, -1, -1):
            c = rem[i + db] * lead_inv % p
            quot[i] = c
            if c:
                for j, bj in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - c * bj) % p
        return PolyModP.make(p, quot), PolyModP.make(p, rem)

    def __mod__(self, other: "PolyModP") -> "PolyModP":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "PolyModP") -> "PolyModP":
        return divmod(self, other)[0]

    def monic(self) -> "PolyModP":
        if self.is_zero():
            return self
        lead = self.coeffs[-1]
        if lead == 1:
            return self
        inv = pow(lead, self.p - 2, self.p)
        return PolyModP.make(self.p, [c * inv for c in self.coeffs])

    def deriv(self) -> "PolyModP":
        return PolyModP.make(self.p, [i * c for i, c in enumerate(self.coeffs)][1:])

    def _same_field(self, other: "PolyModP") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")


def reduce_poly(int_coeffs, p: int) -> PolyModP:
    """Reduce a monic integer polynomial mod p.  Monicity guarantees the
    degree survives the reduction."""
    if not int_coeffs or int_coeffs[-1] != 1:
        raise ValueError("polynomial must be monic over the integers")
    return PolyModP.make(p, int_coeffs)


def poly_gcd(a: PolyModP, b: PolyModP) -> PolyModP:
    """Monic gcd; gcd(a, 0) is monic(a)."""
    a._same_field(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_powmod(base: PolyModP, e: int, mod: PolyModP) -> PolyModP:
    """base^e reduced mod `mod`, square-and-multiply."""
    result = PolyModP.make(mod.p, (1,))
    base = base % mod
    while e > 0:
        if e & 1:
            result = result * base % mod
        base = base * base % mod
        e >>= 1
    return result


def powmod_x(f: PolyModP, e: int) -> PolyModP:
    """x^e mod f over F_p."""
    if f.degree() < 1:
        raise ValueError("modulus polynomial must have degree >= 1")
    return poly_powmod(PolyModP.x(f.p), e, f)


def count_roots(f: PolyModP) -> int:
    """Number of distinct roots of f in F_p: deg gcd(f, x^p - x)."""
    xp = powmod_x(f, f.p)
    g = poly_gcd(f, xp - PolyModP.x(f.p))
    return g.degree() if not g.is_zero() else 0


def distinct_degree_factorization(f: PolyModP) -> FactorShape:
    """Multiset of irreducible-factor degrees of a squarefree monic f,
    as (degree, count) pairs with increasing degrees.

    Raises NotSquarefreeError when gcd(f, f') != 1 (which happens exactly
    when p divides the discriminant of the integer polynomial)."""
    f = f.monic()
    d = f.deriv()
    if d.is_zero() or poly_gcd(f, d).degree() > 0:
        raise NotSquarefreeError(f"polynomial is not squarefree mod {f.p}")
    shape: FactorShape = []
    g = f
    h = PolyModP.x(f.p) % g
    d = 0
    while g.degree() > 0:
        d += 1
        if 2 * d > g.degree():
            shape.append((g.degree(), 1))
            break
        h = poly_powmod(h, f.p, g)  # h = x^(p^d) mod g
        t = poly_gcd(g, h - PolyModP.x(f.p))
        if t.degree() > 0:
            shape.append((d, t.degree() // d))
            g = g // t
            h = h % g
    return shape


def shape_label(shape: FactorShape) -> str:
    """Canonical cycle-type label: factor degrees with multiplicity,
    ascending, joined by '+': [(1,1),(2,1)] -> '1+2'."""
    parts: list[int] = []
    for d, m in shape:
        parts.extend([d] * m)
    return "+".join(str(d) for d in sorted(parts))


def discriminant(int_coeffs) -> int:
    """Exact discriminant of a monic integer polynomial of degree >= 2,
    via the resultant of f and f' (Sylvester matrix, Bareiss elimination)."""
    if not int_coeffs or int_coeffs[-1] != 1:
        raise ValueError("polynomial must be monic over the integers")
    n = len(int_coeffs) - 1
    if n < 2:
        raise ValueError("degree must be >= 2")
    deriv = [i * c for i, c in enumerate(int_coeffs)][1:]
    res = _resultant(list(int_coeffs), deriv)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return sign * res  # leading coefficient is 1, no division needed


def _resultant(f: list[int], g: list[int]) -> int:
    """Resultant of two integer polynomials (coeffs lowest-first) via the
    Sylvester matrix determinant."""
    while g and g[-1] == 0:
        g.pop()
    n, m = len(f) - 1, len(g) - 1
    if m < 0:
        return 0
    size = n + m
    mat = [[0] * size for _ in range(size)]
    frow = list(reversed(f))
    grow = list(reversed(g))
    for i in range(m):
        mat[i][i : i + n + 1] = frow
    for i in range(n):
        mat[m + i][i : i + m + 1] = grow
    return _bareiss_det(mat)


def _bareiss_det(mat: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
