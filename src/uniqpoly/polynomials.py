"""Exact univariate polynomial arithmetic over Q.

Dense representation: ``coeffs[i]`` is the coefficient of X^i, trailing zeros
stripped, so the zero polynomial is the empty tuple. Every operation is exact
(fractions.Fraction); nothing here rounds.

The resultant uses a subresultant pseudo-remainder sequence over cleared
integer coefficients, gcd uses a primitive PRS, squarefree splitting is Yun's
algorithm, interpolation uses Newton's divided differences, and the
cyclotomic polynomial Phi_r comes from exact division of X^r - 1. Euclid
modulo a large prime bounds the degree of a gcd from above, which lets
callers certify a gcd without running the exact one. The test suite checks
the resultant against a Sylvester-determinant oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Sequence

Q = Fraction


def _strip(cs: list[Fraction]) -> tuple[Fraction, ...]:
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over Q, immutable and hashable."""

    coeffs: tuple[Fraction, ...]

    # construction

    @staticmethod
    def of(*coeffs) -> "Poly":
        """Build from ascending coefficients, constant term first."""
        return Poly(_strip([Q(c) for c in coeffs]))

    @staticmethod
    def from_support(terms: dict[int, Fraction | int]) -> "Poly":
        if not terms:
            return Poly(())
        cs = [Q(0)] * (max(terms) + 1)
        for e, c in terms.items():
            cs[e] += Q(c)
        return Poly(_strip(cs))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    # basic queries

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with degree(0) = -1."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, e: int) -> Fraction:
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else Q(0)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    # ring operations

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [self.coeff(i) + other.coeff(i) for i in range(n)]
        return Poly(_strip(cs))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly(())
            return Poly(tuple(Q(other) * c for c in self.coeffs))
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return Poly(())
        cs = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] += a * b
        return Poly(_strip(cs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.of(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        other = _coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q: dict[int, Fraction] = {}
        rem = list(self.coeffs)
        d = other.degree
        inv = 1 / other.lc
        while len(rem) - 1 >= d and rem:
            lead = rem[-1] * inv
            shift = len(rem) - 1 - d
            q[shift] = lead
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= lead * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly.from_support(q), Poly(_strip(rem))

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, _coerce(other))[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, _coerce(other))[1]

    def exact_div(self, other) -> "Poly":
        quot, rem = divmod(self, _coerce(other))
        if not rem.is_zero:
            raise ValueError("division is not exact")
        return quot

    # calculus and substitution

    def derivative(self) -> "Poly":
        return Poly(_strip([i * c for i, c in enumerate(self.coeffs)][1:]))

    def evaluate(self, x) -> Fraction:
        x = Q(x)
        acc = Q(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(X)), by Horner over the polynomial ring."""
        acc = Poly(())
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.of(c)
        return acc

    def taylor_shift(self, a) -> "Poly":
        """P(X + a)."""
        return self.compose(Poly.of(Q(a), 1))

    def scale_input(self, c) -> "Poly":
        """P(c X)."""
        c = Q(c)
        return Poly(_strip([co * c**i for i, co in enumerate(self.coeffs)]))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self * (1 / self.lc)

    def __str__(self) -> str:
        from .parser import format_poly

        return format_poly(self)


def _coerce(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.of(v)
    raise TypeError(f"cannot treat {type(v).__name__} as a polynomial")


X = Poly.of(0, 1)


# integer clearing, shared by gcd and resultant

def _int_clear(p: Poly) -> tuple[Fraction, list[int]]:
    """Write p = factor * prim with prim a primitive integer polynomial.

    The sign convention keeps prim's leading coefficient positive.
    """
    if p.is_zero:
        return Q(1), []
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return Q(g, den), [c // g for c in ints]


def _ideg(cs: Sequence[int]) -> int:
    return len(cs) - 1


def _istrip(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _icontent(cs: Sequence[int]) -> int:
    return math.gcd(*cs) if cs else 0


def _pseudo_rem(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """prem(A, B): remainder of lc(B)^(degA-degB+1) * A under division by B."""
    dB = _ideg(B)
    lB = B[-1]
    R = list(A)
    k = _ideg(R) - dB + 1
    while R and _ideg(R) >= dB:
        lead = R[-1]
        R = [lB * c for c in R]
        shift = _ideg(R) - dB
        for i, bc in enumerate(B):
            R[shift + i] -= lead * bc
        R = _istrip(R)
        k -= 1
    if R and k > 0:
        f = lB**k
        R = [f * c for c in R]
    return R


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd over Q, primitive PRS over the cleared integer polynomials."""
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    _, A = _int_clear(p)
    _, B = _int_clear(q)
    if _ideg(A) < _ideg(B):
        A, B = B, A
    while B:
        R = _pseudo_rem(A, B)
        A = B
        if R:
            c = _icontent(R)
            B = [x // c for x in R]
        else:
            B = []
    return Poly.of(*A).monic()


# primes just below 2^61 for the modular gcd-degree bound
GCD_PRIMES = (2**61 - 1, 2**61 - 31, 2**61 - 45)


def gcd_degree_mod_p(f: Poly, g: Poly) -> Optional[int]:
    """Upper bound on deg gcd(f, g) over Q, from Euclid modulo a prime.

    Answers with the first prime p of ``GCD_PRIMES`` that divides no
    denominator of f or g and not the numerator of lc(f). For such p the
    monic gcd over Q of f is p-integral (Gauss's lemma over the integers
    localized at p), so it reduces to a divisor of gcd(f mod p, g mod p)
    of the same degree, and the degree returned is at least the one over
    Q. Returns None when no prime qualifies. f must be nonzero.
    """
    for p in GCD_PRIMES:
        if f.lc.numerator % p == 0 or any(
                c.denominator % p == 0 for c in f.coeffs + g.coeffs):
            continue
        a, b = _reduce_mod(f, p), _reduce_mod(g, p)
        while b:
            a, b = b, _rem_mod(a, b, p)
        return _ideg(a)
    return None


def _reduce_mod(f: Poly, p: int) -> list[int]:
    return _istrip([c.numerator * pow(c.denominator, -1, p) % p
                    for c in f.coeffs])


def _rem_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a under division by a nonzero b, in F_p."""
    inv = pow(b[-1], -1, p)
    db = _ideg(b)
    rem = list(a)
    while _ideg(rem) >= db:
        lead = rem[-1] * inv % p
        shift = _ideg(rem) - db
        for i, c in enumerate(b):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
        _istrip(rem)
    return rem


def resultant(p: Poly, q: Poly) -> Fraction:
    """Res(p, q) over Q.

    Subresultant PRS (single extra division per step keeps the integers
    small); rational inputs are cleared first and corrected by
    Res(c*p, q) = c^deg(q) * Res(p, q).
    """
    if p.is_zero or q.is_zero:
        return Q(0)
    dp, dq = p.degree, q.degree
    if dp == 0 and dq == 0:
        return Q(1)
    if dq == 0:
        return q.lc**dp
    if dp == 0:
        return p.lc**dq
    fp, A = _int_clear(p)
    fq, B = _int_clear(q)
    return fp**dq * fq**dp * _int_resultant(A, B)


def _int_resultant(A: list[int], B: list[int]) -> int:
    s = 1
    if _ideg(A) < _ideg(B):
        if _ideg(A) % 2 == 1 and _ideg(B) % 2 == 1:
            s = -s
        A, B = B, A
    a = _icontent(A)
    A = [c // a for c in A]
    b = _icontent(B)
    B = [c // b for c in B]
    t = a ** _ideg(B) * b ** _ideg(A)
    g = h = 1
    while True:
        dA, dB = _ideg(A), _ideg(B)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _pseudo_rem(A, B)
        if not R:
            return 0
        A = B
        denom = g * h**delta
        B = [c // denom for c in R]
        g = A[-1]
        h = h * g**delta // h**delta if delta else h
        if _ideg(B) == 0:
            dA = _ideg(A)
            num = B[0] ** dA
            return s * t * (num // h ** (dA - 1) if dA > 1 else num * h ** (1 - dA))


def squarefree_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's splitting: monic squarefree factors with multiplicities.

    The product of factor**mult over the result equals p.monic().
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree splitting")
    p = p.monic()
    if p.degree == 0:
        return []
    out: list[tuple[Poly, int]] = []
    g = poly_gcd(p, p.derivative())
    c = p.exact_div(g)
    d = p.derivative().exact_div(g) - c.derivative()
    i = 1
    while c.degree > 0:
        a = poly_gcd(c, d)
        if a.degree > 0:
            out.append((a, i))
        c = c.exact_div(a)
        d = d.exact_div(a) - c.derivative()
        i += 1
    return out


def radical(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p."""
    if p.is_zero:
        raise ValueError("zero polynomial has no radical")
    if p.degree == 0:
        return Poly.of(1)
    return p.exact_div(poly_gcd(p, p.derivative())).monic()


def lagrange_interpolate(points: Sequence[tuple[Fraction, Fraction]]) -> Poly:
    """Unique polynomial of degree < len(points) through the given points.

    Newton's divided differences give the interpolant in the Newton basis,
    and Horner's rule in that basis expands it: O(l^2) field operations
    for l points.
    """
    xs = [Q(x) for x, _ in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    dd = [Q(y) for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    acc: list[Fraction] = []
    for k in reversed(range(len(xs))):
        # acc := acc * (X - xs[k]) + dd[k]
        nxt = [Q(0)] + acc
        for i, c in enumerate(acc):
            nxt[i] -= xs[k] * c
        nxt[0] += dd[k]
        acc = nxt
    return Poly(_strip(acc))


def _divisors(n: int) -> Iterator[int]:
    n = abs(n)
    found = [1]
    d = 2
    while d * d <= n:
        if n % d == 0:
            power = []
            while n % d == 0:
                n //= d
                power.append(d ** len(power) * d)
            found = [f * pw for f in found for pw in [1] + power]
        d += 1 if d == 2 else 2
    if n > 1:
        found = [f * pw for f in found for pw in (1, n)]
    return iter(sorted(set(found)))


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, ascending."""
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    # pull off the root at 0 first so the constant term is nonzero
    k = 0
    while p.coeff(0) == 0 and p.degree > 0:
        p = p.exact_div(X)
        k += 1
    if k:
        roots.append((Q(0), k))
    if p.degree < 1:
        return sorted(roots)
    _, ints = _int_clear(p)
    c0, cn = ints[0], ints[-1]
    seen = set()
    for num in _divisors(c0):
        for den in _divisors(cn):
            for cand in (Q(num, den), Q(-num, den)):
                if cand in seen:
                    continue
                seen.add(cand)
                if p.evaluate(cand) != 0:
                    continue
                mult = 0
                lin = Poly.of(-cand, 1)
                while p.evaluate(cand) == 0 and p.degree > 0:
                    p = p.exact_div(lin)
                    mult += 1
                roots.append((cand, mult))
    return sorted(roots)


@lru_cache(maxsize=None)
def cyclotomic(r: int) -> Poly:
    """Phi_r, by dividing X^r - 1 by the lower cyclotomics."""
    if r < 1:
        raise ValueError("index must be positive")
    if r == 1:
        return X - 1
    q = Poly.from_support({r: 1, 0: -1})
    for d in range(1, r):
        if r % d == 0:
            q = q.exact_div(cyclotomic(d))
    return q
