"""Exact univariate polynomial arithmetic over Q.

Dense representation: ``coeffs[i]`` is the coefficient of X^i, trailing zeros
stripped, so the zero polynomial is the empty tuple. Every operation is exact
(fractions.Fraction); nothing here rounds.

The resultant uses a subresultant pseudo-remainder sequence over cleared
integer coefficients, gcd uses a primitive PRS, squarefree splitting is Yun's
algorithm, interpolation uses Newton's divided differences, and the
cyclotomic polynomial Phi_r comes from exact division of X^r - 1. Sums
and products skip zero coefficients, so building a polynomial term by
term costs in proportion to its terms. One helper tests squarefreeness
modulo a prime, by Euclid on f and f' in F_q. The value polynomial of
the critical points is built modulo a prime below 2^15; that one image
certifies it squarefree and, by its constant term, every critical value
nonzero. Rational roots come from roots modulo a small prime where the
input stays squarefree, lifted by Hensel's lemma. The test suite checks
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
        # copy the longer operand and add in the nonzero terms of the
        # shorter, so adding a monomial costs one addition
        a, b = self.coeffs, _coerce(other).coeffs
        if len(a) < len(b):
            a, b = b, a
        cs = list(a)
        for i, c in enumerate(b):
            if c:
                cs[i] += c
        return Poly(_strip(cs))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c if c else c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly(())
            other = Q(other)
            return Poly(tuple(other * c if c else c for c in self.coeffs))
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return Poly(())
        cs = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        # only nonzero pairs contribute, so a monomial factor costs one
        # product per term of the other
        right = [(j, b) for j, b in enumerate(other.coeffs) if b]
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in right:
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
    return Poly.of(*_int_gcd(_int_clear(p)[1], _int_clear(q)[1])).monic()


def _int_gcd(A: list[int], B: list[int]) -> list[int]:
    """Primitive gcd of nonzero integer polynomials, leading term positive."""
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
    c = _icontent(A) if A[-1] > 0 else -_icontent(A)
    return [x // c for x in A]


# the three largest primes below 2^15, for the certificates modulo a
# prime: residues stay below 2^15, so every product of two residues fits
# in one 30-bit digit of a CPython int
GCD_PRIMES = (32749, 32719, 32717)


def _reduce_mod(f: Poly, p: int) -> list[int]:
    return _istrip([c.numerator * pow(c.denominator, -1, p) % p
                    for c in f.coeffs])


def _rem_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a under division by a nonzero b, in F_p."""
    inv = pow(b[-1], -1, p)
    db = _ideg(b)
    low = b[:-1]
    rem = list(a)
    while len(rem) > db:
        # the top term cancels exactly, so it is dropped rather than computed
        lead = rem.pop() * inv % p
        if lead:
            shift = len(rem) - db
            rem[shift:] = [(x - lead * y) % p
                           for x, y in zip(rem[shift:], low)]
        _istrip(rem)
    return rem


def _squarefree_mod(f: Sequence[int], q: int) -> bool:
    """For nonzero f: q does not divide lc(f), and gcd(f, f') = 1 in F_q."""
    if f[-1] % q == 0:
        return False
    a = [c % q for c in f]
    b = _istrip([i * c % q for i, c in enumerate(a)][1:])
    while b:
        a, b = b, _rem_mod(a, b, q)
    return _ideg(a) == 0


def _res_mod(a: list[int], b: list[int], p: int) -> int:
    """Res(a, b) in F_p for a nonzero, by Euclid.

    Uses Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
    for r = a mod b.
    """
    res = 1
    while len(b) > 1:
        r = _rem_mod(a, b, p)
        if not r:
            return 0
        da, db = _ideg(a), _ideg(b)
        if da & db & 1:
            res = -res
        res = res * pow(b[-1], da - _ideg(r), p) % p
        a, b = b, r
    return res * pow(b[0], _ideg(a), p) % p if b else 0


def _newton_mod(values: Sequence[int], p: int) -> list[int]:
    """Ascending coefficients in F_p of the interpolant of values at 0..l."""
    dd = list(values)
    l = len(dd) - 1
    for k in range(1, l + 1):
        inv = pow(k, -1, p)  # the nodes are i and i - k
        for i in range(l, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv % p
    acc: list[int] = []
    for k in range(l, -1, -1):
        # acc := acc * (X - k) + dd[k]
        nxt = [0] + acc
        for i, c in enumerate(acc):
            nxt[i] = (nxt[i] - k * c) % p
        nxt[0] = (nxt[0] + dd[k]) % p
        acc = nxt
    return acc


def separation_mod_p(rad: Poly, p: Poly) -> Optional[tuple[bool, bool]]:
    """(squarefree, zero_free) for the value polynomial modulo a prime.

    The value polynomial is sep(t) = Res_X(rad, t - P), the product of
    t - P(alpha) over the roots alpha of the monic rad. With q the first
    prime of ``GCD_PRIMES`` above l = deg rad that divides no denominator
    of rad or P, every P(alpha) is integral at q, so sep mod q is the
    interpolant of the l + 1 resultants Res(rad, t - (P mod rad)) in F_q
    at t = 0..l, monic of degree l. Since sep is monic, squarefree mod q
    makes it squarefree over Q: the critical values are distinct. Since
    sep(0) = (-1)^l Res(rad, P), a constant term nonzero mod q makes
    every critical value nonzero. A False in either place means only
    that q certified nothing; None means no prime was usable.
    """
    l = rad.degree
    for q in GCD_PRIMES:
        if q <= l or any(c.denominator % q == 0
                         for c in rad.coeffs + p.coeffs):
            continue
        r = _reduce_mod(rad, q)
        low = _rem_mod(_reduce_mod(p, q), r, q) or [0]
        high = [-c % q for c in low[1:]]  # t - (P mod rad) above degree 0
        values = [_res_mod(r, [(t - low[0]) % q] + high, q)
                  for t in range(l + 1)]
        sep = _istrip(_newton_mod(values, q))
        if _ideg(sep) != l or sep[-1] != 1:
            raise RuntimeError(
                f"value polynomial modulo {q} must be monic of degree {l}")
        return _squarefree_mod(sep, q), sep[0] != 0
    return None


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


def _int_divexact(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """A / B for integer polynomials that B divides over the integers."""
    R = list(A)
    db = _ideg(B)
    out = [0] * (len(A) - db)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = R[k + db] // B[-1]
        if c:
            for i, b in enumerate(B):
                R[k + i] -= c * b
    return out


def _eval_mod(cs: Sequence[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


def _small_primes() -> Iterator[int]:
    q = 3
    while True:
        if all(q % d for d in range(3, math.isqrt(q) + 1, 2)):
            yield q
        q += 2


def _integer_roots(g: list[int]) -> list[int]:
    """Integer roots of a monic squarefree integer polynomial.

    Every integer root lies within Cauchy's bound B = 1 + max |g_i|. At
    a small prime q where g stays squarefree each is a simple root mod q,
    so Hensel's lemma lifts it uniquely to a root mod m = q^(2^k) > 2B,
    whose symmetric residue is the root itself (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 15).
    """
    bound = 1 + max(abs(c) for c in g[:-1])
    dg = [i * c for i, c in enumerate(g)][1:]
    for q in _small_primes():
        if _squarefree_mod(g, q):
            break
    out = []
    for y in range(q):
        if _eval_mod(g, y, q):
            continue
        m = q
        while m <= 2 * bound:
            m *= m
            y = (y - _eval_mod(g, y, m) * pow(_eval_mod(dg, y, m), -1, m)) % m
        out.append(y - m if 2 * y > m else y)
    return out


def _screen(f: Sequence[int], u: int, v: int) -> int:
    """v^d f(u/v), as sum f_i u^i v^(d-i) over the integers."""
    acc = 0
    vp = 1
    for c in reversed(f):
        acc = acc * u + c * vp
        vp *= v
    return acc


def rational_roots(p: Poly) -> list[tuple[Fraction, int]]:
    """All rational roots with multiplicities, ascending.

    With f the primitive integer multiple of p, s its squarefree part and
    a = lc(s), the rational roots of p are the Y/a for the integer roots
    Y of the monic g(Y) = a^(e-1) s(Y/a), e = deg s. Each root u/v found
    is divided out of f as the factor vX - u as often as f vanishes there.
    """
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    _, f = _int_clear(p)
    k = 0
    while f[k] == 0:
        k += 1
    f = f[k:]
    roots: list[tuple[Fraction, int]] = [(Q(0), k)] if k else []
    if len(f) < 2:
        return roots
    s = f
    if not _squarefree_mod(f, GCD_PRIMES[0]):
        s = _int_divexact(f, _int_gcd(f, [i * c for i, c in enumerate(f)][1:]))
    e, a = _ideg(s), s[-1]
    g = [c * a ** (e - 1 - i) for i, c in enumerate(s[:-1])] + [1]
    for y in _integer_roots(g):
        t = math.gcd(y, a)
        u, v = y // t, a // t
        mult = 0
        while len(f) > 1 and _screen(f, u, v) == 0:
            f = _int_divexact(f, [-u, v])
            mult += 1
        if mult:
            roots.append((Q(u, v), mult))
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
