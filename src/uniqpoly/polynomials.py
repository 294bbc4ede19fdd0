"""Exact univariate polynomial arithmetic over Q.

A Poly is its content, a Fraction, times ``prim``, a primitive integer
vector: ascending, constant term first, last entry positive, and () for
zero, whose content is 1. ``Poly(coeffs)`` takes ints and Fractions
only, reads their numerators and denominators, and builds one Fraction,
the content. Every routine over Z or F_q reads ``prim`` and ``content``
directly; ``coeffs`` is the Fraction view, built on first read. Nothing
here rounds. The Taylor shift P(X + u/v) is synthetic division by the
integer u on v^n prim(X/v). Division over Q is ``exact_div`` alone, on
the primitive vectors over Z; it raises ValueError when the divisor
does not divide, which by Gauss's lemma is the divisibility test over Q.

The resultant uses a subresultant pseudo-remainder sequence on the
primitive vectors, gcd uses a primitive PRS, interpolation uses
Newton's divided differences, and the cyclotomic polynomial Phi_r comes
from exact division of X^r - 1. Sums and products skip zero
coefficients, so building a polynomial term by term costs in proportion
to its terms. A squarefree decision is ``squarefree_parts``: Euclid on f
and f' in F_q certifies f squarefree when it can; otherwise the parts of
gcd(f, f') split in F_q, lifted by rational reconstruction and divided
out of f exactly, give the split, certified by its uniqueness, and only
where that fails does Yun's algorithm run over Q. ``radical`` and
``rational_roots`` read it. ``criteria.critical_structure`` first asks
the value polynomial of the roots of P'/lc(P') modulo a prime below
2^15, which certifies P' squarefree, the critical values distinct and P
squarefree at once, and calls ``squarefree_parts`` only for what that
image leaves open; the radical's image is then read off the first. The
image comes from power sums: Newton's identities give the power sums of
the roots, the traces of P^k mod r, by baby steps and giant steps, give
those of the values, and Newton's identities again give the
coefficients. Each product mod r is one product of residue vectors
packed into one integer, folded back by a packed table of x^(l+i) mod r.
Rational roots come from roots modulo a small prime where the input
stays squarefree, lifted by Hensel's lemma. The test suite checks the
resultant against a Sylvester-determinant oracle.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence

Q = Fraction


def _ideg(cs: Sequence[int]) -> int:
    return len(cs) - 1


def _istrip(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


@dataclass(frozen=True, init=False)
class Poly:
    """Univariate polynomial over Q, immutable and hashable: ``content``
    times the primitive vector ``prim``. ``Poly(coeffs)`` takes ascending
    ints or Fractions, constant term first."""

    content: Fraction
    prim: tuple[int, ...]

    # construction

    def __new__(cls, coeffs: Iterable = ()) -> "Poly":
        cs = tuple(coeffs)
        if not all(isinstance(c, (int, Fraction)) for c in cs):
            raise TypeError("coefficients must be ints or Fractions")
        den = math.lcm(*(c.denominator for c in cs))
        return _poly([c.numerator * (den // c.denominator) for c in cs],
                     Q(1, den))

    @staticmethod
    def of(*coeffs) -> "Poly":
        """Build from ascending coefficients, constant term first."""
        return Poly(coeffs)

    @staticmethod
    def from_support(terms: dict[int, Fraction | int]) -> "Poly":
        return Poly(terms.get(e, 0) for e in range(max(terms, default=-1) + 1))

    # basic queries

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Ascending coefficients as Fractions, the top one nonzero."""
        c = self.content
        return tuple(c * x for x in self.prim)

    @property
    def is_zero(self) -> bool:
        return not self.prim

    @property
    def degree(self) -> int:
        """Degree, with degree(0) = -1."""
        return len(self.prim) - 1

    @property
    def lc(self) -> Fraction:
        if not self.prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def coeff(self, e: int) -> Fraction:
        return self.coeffs[e] if 0 <= e < len(self.prim) else Q(0)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.prim) if c)

    # ring operations

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if not other.prim:
            return self
        if not self.prim:
            return other
        # over the gcd of the contents, add the nonzero terms of the
        # shorter vector into a copy of the longer
        g, ka, kb = _common_content(self.content, other.content)
        x, y = self.prim, other.prim
        if len(x) < len(y):
            x, ka, y, kb = y, kb, x, ka
        cs = [ka * c for c in x]
        for i, c in enumerate(y):
            if c:
                cs[i] += kb * c
        return _poly(cs, g)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return _poly(self.prim, -self.content, primitive=True)

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return _poly(self.prim, self.content * other, primitive=True)
        other = _coerce(other)
        x, y = self.prim, other.prim
        cs = [0] * (len(x) + len(y) - 1)
        # only nonzero pairs contribute, so a monomial factor costs one
        # product per term of the other
        right = [(j, b) for j, b in enumerate(y) if b]
        for i, a in enumerate(x):
            if a:
                for j, b in right:
                    cs[i + j] += a * b
        return _poly(cs, self.content * other.content, primitive=True)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out, base = Poly.of(1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def exact_div(self, other) -> "Poly":
        # by Gauss's lemma a primitive divisor over Q of a primitive
        # integer polynomial divides it over Z, with a primitive quotient
        other = _coerce(other)
        if not other.prim:
            raise ZeroDivisionError("polynomial division by zero")
        return _poly(_int_divexact(self.prim, other.prim),
                     self.content / other.content, primitive=True)

    # calculus and substitution

    def derivative(self) -> "Poly":
        return _poly([i * c for i, c in enumerate(self.prim)][1:],
                     self.content)

    def evaluate(self, x) -> Fraction:
        x = Q(x)
        v = x.denominator
        return self.content * Q(_screen(self.prim, x.numerator, v),
                                v ** max(self.degree, 0))

    def taylor_shift(self, a) -> "Poly":
        """P(X + a), by synthetic division on integers.

        With a = u/v and n = deg P, s_i = prim_i v^(n-i) are the
        coefficients of the integer polynomial v^n prim(X/v); shifting it
        by the integer u leaves P(X + a) = content v^(-n) sum s_j v^j X^j.
        """
        a = Q(a)
        n = self.degree
        if a == 0 or n < 1:
            return self
        u, v = a.numerator, a.denominator
        s = [c * v ** (n - i) for i, c in enumerate(self.prim)]
        for k in range(n):
            for i in range(n - 1, k - 1, -1):
                s[i] += u * s[i + 1]
        return _poly([c * v ** j for j, c in enumerate(s)],
                     self.content / v ** n)

    def scale_input(self, c) -> "Poly":
        """P(c X); with c = u/v, content v^(-n) times the integer
        polynomial sum prim_i u^i v^(n-i) X^i."""
        c = Q(c)
        n = self.degree
        u, v = c.numerator, c.denominator
        return _poly([x * u ** i * v ** (n - i)
                      for i, x in enumerate(self.prim)], self.content / v ** n)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return _poly(self.prim, Q(1, self.prim[-1]), primitive=True)

    def __str__(self) -> str:
        from .parser import format_poly

        return format_poly(self)


def _poly(ints: Sequence[int], content: Fraction = Q(1),
          primitive: bool = False) -> Poly:
    """content * ints as a Poly; unless the caller knows ints primitive
    with a positive last entry, its gcd and sign move into the content."""
    _istrip(ints)  # pops nothing from a tuple: those are prims
    if not ints or not content:
        ints, content = (), Q(1)
    elif not primitive:
        g = math.gcd(*ints) if ints[-1] > 0 else -math.gcd(*ints)
        if g != 1:
            ints, content = [c // g for c in ints], content * g
    p = object.__new__(Poly)
    object.__setattr__(p, "content", content)
    object.__setattr__(p, "prim", tuple(ints))
    return p


def _common_content(a: Fraction, b: Fraction) -> tuple[Fraction, int, int]:
    """(g, a/g, b/g), g the gcd of the numerators over the lcm of the
    denominators, so a/g and b/g are coprime integers."""
    num = math.gcd(a.numerator, b.numerator)
    den = math.lcm(a.denominator, b.denominator)
    return (Q(num, den), a.numerator // num * (den // a.denominator),
            b.numerator // num * (den // b.denominator))


def _coerce(v) -> Poly:
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.of(v)
    raise TypeError(f"cannot treat {type(v).__name__} as a polynomial")


X = Poly.of(0, 1)


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
    """Monic gcd over Q of p and q, not both zero, by the primitive PRS
    over the primitive vectors."""
    g = _int_gcd(p.prim, q.prim)
    return _poly(g, Q(1, g[-1]), primitive=True)


def _int_gcd(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """Primitive gcd of integer polynomials, not both zero, leading term
    positive. When deg A < deg B the first remainder is A itself, so the
    first step swaps the operands."""
    while B:
        R = _pseudo_rem(A, B)
        A = B
        if R:
            c = math.gcd(*R)
            B = [x // c for x in R]
        else:
            B = []
    # A is primitive, being a prim or a remainder over its content
    return list(A) if A[-1] > 0 else [-x for x in A]


# the three largest primes below 2^15, for the certificates modulo a
# prime: residues stay below 2^15, so every product of two residues fits
# in one 30-bit digit of a CPython int
GCD_PRIMES = (32749, 32719, 32717)


def _reduce_mod(f: Poly, q: int) -> list[int]:
    """f modulo a prime q that does not divide its content's denominator."""
    c = f.content.numerator * pow(f.content.denominator, -1, q) % q
    return _istrip([c * x % q for x in f.prim])


def _divmod_mod(a: Sequence[int], b: Sequence[int],
                p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a under division by a nonzero b, in F_p."""
    inv = pow(b[-1], -1, p)
    db = _ideg(b)
    low = b[:-1]
    rem = list(a)
    quo = [0] * max(len(rem) - db, 0)
    while len(rem) > db:
        # the top term cancels exactly, so it is dropped rather than computed
        lead = rem.pop() * inv % p
        if lead:
            shift = len(rem) - db
            quo[shift] = lead
            rem[shift:] = [(x - lead * y) % p
                           for x, y in zip(rem[shift:], low)]
        _istrip(rem)
    return quo, rem


def _rem_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Remainder of a under division by a nonzero b, in F_p."""
    return _divmod_mod(a, b, p)[1]


def _derivative_mod(a: Sequence[int], p: int) -> list[int]:
    return _istrip([i * c % p for i, c in enumerate(a)][1:])


def _gcd_mod(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Monic gcd in F_p of a and b, a nonzero, by Euclid. In the usual
    step deg a = deg b + 1, and the remainder a - (q1 x + q0) b is taken
    in one pass."""
    while b:
        n = len(b)
        if len(a) == n + 1 and n > 1:
            inv = pow(b[-1], -1, p)
            q1 = a[-1] * inv % p
            q0 = (a[-2] - q1 * b[-2]) * inv % p
            # the top two terms cancel
            a, b = b, _istrip([(x - q1 * y - q0 * z) % p for x, y, z
                               in zip(a, [0] + b[:-2], b[:-1])])
        else:
            a, b = b, _rem_mod(a, b, p)
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _derivative_gcd_mod(f: Sequence[int], q: int) -> list[int]:
    """gcd(f, f') in F_q, monic, for f whose leading coefficient q does
    not divide."""
    a = [c % q for c in f]
    return _gcd_mod(a, _derivative_mod(a, q), q)


def _squarefree_mod(f: Sequence[int], q: int) -> bool:
    """For nonzero f: q does not divide lc(f), and gcd(f, f') = 1 in F_q."""
    return f[-1] % q != 0 and len(_derivative_gcd_mod(f, q)) == 1


def _split_mod(g: Sequence[int], q: int) -> list[list[int]]:
    """Yun's algorithm in F_q on monic g of degree below q: the monic
    g_1, g_2, .. with g = prod g_i^i, [1] for a multiplicity that does
    not occur. Below degree q the derivative of a nonconstant factor is
    nonzero, so the steps are those over Q."""
    def minus(x: list[int], y: list[int]) -> list[int]:
        x = x + [0] * (len(y) - len(x))
        for i, c in enumerate(y):
            x[i] = (x[i] - c) % q
        return _istrip(x)

    dg = _derivative_mod(g, q)
    a = _gcd_mod(g, dg, q)
    c = _divmod_mod(g, a, q)[0]
    d = minus(_divmod_mod(dg, a, q)[0], _derivative_mod(c, q))
    parts = []
    while len(c) > 1:
        h = _gcd_mod(c, d, q)
        parts.append(h)
        c = _divmod_mod(c, h, q)[0]
        d = minus(_divmod_mod(d, h, q)[0], _derivative_mod(c, q))
    return parts


def _rational_mod(c: int, q: int) -> Fraction:
    """The fraction u/v with u = c v mod q and |u|, v <= sqrt(q/2), which
    is unique when it exists (rational reconstruction by the extended
    Euclidean algorithm; von zur Gathen and Gerhard, Modern Computer
    Algebra, sec. 5.10); ValueError when none exists."""
    bound = math.isqrt(q // 2)
    r0, r1, t0, t1 = q, c, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        raise ValueError("no rational reconstruction")
    return Q(r1, t1)


# residue vectors travel packed into one int, one unsigned long long
# (at least 64 bits) per coefficient, so array("Q") packs and unpacks
# them in C
_SLOT_BYTES = array("Q").itemsize


def _pack(v: Sequence[int]) -> int:
    return int.from_bytes(array("Q", v).tobytes(), sys.byteorder)


def _unpack(x: int, n: int) -> array:
    return array("Q", x.to_bytes(_SLOT_BYTES * n, sys.byteorder))


def _value_poly_mod(r: Sequence[int], a: Sequence[int], q: int) -> list[int]:
    """Ascending coefficients in F_q of the product of t - a(alpha) over
    the roots alpha of r, for r monic of degree l < q and deg a < l.

    The product is the characteristic polynomial of multiplication by a
    in F_q[x]/(r), so its k-th power sum is the trace s_k = Tr(a^k mod r).
    Newton's identities give the power sums p_j of the roots of r with no
    division, and the coefficients from the s_k with a division by each
    k <= l < q (power projection; Bostan, Flajolet, Salvy and Schost,
    J. Symb. Comput. 41(1), 2006). The leading coefficient is set to 1,
    not computed, so the result is monic of degree l by construction.

    The traces come by baby steps and giant steps (V. Shoup, J. Symb.
    Comput. 17, 1994). The Gram matrix of the trace form on the basis
    1, x, .., x^(l-1) is the Hankel matrix H = (p_(u+v)), so with
    A = a^m mod r, s_(jm+i) = Tr(a^i A^j) = <H (a^i mod r), A^j mod r>:
    m - 1 products build a, .., a^m, m - 1 more the H a^i, about l/m the
    A^j, and each trace is one dot product, about 2 sqrt(l) products for
    m near sqrt(l) instead of l - 1. With m = 1 the loop is the plain one,
    s_j = <(p_0 .. p_(l-1)), a^j mod r>, which l <= 8 takes.

    Each product is one product of packed vectors (Kronecker
    substitution; D. Harvey, J. Symb. Comput. 44(10), 2009). A product
    mod r folds its coefficients h_i of x^(l+i), reduced mod q, back with
    a packed table whose row i is congruent to x^(l+i) mod r. Row 0 is
    -r mod q; row i + 1 is x times row i, its top slot t reduced mod q,
    plus t (-r mod q). The rows are not reduced slot by slot; each slot,
    below 2^31 + (q - 1)^2 < 2^32 after that step, is cut to c h + b,
    where b is its low 30 bits, h < 4 the rest and c = 2^30 mod q, so
    it stays below 3q + 2^30 < 2^31.

    No slot ever carries into the next, for every l < q < 2^15: a product
    slot of two residue vectors of length at most 2l - 1 and l is a sum of
    at most l products of residues, at most l (q - 1)^2 < 2^45, and a fold
    adds at most (l - 1)(q - 1) 2^31 < 2^61 to it, below 2^62 in all,
    inside a 64-bit slot.
    """
    l = len(r) - 1
    m = max(1, math.isqrt(l) - 1)  # baby steps
    # Newton's identities for monic f of degree l with power sums s:
    # k f_(l-k) + sum_(i=1..k) f_(l-k+i) s_i = 0 for k <= l, with f_l = 1;
    # past l, p_k = -sum_(j<l) r_j p_(k-l+j), since r vanishes at each root
    p = [l]
    for k in range(1, l):
        p.append(-(k * r[l - k] + sum(map(mul, r[l - k + 1:l], p[1:k]))) % q)
    if m > 1:
        for k in range(l, 2 * l - 1):
            p.append(-sum(map(mul, r, p[k - l:k])) % q)
    bits = 8 * _SLOT_BYTES
    width = bits * l
    low = (1 << width) - 1
    top = width - bits
    cut = _pack([(1 << 30) - 1] * l)
    c = (1 << 30) % q
    row = neg = _pack([-x % q for x in r[:-1]])
    table = [row]
    for _ in range(l - 2):
        row = (row << bits & low) + (row >> top) % q * neg
        row = (row >> 30 & cut) * c + (row & cut)
        table.append(row)

    def times(v: list[int], packed: int) -> list[int]:
        prod = _pack(v) * packed
        high = [h % q for h in _unpack(prod >> width, l - 1)]
        return [x % q
                for x in _unpack(sum(map(mul, high, table), prod & low), l)]

    v = list(a) + [0] * (l - len(a))
    packed = _pack(v)
    ws = [p[:l]]  # the H a^i mod r; H 1 is the first column of H
    if m > 1:
        hankel = _pack(p)
        for _ in range(m - 1):
            # slots l - 1 .. 2l - 2 of p times v reversed are H v
            ws.append([x % q for x in _unpack(
                hankel * _pack(v[::-1]) >> top & low, l)])
            v = times(v, packed)
        packed = _pack(v)
    s = [w[0] for w in ws]  # Tr(a^i), the first slot of H a^i
    for j in range(l // m):
        if j:
            v = times(v, packed)
        s += [sum(map(mul, w, v)) % q for w in ws]
    sep = [0] * l + [1]
    for k in range(1, l + 1):
        sep[l - k] = (-sum(map(mul, sep[l - k + 1:], s[1:k + 1]))
                      * pow(k, -1, q) % q)
    return sep


# the last image separation_mod_p built in full, as (P, q, rad mod q,
# image): critical_structure asks for the image of P'/lc(P') first and,
# when P' has a repeated factor, next for that of its radical, which is
# read off the first
_last_image: Optional[tuple] = None


def separation_mod_p(rad: Poly, p: Poly) -> Optional[tuple[bool, bool]]:
    """Whether the value polynomial modulo a prime is squarefree, and
    whether its constant term is nonzero.

    For monic ``rad`` of degree l the value polynomial is
    sep(t) = Res_X(rad, t - P), the product of t - P(alpha) over the
    roots alpha of rad, counted with multiplicity. With q the first prime
    of ``GCD_PRIMES`` above l that divides neither content denominator
    (so no coefficient's, as ``prim`` is primitive), every P(alpha) is
    integral at q, and sep mod q is the characteristic polynomial of
    multiplication by P in F_q[x]/(rad), built by ``_value_poly_mod``,
    monic of degree l. By the Chinese remainder theorem on the primary
    components of that ring, it is the product of t - P(beta) over the
    roots beta of rad mod q, with multiplicity.

    So an image squarefree mod q certifies three things: rad mod q is
    squarefree, hence so is rad over Q, since by Gauss's lemma a square
    factor of the monic rad is integral at q and stays one mod q; and the
    monic sep is squarefree over Q, so the values are distinct. A nonzero
    constant term (-1)^l Res(rad, P) mod q certifies that no root of rad
    is a root of P. False in either place means only that q certified
    nothing; None means no prime was usable.

    The image is multiplicative in rad, since Res_X(r e, t - P) =
    Res_X(r, t - P) Res_X(e, t - P) for monic r and e. So when the last
    image built in full was of the same P at the same q, for a multiple
    R of rad mod q, the image of rad is that one divided in F_q[t] by the
    image of the cofactor e = R / rad, which is small: for R = P'/lc(P')
    = prod S_m^m and rad = prod S_m, e = prod S_m^(m-1).
    """
    global _last_image
    l = rad.degree
    for q in GCD_PRIMES:
        if q <= l or rad.content.denominator % q == 0 \
                or p.content.denominator % q == 0:
            continue
        r = _reduce_mod(rad, q)
        a = _reduce_mod(p, q)
        sep = None
        last = _last_image
        if last and last[1] == q and len(last[2]) > len(r) and last[0] == p:
            e, rest = _divmod_mod(last[2], r, q)
            if not rest:
                sep = _divmod_mod(last[3], _value_poly_mod(
                    e, _rem_mod(a, e, q), q), q)[0]
        if sep is None:
            sep = _value_poly_mod(r, _rem_mod(a, r, q), q)
            _last_image = (p, q, r, sep)
        return _squarefree_mod(sep, q), sep[0] != 0
    return None


def resultant(p: Poly, q: Poly) -> Fraction:
    """Res(p, q) over Q.

    Subresultant PRS (single extra division per step keeps the integers
    small) on the primitive vectors, corrected by the contents through
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
    return (p.content**dq * q.content**dp
            * _int_resultant(p.prim, q.prim))


def _int_resultant(A: Sequence[int], B: Sequence[int]) -> int:
    """Res(A, B) for primitive integer polynomials of positive degree."""
    s = 1
    if _ideg(A) < _ideg(B):
        if _ideg(A) % 2 == 1 and _ideg(B) % 2 == 1:
            s = -s
        A, B = B, A
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
            return s * (num // h ** (dA - 1) if dA > 1 else num * h ** (1 - dA))


def squarefree_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree factors of p with multiplicities, ascending.

    With f = p.prim and q = ``GCD_PRIMES[0]``, when q does not divide
    lc(f) and deg f < q, Euclid in F_q gives g = gcd(f, f'). If g = 1, f
    is squarefree over Q, since a square factor would stay one mod q, so
    the answer is p.monic() alone and no gcd over Q is taken. Otherwise
    f = prod f_i^i in F_q gives g = prod f_i^(i-1), and below degree q
    Yun's algorithm splits g in F_q: its part of multiplicity i - 1 is
    f_i. Each small f_i, i >= 2, is lifted to h_i over Q by rational
    reconstruction of its coefficients, and h_1 = f / prod h_i^i is
    divided out exactly over Z. If that division is exact, the h_i are
    f's squarefree parts over Q: they reduce to the f_i mod q, which are
    squarefree and pairwise coprime, and a square or common factor over Q
    would stay one mod q, as no lc(h_i) is divisible by q; the squarefree
    factorization is unique. Where reconstruction finds no fraction or the
    division is not exact, Yun's algorithm splits p over Q, as it does
    when q divides lc(f). The product of factor**mult over the result is
    p.monic().
    """
    if p.degree < 1:
        raise ValueError("squarefree splitting needs degree at least 1")
    p = p.monic()
    f, q = p.prim, GCD_PRIMES[0]
    if f[-1] % q and len(f) <= q:
        g_mod = _derivative_gcd_mod(f, q)
        if len(g_mod) == 1:
            return [(p, 1)]
        try:
            return _lift_parts(f, _split_mod(g_mod, q), q)
        except ValueError:
            pass  # a part has no small lift: Yun's algorithm decides
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


def _lift_parts(f: Sequence[int], parts: list[list[int]],
                q: int) -> list[tuple[Poly, int]]:
    """The squarefree parts of primitive f over Q from the parts of
    gcd(f, f') in F_q, parts[k] of multiplicity k + 1 there and k + 2 in
    f, as ``squarefree_parts`` proves; ValueError when a lift fails."""
    out = []
    for i, part in enumerate(parts, start=2):
        if len(part) > 1:
            h = Poly([_rational_mod(c, q) for c in part])
            for _ in range(i):
                f = _int_divexact(f, h.prim)
            out.append((h, i))
    if len(f) > 1:
        out.insert(0, (_poly(f, Q(1, f[-1]), primitive=True), 1))
    return out


def radical(p: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of p, the factors
    of ``squarefree_parts`` (certified modulo q first, else Yun)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no radical")
    return math.prod((f for f, _ in squarefree_parts(p)), start=Poly.of(1))


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
    return Poly(acc)


def _int_divexact(A: Sequence[int], B: Sequence[int]) -> list[int]:
    """A / B for integer polynomials, raising ValueError unless B divides A over Z."""
    R = list(A)
    db = _ideg(B)
    out = [0] * (len(A) - db)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = R[k + db] // B[-1]
        if c:
            for i, b in enumerate(B):
                R[k + i] -= c * b
    if any(R):
        raise ValueError("division is not exact")
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

    With f = p.prim, s the ``prim`` of its ``radical`` and a = lc(s), the
    rational roots of p are the Y/a for the integer roots Y of the monic
    g(Y) = a^(e-1) s(Y/a), e = deg s. Each root u/v found is divided out
    of f as the factor vX - u as often as f vanishes there.
    """
    if p.is_zero:
        raise ValueError("every rational is a root of the zero polynomial")
    k = p.support()[0]
    f = list(p.prim[k:])
    roots: list[tuple[Fraction, int]] = [(Q(0), k)] if k else []
    if len(f) < 2:
        return roots
    s = radical(_poly(f, primitive=True)).prim
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
