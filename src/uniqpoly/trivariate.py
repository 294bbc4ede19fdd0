"""Homogeneous trivariate polynomials over Q: the projective curves cut
out by value sharing.

A TriPoly is stored as a Poly is: a Fraction ``content`` times ``prim``,
a primitive integer dict from (i, j, k) to the coefficient of X^i Y^j Z^k,
free of zeros, homogeneous of degree ``degree`` and positive at its
largest key (the zero form is 1 times {}, of degree None), so ``==`` is
exact. Ring operations, partials and division by powers of Z run on the
integers; by Gauss's lemma a product of primitive forms is primitive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from .polynomials import Poly, _common_content

Exp = tuple[int, int, int]


class TriPoly:
    """Homogeneous polynomial in X, Y, Z over Q. ``TriPoly(terms)`` takes
    a map from exponents to ints or Fractions."""

    __slots__ = ("content", "prim", "degree")

    def __new__(cls, terms: Mapping[Exp, Fraction | int]) -> "TriPoly":
        # a Mapping holds each exponent once, so nothing is summed here
        if not all(isinstance(c, (int, Fraction)) for c in terms.values()):
            raise TypeError("coefficients must be ints or Fractions")
        clean = {e: c for e, c in terms.items() if c}
        if any(min(e) < 0 for e in clean):
            raise ValueError("negative exponent")
        if len({sum(e) for e in clean}) > 1:
            raise ValueError("terms of unequal total degree")
        den = math.lcm(*(c.denominator for c in clean.values()))
        return _tri({e: c.numerator * (den // c.denominator)
                     for e, c in clean.items()}, Fraction(1, den))

    @property
    def is_zero(self) -> bool:
        return not self.prim

    def __eq__(self, other) -> bool:
        return (isinstance(other, TriPoly) and self.content == other.content
                and self.prim == other.prim)

    def __add__(self, other: "TriPoly") -> "TriPoly":
        if not self.prim:
            return other
        if not other.prim:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        g, ka, kb = _common_content(self.content, other.content)
        out = {e: ka * c for e, c in self.prim.items()}
        for e, c in other.prim.items():
            out[e] = out.get(e, 0) + kb * c
        return _tri(out, g)

    def __neg__(self) -> "TriPoly":
        return _tri(self.prim, -self.content, primitive=True)

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        return self + (-other)

    def __mul__(self, other) -> "TriPoly":
        if isinstance(other, (int, Fraction)):
            return _tri(self.prim, self.content * other, primitive=True)
        if not isinstance(other, TriPoly):
            return NotImplemented
        out: dict[Exp, int] = {}
        for (i1, j1, k1), c1 in self.prim.items():
            for (i2, j2, k2), c2 in other.prim.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                out[e] = out.get(e, 0) + c1 * c2
        return _tri({e: c for e, c in out.items() if c},
                    self.content * other.content, primitive=True)

    __rmul__ = __mul__

    def partial(self, var: str) -> "TriPoly":
        axis = "xyz".index(var.lower())
        di, dj, dk = (int(a == axis) for a in range(3))
        out = {(e[0] - di, e[1] - dj, e[2] - dk): c * e[axis]
               for e, c in self.prim.items() if e[axis]}
        return _tri(out, self.content)

    def z_multiplicity(self) -> int:
        """Largest k with Z^k dividing self (0 for the zero form)."""
        return min((e[2] for e in self.prim), default=0)

    def divide_z(self, k: int) -> "TriPoly":
        if any(e[2] < k for e in self.prim):
            raise ValueError(f"not divisible by Z^{k}")
        # a shift of the Z exponent keeps the order of the keys
        return _tri({(i, j, kk - k): c for (i, j, kk), c in self.prim.items()},
                    self.content, primitive=True)

    def __repr__(self) -> str:
        # each coefficient a x / b, content a/b in lowest terms, printed
        # as str(Fraction) would print it: gcd(a x, b) = gcd(x, b)
        a, b = self.content.numerator, self.content.denominator

        def coeff(x: int) -> str:
            g = math.gcd(x, b)
            return str(a * x // g) if g == b else f"{a * x // g}/{b // g}"

        return "TriPoly(" + (" + ".join(
            f"{coeff(c)}*X^{i}Y^{j}Z^{k}"
            for (i, j, k), c in sorted(self.prim.items(), reverse=True))
            or "0") + ")"


def _tri(ints: Mapping[Exp, int], content: Fraction,
         primitive: bool = False) -> TriPoly:
    """content * ints as a TriPoly; unless the caller knows ints
    primitive, free of zeros and positive at the largest key, its zeros
    go and its gcd and sign move into the content."""
    if not primitive:
        ints = {e: c for e, c in ints.items() if c}
    if not ints or not content:
        ints, content = {}, Fraction(1)
    elif not primitive:
        g = math.gcd(*ints.values())
        if ints[max(ints)] < 0:
            g = -g
        if g != 1:
            ints, content = {e: c // g for e, c in ints.items()}, content * g
    t = object.__new__(TriPoly)
    t.content, t.prim = content, ints
    t.degree = sum(next(iter(ints))) if ints else None
    return t


def homogenize_x(p: Poly, degree: int) -> TriPoly:
    """p(X) spread to a degree-d form in X and Z."""
    if p.degree > degree:
        raise ValueError("degree too small to homogenize into")
    # the top power of X is the largest key, and p.prim ends positive
    return _tri({(e, 0, degree - e): c for e, c in enumerate(p.prim) if c},
                p.content, primitive=True)


def homogenize_y(p: Poly, degree: int) -> TriPoly:
    if p.degree > degree:
        raise ValueError("degree too small to homogenize into")
    return _tri({(0, e, degree - e): c for e, c in enumerate(p.prim) if c},
                p.content, primitive=True)
