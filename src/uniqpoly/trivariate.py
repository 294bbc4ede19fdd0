"""Homogeneous trivariate polynomials over Q.

Sparse representation: ``terms[(i, j, k)]`` is the coefficient of
X^i Y^j Z^k, with i + j + k equal across all terms. These carry the
projective curves cut out by value sharing; only exact operations are
provided (arithmetic, partials, division by powers of Z).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .polynomials import Poly

Q = Fraction

Exp = tuple[int, int, int]


class TriPoly:
    """Homogeneous polynomial in X, Y, Z with Fraction coefficients."""

    __slots__ = ("terms", "degree")

    def __init__(self, terms: Mapping[Exp, Fraction | int]):
        # a Mapping holds each exponent once, so nothing is summed here
        clean: dict[Exp, Fraction] = {}
        deg = None
        for e, c in terms.items():
            if type(c) is not Fraction:
                c = Q(c)
            if not c:
                continue
            i, j, k = e
            if i < 0 or j < 0 or k < 0:
                raise ValueError("negative exponent")
            d = i + j + k
            if deg is None:
                deg = d
            elif d != deg:
                raise ValueError("terms of unequal total degree")
            clean[e] = c
        self.terms = clean
        self.degree = deg

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, TriPoly) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "TriPoly") -> "TriPoly":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Q(0)) + c
        return TriPoly(out)

    def __neg__(self) -> "TriPoly":
        return TriPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "TriPoly") -> "TriPoly":
        return self + (-other)

    def __mul__(self, other) -> "TriPoly":
        if isinstance(other, (int, Fraction)):
            return TriPoly({e: c * other for e, c in self.terms.items()})
        out: dict[Exp, Fraction] = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                out[e] = out.get(e, Q(0)) + c1 * c2
        return TriPoly(out)

    __rmul__ = __mul__

    def partial(self, var: str) -> "TriPoly":
        axis = "xyz".index(var.lower())
        out: dict[Exp, Fraction] = {}
        for e, c in self.terms.items():
            if e[axis] == 0:
                continue
            ne = list(e)
            ne[axis] -= 1
            out[tuple(ne)] = c * e[axis]
        return TriPoly(out)

    def z_multiplicity(self) -> int:
        """Largest k with Z^k dividing self (0 for the zero form)."""
        if self.is_zero:
            return 0
        return min(e[2] for e in self.terms)

    def divide_z(self, k: int) -> "TriPoly":
        if any(e[2] < k for e in self.terms):
            raise ValueError(f"not divisible by Z^{k}")
        return TriPoly({(i, j, kk - k): c for (i, j, kk), c in self.terms.items()})

    def __repr__(self) -> str:
        if self.is_zero:
            return "TriPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            bits.append(f"{self.terms[e]}*X^{e[0]}Y^{e[1]}Z^{e[2]}")
        return "TriPoly(" + " + ".join(bits) + ")"


def tri(terms: Mapping[Exp, Fraction | int]) -> TriPoly:
    return TriPoly(terms)


def homogenize_x(p: Poly, degree: int) -> TriPoly:
    """p(X) spread to a degree-d form in X and Z."""
    if p.degree > degree:
        raise ValueError("degree too small to homogenize into")
    return TriPoly({(e, 0, degree - e): c for e, c in zip(range(len(p.coeffs)), p.coeffs)})


def homogenize_y(p: Poly, degree: int) -> TriPoly:
    if p.degree > degree:
        raise ValueError("degree too small to homogenize into")
    return TriPoly({(0, e, degree - e): c for e, c in zip(range(len(p.coeffs)), p.coeffs)})
