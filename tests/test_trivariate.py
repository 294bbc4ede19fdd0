"""Trivariate forms: arithmetic, partials, homogenization, Z-division."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from uniqpoly.polynomials import Poly, X
from uniqpoly.trivariate import TriPoly, homogenize_x, homogenize_y


def test_normalization_and_equality():
    a = TriPoly({(2, 0, 0): 1, (0, 1, 1): Q(1, 2)})
    b = TriPoly({(0, 1, 1): Q(1, 2), (2, 0, 0): 1, (1, 1, 0): 0})
    assert a == b
    assert a.degree == 2
    assert TriPoly({}).is_zero
    with pytest.raises(ValueError):
        TriPoly({(1, 0, 0): 1, (2, 0, 0): 1})


def test_arithmetic_and_partials():
    f = TriPoly({(2, 0, 0): 1, (0, 2, 0): -1})  # X^2 - Y^2
    g = TriPoly({(1, 1, 0): 3})
    assert (f + g).terms[(1, 1, 0)] == 3
    assert (f * g).degree == 4
    assert f.partial("x") == TriPoly({(1, 0, 0): 2})
    assert f.partial("z").is_zero


def test_euler_identity_random_forms():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(1, 6)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            i = rng.randint(0, d)
            j = rng.randint(0, d - i)
            terms[(i, j, d - i - j)] = terms.get((i, j, d - i - j), 0) + rng.randint(-5, 5)
        f = TriPoly(terms)
        if f.is_zero:
            continue
        euler = (
            TriPoly({(1, 0, 0): 1}) * f.partial("x")
            + TriPoly({(0, 1, 0): 1}) * f.partial("y")
            + TriPoly({(0, 0, 1): 1}) * f.partial("z")
        )
        assert euler == f * d


def test_homogenize_round_trip():
    p = X**3 - 2 * X + 5
    h = homogenize_x(p, 5)
    assert h.degree == 5
    assert h.terms == {(3, 0, 2): 1, (1, 0, 4): -2, (0, 0, 5): 5}
    hy = homogenize_y(p, 3)
    assert hy.terms == {(0, 3, 0): 1, (0, 1, 2): -2, (0, 0, 3): 5}
    with pytest.raises(ValueError):
        homogenize_x(p, 2)


def test_z_divisibility():
    f = TriPoly({(2, 0, 1): 1, (0, 1, 2): -3})
    assert f.z_multiplicity() == 1
    g = f.divide_z(1)
    assert g == TriPoly({(2, 0, 0): 1, (0, 1, 1): -3})
    with pytest.raises(ValueError):
        f.divide_z(2)


def test_constructor_checks_and_coefficient_type():
    with pytest.raises(ValueError, match="unequal"):
        TriPoly({(1, 0, 0): 1, (0, 0, 2): 1})
    with pytest.raises(ValueError, match="negative"):
        TriPoly({(2, -1, 0): 1})
    # zero coefficients are dropped before the checks see them
    f = TriPoly({(1, 0, 0): 2, (0, 0, 5): 0, (2, -1, 0): Q(0)})
    assert f.terms == {(1, 0, 0): 2}
    assert all(type(c) is Q for c in f.terms.values())
    assert TriPoly({(0, 0, 1): 0}).is_zero
    assert TriPoly({(0, 0, 1): 0}).degree is None


def test_coefficients_must_be_ints_or_fractions():
    # a float or a string would enter through Fraction's own parsing
    for bad in (0.5, "1/2"):
        with pytest.raises(TypeError, match="coefficients must be ints or Fractions"):
            TriPoly({(1, 0, 0): bad})
    with pytest.raises(TypeError):
        TriPoly({(1, 0, 0): 1}) * 0.5


class _ReferenceTri:
    """The Fraction-dict form the integer-core class replaced, kept as an
    oracle: ``terms[(i, j, k)]`` is the Fraction coefficient of
    X^i Y^j Z^k."""

    __slots__ = ("terms", "degree")

    def __init__(self, terms):
        clean = {}
        deg = None
        for e, c in terms.items():
            if type(c) is not Q:
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
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, _ReferenceTri) and self.terms == other.terms

    def __add__(self, other):
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Q(0)) + c
        return _ReferenceTri(out)

    def __neg__(self):
        return _ReferenceTri({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Q)):
            return _ReferenceTri({e: c * other for e, c in self.terms.items()})
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                e = (i1 + i2, j1 + j2, k1 + k2)
                out[e] = out.get(e, Q(0)) + c1 * c2
        return _ReferenceTri(out)

    __rmul__ = __mul__

    def partial(self, var):
        axis = "xyz".index(var.lower())
        out = {}
        for e, c in self.terms.items():
            if e[axis] == 0:
                continue
            ne = list(e)
            ne[axis] -= 1
            out[tuple(ne)] = c * e[axis]
        return _ReferenceTri(out)

    def z_multiplicity(self):
        if self.is_zero:
            return 0
        return min(e[2] for e in self.terms)

    def divide_z(self, k):
        if any(e[2] < k for e in self.terms):
            raise ValueError(f"not divisible by Z^{k}")
        return _ReferenceTri({(i, j, kk - k): c for (i, j, kk), c in self.terms.items()})

    def __repr__(self):
        if self.is_zero:
            return "TriPoly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            bits.append(f"{self.terms[e]}*X^{e[0]}Y^{e[1]}Z^{e[2]}")
        return "TriPoly(" + " + ".join(bits) + ")"


def _random_terms(rng, d):
    """A random degree-d form: rational coefficients, a leading term of
    either sign, a common factor now and then, and the zero form."""
    if rng.random() < 0.1:
        return {}
    scale = rng.choice([1, 1, 6, Q(-4, 9)])
    terms = {}
    for _ in range(rng.randint(1, 7)):
        i = rng.randint(0, d)
        j = rng.randint(0, d - i)
        terms[(i, j, d - i - j)] = scale * Q(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 10]))
    return terms


def _agree(new, ref):
    assert new.terms == ref.terms
    assert all(type(c) is Q for c in new.terms.values())
    assert repr(new) == repr(ref)
    assert new.degree == ref.degree
    assert new.is_zero == ref.is_zero
    assert new.z_multiplicity() == ref.z_multiplicity()


def test_integer_core_matches_the_fraction_reference():
    rng = random.Random(19)
    for _ in range(300):
        d1, d2 = rng.randint(0, 5), rng.randint(0, 5)
        ta, tb, tc = _random_terms(rng, d1), _random_terms(rng, d1), _random_terms(rng, d2)
        a, ra = TriPoly(ta), _ReferenceTri(ta)
        b, rb = TriPoly(tb), _ReferenceTri(tb)
        c, rc = TriPoly(tc), _ReferenceTri(tc)
        for new, ref in ((a, ra), (b, rb), (-a, -ra), (a + b, ra + rb),
                         (a - b, ra - rb), (a - a, ra - ra), (a * c, ra * rc),
                         (c * a, rc * ra)):
            _agree(new, ref)
            for var in "xyz":
                _agree(new.partial(var), ref.partial(var))
            k = ref.z_multiplicity()
            _agree(new.divide_z(k), ref.divide_z(k))
            if not ref.is_zero:
                with pytest.raises(ValueError):
                    new.divide_z(k + 1)
        for s in (0, 1, -1, 3, Q(-5, 6)):
            _agree(a * s, ra * s)
            _agree(s * a, s * ra)
        # == is exact and canonical: it agrees with the reference on
        # unequal pairs, on forms rebuilt from their terms, and on equal
        # forms that differ in content and primitive part
        assert (a == b) == (ra == rb)
        assert (a == c) == (ra == rc)
        assert a == TriPoly(a.terms) and a == TriPoly(ra.terms)
        assert (a * 2) * Q(1, 2) == a
        assert a + b == b + a
        if not ra.is_zero:
            assert (a * 2 == a) is False


def test_sign_and_content_are_canonical():
    f = TriPoly({(2, 0, 0): -6, (0, 1, 1): Q(9, 2)})
    assert f.content == Q(-3, 2)
    assert f.prim == {(2, 0, 0): 4, (0, 1, 1): -3}
    assert -f == TriPoly({(2, 0, 0): 6, (0, 1, 1): Q(-9, 2)})
    assert (-f).prim == f.prim
    zero = f - f
    assert zero.prim == {} and zero.content == 1 and zero.degree is None
    assert repr(zero) == "TriPoly(0)"
