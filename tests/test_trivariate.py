"""Trivariate forms: arithmetic, partials, homogenization, Z-division."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from uniqpoly.polynomials import Poly, X
from uniqpoly.trivariate import TriPoly, homogenize_x, homogenize_y, tri


def test_normalization_and_equality():
    a = tri({(2, 0, 0): 1, (0, 1, 1): Q(1, 2)})
    b = tri({(0, 1, 1): Q(1, 2), (2, 0, 0): 1, (1, 1, 0): 0})
    assert a == b
    assert a.degree == 2
    assert tri({}).is_zero
    with pytest.raises(ValueError):
        tri({(1, 0, 0): 1, (2, 0, 0): 1})


def test_arithmetic_and_partials():
    f = tri({(2, 0, 0): 1, (0, 2, 0): -1})  # X^2 - Y^2
    g = tri({(1, 1, 0): 3})
    assert (f + g).coeff((1, 1, 0)) == 3
    assert (f * g).degree == 4
    assert f.partial("x") == tri({(1, 0, 0): 2})
    assert f.partial("z").is_zero
    assert f.evaluate(3, 2, 7) == 5


def test_euler_identity_random_forms():
    rng = random.Random(11)
    for _ in range(50):
        d = rng.randint(1, 6)
        terms = {}
        for _ in range(rng.randint(1, 8)):
            i = rng.randint(0, d)
            j = rng.randint(0, d - i)
            terms[(i, j, d - i - j)] = terms.get((i, j, d - i - j), 0) + rng.randint(-5, 5)
        f = tri(terms)
        if f.is_zero:
            continue
        euler = (
            tri({(1, 0, 0): 1}) * f.partial("x")
            + tri({(0, 1, 0): 1}) * f.partial("y")
            + tri({(0, 0, 1): 1}) * f.partial("z")
        )
        assert euler == f * d


def test_homogenize_round_trip():
    p = X**3 - 2 * X + 5
    h = homogenize_x(p, 5)
    assert h.degree == 5
    assert h.evaluate(Q(7), 0, 1) == p.evaluate(7)
    hy = homogenize_y(p, 3)
    assert hy.evaluate(0, Q(-2), 1) == p.evaluate(-2)
    with pytest.raises(ValueError):
        homogenize_x(p, 2)


def test_z_divisibility():
    f = tri({(2, 0, 1): 1, (0, 1, 2): -3})
    assert f.z_multiplicity() == 1
    g = f.divide_z(1)
    assert g == tri({(2, 0, 0): 1, (0, 1, 1): -3})
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
