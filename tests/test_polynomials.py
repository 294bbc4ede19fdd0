"""Core polynomial arithmetic: ring ops, gcd, resultant, squarefree splitting.

The resultant implementation is checked against an independent Sylvester
determinant oracle (Gaussian elimination over Fraction, written here and
nowhere else).
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

from uniqpoly.polynomials import (
    Poly,
    X,
    lagrange_interpolate,
    poly_gcd,
    radical,
    rational_roots,
    resultant,
    squarefree_parts,
)


# oracle: resultant as the Sylvester matrix determinant

def sylvester_resultant(p: Poly, q: Poly) -> Q:
    m, n = p.degree, q.degree
    assert m >= 0 and n >= 0
    if m == 0 and n == 0:
        return Q(1)
    size = m + n
    # row i < n holds p shifted by i, later rows hold q shifted
    rows = []
    pd = list(reversed(p.coeffs))
    qd = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([Q(0)] * i + pd + [Q(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Q(0)] * i + qd + [Q(0)] * (size - i - n - 1))
    det = Q(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Q(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] * inv
            if f == 0:
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


def random_poly(rng: random.Random, max_deg: int, coef_bound: int = 9) -> Poly:
    deg = rng.randint(0, max_deg)
    cs = [rng.randint(-coef_bound, coef_bound) for _ in range(deg + 1)]
    if cs[-1] == 0:
        cs[-1] = rng.choice([1, -1, 2, -2])
    return Poly.of(*cs)


def test_ring_basics():
    p = X**2 - 2
    assert p.degree == 2
    assert p.coeff(0) == -2 and p.coeff(1) == 0 and p.coeff(2) == 1
    assert (p + 2).coeffs == (X**2).coeffs
    assert (p * 0).is_zero
    assert p.support() == (0, 2)
    assert (X**4 - 4 * X).support() == (1, 4)
    assert p.evaluate(3) == 7
    assert p.evaluate(Q(1, 2)) == Q(-7, 4)


def test_divmod_roundtrip_pins():
    p = X**4 - 4 * X
    q = X**3 - 1
    quot, rem = divmod(p, q)
    assert quot == X
    assert rem == -3 * X
    assert quot * q + rem == p


def test_derivative_and_shift():
    p = X**4 - 4 * X + 4
    assert p.derivative() == 4 * X**3 - 4
    assert (X + 1) ** 2 == X**2 + 2 * X + 1
    shifted = p.taylor_shift(2)
    assert shifted.evaluate(0) == p.evaluate(2)
    assert shifted.taylor_shift(-2) == p
    assert p.scale_input(3).evaluate(1) == p.evaluate(3)


def test_compose():
    p = X**2 + 1
    inner = 2 * X - 1
    assert p.compose(inner) == 4 * X**2 - 4 * X + 2
    for x in (0, 1, Q(5, 3)):
        assert p.compose(inner).evaluate(x) == p.evaluate(inner.evaluate(x))


def test_gcd_disjoint_roots():
    # gcd(X^4 - 4X, 4X^3 - 4) = 1: the critical points are cube roots of 1,
    # the roots of P are 0 and the cube roots of 4, no overlap
    g = poly_gcd(X**4 - 4 * X, 4 * X**3 - 4)
    assert g == Poly.of(1)


def test_gcd_shared_factor():
    a = (X**2 + 1) * (X - 3)
    b = (X**2 + 1) * (X + 5) ** 2
    assert poly_gcd(a, b) == X**2 + 1
    assert poly_gcd(a, Poly.zero()) == a.monic()


def test_resultant_pins():
    assert resultant(X**2 - 2, X - 1) == -1
    # common root forces 0
    assert resultant((X - 1) * (X + 2), (X - 1) * (X - 5)) == 0
    # constant cases
    assert resultant(Poly.of(3), X**2 + 1) == 9
    assert resultant(X**2 + 1, Poly.of(3)) == 9


def test_resultant_matches_sylvester_oracle():
    rng = random.Random(20260816)
    for _ in range(200):
        p = random_poly(rng, 6)
        q = random_poly(rng, 6)
        if p.degree == 0 and q.degree == 0:
            continue
        assert resultant(p, q) == sylvester_resultant(p, q)


def test_resultant_rational_scaling():
    p = Q(1, 3) * (X**3 - 2 * X + 1)
    q = Q(5, 7) * (X**2 + 4)
    assert resultant(p, q) == sylvester_resultant(p, q)


def test_squarefree_parts():
    p = (X - 1) ** 2 * (X**2 + 1)
    parts = squarefree_parts(p)
    assert parts == [(X**2 + 1, 1), (X - 1, 2)] or parts == [
        ((X - 1), 2),
        (X**2 + 1, 1),
    ]
    rebuilt = Poly.of(1)
    for f, m in parts:
        rebuilt = rebuilt * f**m
    assert rebuilt == p.monic()
    assert radical(p) == (X - 1) * (X**2 + 1)


def test_squarefree_of_squarefree():
    p = X**3 - 2
    assert squarefree_parts(p) == [(p, 1)]
    assert radical(5 * p) == p


def test_interpolation():
    p = X**3 - Q(1, 2) * X + 7
    pts = [(Q(t), p.evaluate(t)) for t in (-2, -1, 0, 1)]
    assert lagrange_interpolate(pts) == p


def test_rational_roots():
    p = (2 * X - 1) ** 2 * (X + 3) * (X**2 + 1)
    assert rational_roots(p) == [(Q(-3), 1), (Q(1, 2), 2)]
    assert rational_roots(X**3 - X) == [(Q(-1), 1), (Q(0), 1), (Q(1), 1)]
    assert rational_roots(X**2 + 1) == []


def test_property_derivative_linearity():
    rng = random.Random(7)
    for _ in range(200):
        p = random_poly(rng, 8)
        q = random_poly(rng, 8)
        assert (p + q).derivative() == p.derivative() + q.derivative()
        assert (p * q).derivative() == p.derivative() * q + p * q.derivative()


def test_property_divmod():
    rng = random.Random(8)
    for _ in range(200):
        p = random_poly(rng, 9)
        q = random_poly(rng, 5)
        quot, rem = divmod(p, q)
        assert quot * q + rem == p
        assert rem.is_zero or rem.degree < q.degree


def _dense_sum(p: Poly, q: Poly) -> tuple:
    n = max(len(p.coeffs), len(q.coeffs))
    cs = [p.coeff(i) + q.coeff(i) for i in range(n)]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _dense_product(p: Poly, q: Poly) -> tuple:
    if p.is_zero or q.is_zero:
        return ()
    cs = [Q(0)] * (p.degree + q.degree + 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            cs[i + j] += a * b
    return tuple(cs)


def test_ring_ops_match_a_dense_reference():
    # sums and products skip zero coefficients; the reference visits all
    rng = random.Random(9)

    def sparse() -> Poly:
        return Poly.from_support({
            rng.randint(0, 12): Q(rng.randint(-4, 4), rng.randint(1, 3))
            for _ in range(rng.randint(0, 4))})

    for _ in range(300):
        p, q = sparse(), sparse()
        if rng.random() < 0.2:
            q = q - p  # cancels p's terms, the top one included
        assert (p + q).coeffs == _dense_sum(p, q), (p, q)
        assert (p - q).coeffs == _dense_sum(p, -q), (p, q)
        assert (p * q).coeffs == _dense_product(p, q), (p, q)
        assert (p * Q(3, 2)).coeffs == _dense_product(p, Poly.of(Q(3, 2)))
