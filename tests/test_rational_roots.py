"""rational_roots against sympy's roots over Q.

Inputs are products of rational linear factors with multiplicities,
irreducible quadratics and, now and then, the factor X^2 + (2^61 - 1),
whose large prime constant term defeats a search through the divisors
of the constant term.
"""

from __future__ import annotations

import time
from fractions import Fraction as Q

import pytest

from uniqpoly.polynomials import Poly, X, rational_roots

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

T = sympy.Symbol("t")
MERSENNE_61 = 2**61 - 1

ROOTS = st.fractions(min_value=-12, max_value=12, max_denominator=7)
# X^2 + bX + c with b^2 - 4c < 0 has no rational root
QUADRATICS = st.tuples(st.integers(-5, 5), st.integers(1, 40)).filter(
    lambda bc: bc[0] ** 2 < 4 * bc[1])


def _oracle(p: Poly) -> list[tuple[Q, int]]:
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], T, domain="QQ")
    return sorted((Q(int(r.p), int(r.q)), m)
                  for r, m in sp.ground_roots().items())


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    st.lists(st.tuples(ROOTS, st.integers(1, 3)), max_size=4),
    st.lists(QUADRATICS, max_size=2),
    st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(
        lambda c: c != 0),
    st.booleans(),
)
def test_rational_roots_match_sympy(linear, quadratics, scale, big_prime):
    p = Poly.of(scale)
    for r, m in linear:
        p = p * (X - Poly.of(r)) ** m
    for b, c in quadratics:
        p = p * (X**2 + b * X + c)
    if big_prime:
        p = p * (X**2 + MERSENNE_61)
    assert rational_roots(p) == _oracle(p)


def test_large_prime_constant_term_is_fast():
    start = time.perf_counter()
    assert rational_roots(3 * X**2 + MERSENNE_61) == []
    assert rational_roots(X - MERSENNE_61) == [(Q(MERSENNE_61), 1)]
    p = (X - Q(MERSENNE_61, 3)) ** 2 * (X**2 + MERSENNE_61)
    assert rational_roots(p) == [(Q(MERSENNE_61, 3), 2)]
    assert time.perf_counter() - start < 1.0
