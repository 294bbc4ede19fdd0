"""``Poly.taylor_shift`` against sympy's ``Poly.shift``.

The shift runs as synthetic division on integer numerators; sympy shifts
the same rational polynomial by Horner's rule over QQ. Shifts are drawn
as 0, integers of either sign and small rationals on dense rational inputs
of degree 0-64, and as a 1,000-bit numerator over a 1,000-bit denominator
on inputs of degree 0-40. Each shift is also undone by its negative.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from uniqpoly.polynomials import Poly

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
st = hypothesis.strategies

T = sympy.Symbol("t")

SMALL_SHIFTS = st.one_of(
    st.just(Q(0)),
    st.integers(-50, 50).map(Q),
    st.builds(Q, st.integers(-99, 99), st.integers(1, 12)),
)

_RNG = random.Random(0)
_R, _S = (_RNG.getrandbits(1000) | 1 | 1 << 999 for _ in range(2))


@st.composite
def big_shift(draw) -> Q:
    """r/s with r and s odd 1,000-bit integers, of either sign."""
    rng = draw(st.randoms(use_true_random=False))
    r, s = (rng.getrandbits(1000) | 1 | 1 << 999 for _ in range(2))
    return Q(draw(st.sampled_from((1, -1))) * r, s)


@st.composite
def dense_rational(draw, max_degree: int = 64) -> Poly:
    n = draw(st.integers(0, max_degree))
    cs = draw(st.lists(st.builds(Q, st.integers(-99, 99), st.integers(1, 99)),
                       min_size=n + 1, max_size=n + 1))
    return Poly.of(*cs)


def _sympy_shift(p: Poly, a: Q) -> Poly:
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)] or [0], T, domain="QQ")
    shifted = sp.shift(sympy.Rational(a.numerator, a.denominator))
    return Poly.of(*(Q(int(c.p), int(c.q))
                     for c in reversed(shifted.all_coeffs())))


def _check(p: Poly, a: Q) -> None:
    shifted = p.taylor_shift(a)
    assert shifted == _sympy_shift(p, a)
    assert all(type(c) is Q for c in shifted.coeffs)
    assert shifted.taylor_shift(-a) == p


@hypothesis.settings(max_examples=40, deadline=None)
@hypothesis.example(Poly.of(*(Q((-1) ** i * (i + 1), i % 5 + 1)
                              for i in range(65))), Q(-7, 3))
@hypothesis.given(dense_rational(), SMALL_SHIFTS)
def test_taylor_shift_matches_sympy(p, a):
    _check(p, a)


# sympy's Horner over QQ takes about 3.6 s for one degree-64 shift of
# this size and 0.4 s at degree 32, so the degree stops at 40 here
@hypothesis.settings(max_examples=6, deadline=None)
@hypothesis.example(Poly.of(*(Q(i * i - 99, 2 * i + 1) for i in range(41))),
                    Q(-_R, _S))
@hypothesis.given(dense_rational(40), big_shift())
def test_taylor_shift_by_a_1000_bit_rational(p, a):
    _check(p, a)
