"""``lagrange_interpolate`` (Newton's divided differences) against sympy."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from uniqpoly.polynomials import Poly, lagrange_interpolate

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RATIONALS = st.fractions(min_value=-50, max_value=50, max_denominator=12)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=1,
                           max_size=9, unique_by=lambda xy: xy[0]))
def test_interpolant_hits_every_node_and_agrees_with_sympy(points):
    f = lagrange_interpolate(points)
    assert f.degree < len(points)
    for x, y in points:
        assert f.evaluate(x) == y
    t = sympy.Symbol("t")
    want = sympy.interpolate(
        [(sympy.Rational(x.numerator, x.denominator),
          sympy.Rational(y.numerator, y.denominator)) for x, y in points], t)
    coeffs = sympy.Poly(want, t, domain="QQ").all_coeffs()[::-1]
    assert f == Poly.of(*(Q(int(c.p), int(c.q)) for c in coeffs))


def test_interpolation_pins():
    assert lagrange_interpolate([]) == Poly(())
    assert lagrange_interpolate([(2, 0), (5, 0)]) == Poly(())
    assert lagrange_interpolate([(0, 3)]) == Poly.of(3)
    # t^3 + 27 through t = 0..3, the value polynomial of X^4 - 4X
    pts = [(t, t**3 + 27) for t in range(4)]
    assert lagrange_interpolate(pts) == Poly.of(27, 0, 0, 1)
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 2), (Q(2, 2), 3)])
