"""The value polynomial modulo a prime against the resultant route.

``separation_mod_p`` builds the value polynomial of the critical points
modulo a prime from power sums (``_value_poly_mod``). A derandomized
hypothesis suite draws P of degree 2-64 with integer or rational
coefficients, and the families Q(X^2 + X) and Q(X^3), whose critical
values collide, and (X - a)^k R, which has 0 as a critical value. On each
the image must equal the l + 1 resultants in F_q interpolated by Newton's
divided differences (``_reference_image``), and up to degree 12 also the
exact value polynomial over Q reduced modulo q.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from test_criteria import _check_modular_image, _reduced
from uniqpoly.criteria import _separation_poly
from uniqpoly.polynomials import Poly, X, _reduce_mod

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

INTEGERS = st.integers(min_value=-9, max_value=9).map(Q)
RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def _dense(draw, degree: int) -> Poly:
    cs = draw(st.lists(st.one_of(INTEGERS, RATIONALS), min_size=degree,
                       max_size=degree))
    lead = draw(RATIONALS.filter(bool))
    return Poly.of(*cs, lead)


def _substitute(q: Poly, inner: Poly) -> Poly:
    """q(inner(X)), by Horner's rule over the polynomial ring."""
    out = Poly()
    for c in reversed(q.coeffs):
        out = out * inner + c
    return out


def _degree(low: int, high: int):
    # half the draws stay small enough for the exact value polynomial
    return st.one_of(st.integers(low, max(low, high // 5)),
                     st.integers(low, high))


@st.composite
def _inputs(draw) -> Poly:
    family = draw(st.sampled_from(["dense", "X^2+X", "X^3", "root"]))
    if family == "dense":
        return draw(_dense(draw(_degree(2, 64))))
    if family == "X^2+X":
        return _substitute(draw(_dense(draw(_degree(1, 32)))), X**2 + X)
    if family == "X^3":
        return _substitute(draw(_dense(draw(_degree(1, 21)))), X**3)
    k = draw(st.integers(2, 4))
    a = draw(RATIONALS)
    return (X - a) ** k * draw(_dense(draw(_degree(0, 64 - k))))


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(_inputs())
def test_modular_image_matches_the_resultant_route(p):
    image = _check_modular_image(p)
    if p.degree <= 12:
        rad, q, _, _ = _reduced(p)
        assert image == _reduce_mod(_separation_poly(rad, p), q), p
