"""``parse_poly`` inverts ``format_poly`` on dense rational polynomials.

The parser assembles a polynomial term by term and checks coefficient
sizes only where each term lands, so a round trip through the canonical
text up to the degree cap covers that assembly at every degree.
"""

from __future__ import annotations

import pytest

from uniqpoly.parser import format_poly, parse_poly
from uniqpoly.polynomials import Poly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COEFFS = st.fractions(min_value=-10**6, max_value=10**6,
                      max_denominator=10**6)


@st.composite
def dense_rational(draw) -> Poly:
    n = draw(st.integers(0, 64))
    low = draw(st.lists(COEFFS, min_size=n, max_size=n))
    return Poly.of(*low, draw(COEFFS.filter(bool)))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(dense_rational())
def test_parse_inverts_format(p):
    assert parse_poly(format_poly(p), degree_cap=64) == p
