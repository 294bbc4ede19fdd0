"""Verdicts do not move under X -> X + s and P -> lambda P, up to degree 64.

``classify`` decides in centered, monic coordinates, so the four slots of
lambda P(X + s) must equal those of P for every rational s and nonzero
rational lambda. The audit runs on the moved input, whose coefficients
are rational and whose center is not an integer, so it also exercises
the witness equations at high degree.
"""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from uniqpoly.classify import SLOTS, classify, consistency_audit
from uniqpoly.polynomials import Poly

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def dense_integer(draw) -> Poly:
    n = draw(st.integers(2, 64))
    low = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    lead = draw(st.integers(-5, 5).filter(bool))
    return Poly.of(*low, lead)


@hypothesis.settings(max_examples=25, deadline=None)
# the top of the degree range, which the drawn examples need not reach
@hypothesis.example(Poly.of(*((-1) ** i * (i % 7 + 1) for i in range(64)), 3),
                    Q(-7, 3), Q(5, 2))
@hypothesis.given(dense_integer(), RATIONALS,
                  RATIONALS.filter(lambda c: c != 0))
def test_verdicts_invariant_under_shift_and_scale(p, shift, scale):
    moved = p.taylor_shift(shift) * scale
    base = classify(p)
    v = classify(moved)
    assert [v.slot(s) for s in SLOTS] == [base.slot(s) for s in SLOTS]
    assert consistency_audit(moved, v)["ok"]
