"""The sparse parser against the dense one it replaced.

``parse_poly`` keeps its intermediate values as exponent -> integer
numerator maps over one denominator and raises a one-term base c X^e to a power k as c^k X^(ek) in one
step. ``_reference_parse`` is the earlier parser, on dense ``Poly``
values with every power computed by checked square and multiply. On
random expressions up to degree 64 (sums of monomials, rational
literals, signs, juxtaposition, nested parentheses, powers of sums), on
fixed edge cases and on the seed-0 benchmark inputs the two must give
the same ``Poly``, or the same exception type, message and offset. A
count pins the monomial rule: parsing the expanded degree_ladder inputs
forms one product per ``*`` and none for any power.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Optional

import pytest

from test_benchmark_inputs import _gen
from uniqpoly import parser
from uniqpoly.parser import (
    MAX_COEFF_BITS,
    MAX_NESTING,
    DegreeCapError,
    ParseError,
    _bits,
    parse_poly,
)
from uniqpoly.polynomials import Poly, X

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


class _ReferenceParser(parser._Parser):
    """The grammar of ``parser._Parser`` evaluated on dense Polys; only
    the tokens and the token cursor are shared."""

    def bounded(self, p: Poly, offset: int) -> Poly:
        if any(c and _bits(c) > MAX_COEFF_BITS for c in p.coeffs):
            raise ParseError(
                f"coefficient exceeds {MAX_COEFF_BITS} bits", offset)
        return p

    def expr(self) -> Poly:
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.take()
            acc = acc + self.term() if op == "+" else acc - self.term()
            self.bounded(acc, offset)
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, _, offset = self.peek()
            if kind == "*":
                self.take()
            elif kind not in ("var", "int", "("):
                return acc
            acc = self.bounded(acc * self.factor(), offset)

    def factor(self) -> Poly:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        base = self.atom()
        if self.peek()[0] == "^":
            _, _, offset = self.take()
            kind, text, _ = self.peek()
            if kind != "int":
                self.fail(("integer exponent",))
            self.take()
            k = int(text)
            cap = self.degree_cap
            if cap is not None and base.degree * k > cap:
                raise DegreeCapError(base.degree * k, cap)
            out = Poly.of(1)
            while k:
                if k & 1:
                    out = self.bounded(out * base, offset)
                k >>= 1
                if k:
                    base = self.bounded(base * base, offset)
            base = out
        return base if sign == 1 else -base

    def atom(self) -> Poly:
        kind, text, _ = self.peek()
        if kind == "int":
            self.take()
            num = int(text)
            if self.peek()[0] == "/":
                self.take()
                dkind, dtext, _ = self.peek()
                if dkind != "int":
                    self.fail(("integer denominator",))
                self.take()
                if int(dtext) == 0:
                    _, _, off = self.tokens[self.pos - 1]
                    raise ParseError("zero denominator", off)
                return Poly.of(Q(num, int(dtext)))
            return Poly.of(Q(num))
        if kind == "var":
            self.take()
            return X
        if kind == "(":
            _, _, offset = self.take()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(
                    f"parentheses nested deeper than {MAX_NESTING}", offset)
            inner = self.expr()
            if self.peek()[0] != ")":
                self.fail((")",))
            self.take()
            self.depth -= 1
            return inner
        self.fail(("number", "X", "("))


def _reference_parse(text: str, degree_cap: Optional[int] = None) -> Poly:
    ref = _ReferenceParser(text, degree_cap)
    p = ref.expr()
    if ref.peek()[0] != "end":
        ref.fail(("+", "-", "*", "^", "end of input"))
    if degree_cap is not None and p.degree > degree_cap:
        raise DegreeCapError(p.degree, degree_cap)
    return p


def _outcome(parse, text: str, cap: Optional[int]) -> tuple:
    try:
        return ("ok", parse(text, cap))
    except (ParseError, DegreeCapError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "offset", None))


def _agree(text: str, cap: Optional[int] = 64) -> tuple:
    got = _outcome(parse_poly, text, cap)
    assert got == _outcome(_reference_parse, text, cap), (text, cap)
    return got


# random expressions

LITERALS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.builds("{}/{}".format, st.integers(0, 999), st.integers(0, 99)),
    st.sampled_from(["0", "1", "2", "3", "7^1500", "2^4095", "1/2^4000"]),
)
# small powers of sums, powers of monomials up to the cap and past it
EXPONENTS = st.sampled_from([0, 1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 64, 65])


@st.composite
def _expr(draw, depth: int = 0) -> str:
    out = draw(_term(depth))
    for _ in range(draw(st.integers(0, 3))):
        out += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        out += draw(_term(depth))
    return out


@st.composite
def _term(draw, depth: int) -> str:
    out = draw(_factor(depth))
    for _ in range(draw(st.integers(0, 2))):
        # "" and " " juxtapose: 4X, 2(X+1), (X+1)(X-1)
        out += draw(st.sampled_from(["*", " * ", "", " "]))
        out += draw(_factor(depth))
    return out


@st.composite
def _factor(draw, depth: int) -> str:
    out = draw(st.sampled_from(["", "", "-", "+", "--", "-+-"]))
    kinds = ["literal", "var", "var", "paren"] if depth < 2 else \
        ["literal", "var"]
    kind = draw(st.sampled_from(kinds))
    if kind == "literal":
        out += draw(LITERALS)
    elif kind == "var":
        out += draw(st.sampled_from(["X", "x", "2X", "3/4X"]))
    else:
        out += "(" + draw(_expr(depth + 1)) + ")"
    if draw(st.booleans()):
        out += f"^{draw(EXPONENTS)}"
    return out


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(_expr())
def test_random_expressions_parse_as_before(text):
    _agree(text)


# fixed cases

DEEP = "(" * MAX_NESTING + "X" + ")" * MAX_NESTING


# sums with a Fraction in them, expanded on integer numerators over one
# denominator; the bound holds each reduced coefficient, so the forms
# whose common-denominator numerator or denominator passes 4,096 bits
# are checked coefficient by coefficient, and some of them fit
RATIONAL_SUMS = (
    "(1/2*3^1300*X + 1/2)^2", "1/3*2^4095*X + 1/3",
    "(1/2*X + 1/2)^64", "(1/2*X - 1/2)^63", "(3/2*X + 1/2)^16",
    "-(X + 1/2)^5 + 25/4*(X + 1/2)^4 - 10/3*(X + 1/2)^3 - 3",
    "(X + 1/2)^3 - (X + 1/2)^3", "(X + 1/2)^2 - (X - 1/2)^2",
    "((X + 1/2)^2 - X^2 - X)^3", "((X + 1/2)^2 - X^2 - X)^40",
    "--(1/2X + 1)^3", "(X + 1/2)^0",
    "(1/2X + 1/3)(2/3X - 3/4)(X + 1)", "(1/2X + 1/3)^2 + (1/6X)^2",
    # over the bound unreduced, every reduced coefficient fits
    "(2^2047*X + 1/2)^2", "(2^4095*X + 2^4095)*(X + 1/2)",
    "(1/3*2^4095*X + 1/3)*3", "(X + 1/2)^2*1/2^4000 + 1/3^2500*X^3",
    # over the bound unreduced, and a reduced coefficient too
    "(2^4095*X + 2^4095)*(X + 1/3)", "(1/3*2^4095*X + 1/3)^2",
    "(1/2^2048*X + 1/2^2048)^2", "(2^4094*X + 1/2)*2 + 2^4095*X",
    "(2^4094*X + 1/2)*2 - -2^4095*X",
    # a one-term base left unreduced by a product, 1/2 as 2/4
    "(2*1/4)^2049", "(2*1/4)^4095", "(2*1/4)^4096", "(6*1/4X)^2000",
    "(2*1/4 + 1/4 - 1/4)^4095", "(2*1/4 + 1/4 - 1/4)^4096",
)


@pytest.mark.parametrize("cap", [64, None])
def test_edge_cases_parse_as_before(cap):
    for text in ("X - X", "0*X^100", "0^0", "(X-X)^0", "2^4095", "2^4096",
                 "(1/2)^4097", "(3^1300*X + 1)^2", "(2X)^5000", "(X+1)^65",
                 DEEP, "(" + DEEP + ")", "(-1)^1000001", "1^" + "9" * 900,
                 "0^" + "9" * 50, "(X-X)^" + "9" * 50, "(1/3)^2584",
                 "(1/3)^2585", "(2/3X^2)^2048", "2^2048*2^2048",
                 "-X^2 - -3", "3/4X^2 + 1/2", "2X(X+1)", "(X-1)(X+1)",
                 *RATIONAL_SUMS):
        _agree(text, cap)


def test_rational_sum_outcomes():
    too_large = f"coefficient exceeds {MAX_COEFF_BITS} bits at offset"
    for text in ("(1/2*3^1300*X + 1/2)^2", "(1/3*2^4095*X + 1/3)^2",
                 "(1/2^2048*X + 1/2^2048)^2"):
        offset = text.rindex("^")
        assert _agree(text) == ("ParseError", f"{too_large} {offset}",
                                offset), text
    for text, op in (("(2^4095*X + 2^4095)*(X + 1/3)", "*"),
                     ("(2^4094*X + 1/2)*2 + 2^4095*X", "+")):
        offset = text.rindex(op)
        assert _agree(text) == ("ParseError", f"{too_large} {offset}",
                                offset), text
    assert _agree("(2^2047*X + 1/2)^2")[1] == \
        2**4094 * X**2 + 2**2047 * X + Q(1, 4)
    assert _agree("(2^4095*X + 2^4095)*(X + 1/2)")[1] == \
        2**4095 * X**2 + 3 * 2**4094 * X + 2**4094
    assert _agree("(1/3*2^4095*X + 1/3)*3")[1] == 2**4095 * X + 1
    assert _agree("(X + 1/2)^2*1/2^4000 + 1/3^2500*X^3")[1].coeff(3) == \
        Q(1, 3**2500)
    assert _agree("(X + 1/2)^3 - (X + 1/2)^3") == ("ok", Poly())
    assert _agree("(1/2*X + 1/2)^64")[1] == (X + 1)**64 * Q(1, 2**64)


def test_edge_case_outcomes():
    assert _agree("X - X") == ("ok", Poly())
    assert _agree("0*X^100") == (
        "DegreeCapError", "degree 100 exceeds the cap 64", None)
    assert _agree("0*X^100", None) == ("ok", Poly())
    assert _agree("0^0") == _agree("(X-X)^0") == ("ok", Poly.of(1))
    assert _agree("2^4095")[1].coeff(0) == 2**4095
    too_large = f"coefficient exceeds {MAX_COEFF_BITS} bits at offset"
    # a monomial power is rejected at its "^", squared or not
    for text, cap in (("2^4096", 64), ("(1/2)^4097", 64),
                      ("(3^1300*X + 1)^2", 64), ("(2X)^5000", None)):
        offset = text.rindex("^")
        assert _agree(text, cap) == (
            "ParseError", f"{too_large} {offset}", offset), text
    assert _agree("(2X)^5000")[0] == "DegreeCapError"
    assert _agree("(X+1)^65") == (
        "DegreeCapError", "degree 65 exceeds the cap 64", None)
    assert _agree("(X+1)^65", None)[1].coeff(32) > 0
    assert _agree(DEEP) == ("ok", X)
    assert _agree("(" + DEEP + ")")[2] == MAX_NESTING


def test_huge_exponents_fail_at_the_cap():
    # without a cap X^(10^18) is unbounded, before this parser and after
    assert _agree("X^1000000000000000000") == (
        "DegreeCapError", "degree 1000000000000000000 exceeds the cap 64",
        None)
    assert _agree("(X^2 + 1)^" + "9" * 40)[0] == "DegreeCapError"
    assert _agree("(-X)^" + "9" * 40)[0] == "DegreeCapError"


# benchmark inputs

def test_benchmark_inputs_parse_as_before():
    gen = _gen()
    for workload in ("batch_small", "degree_ladder", "curve_census"):
        for item in getattr(gen, workload)(0):
            _agree(item.text)


def test_no_product_for_a_power_of_a_monomial(monkeypatch):
    products = []
    exact = parser._mul

    def counted(a, b):
        products.append(1)
        return exact(a, b)

    monkeypatch.setattr(parser, "_mul", counted)
    for item in _gen().degree_ladder(0):
        products.clear()
        assert parse_poly(item.text, degree_cap=64).degree == item.degree
        # every power is c X^e or X^e: one product per "*", none for "^"
        assert item.text.count("^") > 10
        assert len(products) == item.text.count("*"), item.text


def test_no_fraction_product_in_a_power_of_a_rational_sum(monkeypatch):
    # P(+-X +- 1/2) is raised on integer numerators over 2^k: no power
    # multiplies two Fractions
    in_power, products = [], []
    power = parser._Parser.power

    def tracked(self, *args):
        in_power.append(1)
        try:
            return power(self, *args)
        finally:
            in_power.pop()

    def counted(op):
        def mul(a, b):
            if in_power:
                products.append((a, b))
            return op(a, b)
        return mul

    monkeypatch.setattr(parser._Parser, "power", tracked)
    monkeypatch.setattr(Q, "__mul__", counted(Q.__mul__))
    monkeypatch.setattr(Q, "__rmul__", counted(Q.__rmul__))
    powers = 0
    for item in _gen().curve_census(0):
        assert parse_poly(item.text, degree_cap=64) == \
            _reference_parse(item.text, 64)
        powers += item.text.count("^")
    assert powers > 30
    assert products == []
