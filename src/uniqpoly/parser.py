"""Exact polynomial syntax: parsing with byte offsets and printing.

The grammar over the variable X:

    expr    := term (("+" | "-") term)*
    term    := factor (("*" factor) | juxtaposed factor)*
    factor  := ("+" | "-")* atom ("^" natural)?
    atom    := natural ("/" natural)? | "X" | "(" expr ")"

Numbers are nonnegative integer literals; a slash directly after an
integer makes a rational literal (there is no division operator).
Juxtaposition multiplies, so "4X" and "2(X+1)" work. Errors carry the
byte offset of the offending token and the set of tokens that would
have been accepted there. Parentheses nest at most MAX_NESTING deep.
With a degree cap, a power whose degree would exceed the cap is
rejected before it is expanded. A literal may have at most
MAX_LITERAL_DIGITS digits, and every coefficient met while parsing at
most MAX_COEFF_BITS bits in its numerator and in its denominator,
powers included.

Every value is kept as the integer numerators of its nonzero terms,
exponent -> numerator, over one common denominator, 1 for integer input,
and becomes a Poly with content 1/den once, at the end. So (X + 1/2)^9
is expanded as (2X + 1)^9 / 2^9, with no Fraction product. The check is
exact on the reduced coefficients: reducing only shrinks numerator and
denominator, so when the largest numerator and the common denominator
fit, all do, and only otherwise is each coefficient reduced and checked.
A power of a sum is computed by squaring with each step checked, so one
that outgrows the bound fails within a few squarings. A power of one
term c X^e, c reduced, is c^k X^(ek) in one step, and the check is the
same: with m = max(|num c|, den c), the larger side of c^j is m^j, whose
bit length never falls as j grows, and squaring forms c^j only for
j <= k, so some step would fail exactly when c^k does. When
k (bits(m) - 1) >= MAX_COEFF_BITS, m^k is too large and is not formed,
so "2^100000" fails at once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .polynomials import Poly, _poly


class ParseError(ValueError):
    def __init__(self, message: str, offset: int,
                 expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


DEFAULT_DEGREE_CAP = 64


class DegreeCapError(ValueError):
    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(f"degree {degree} exceeds the cap {cap}")


_OPS = set("+-*/^()")

# each level of parentheses costs four stack frames (expr, term, factor,
# atom), so this stays well inside the default recursion limit of 1000
MAX_NESTING = 100

# far below CPython's 4300-digit limit on int <-> str conversion, so every
# accepted coefficient converts and prints
MAX_LITERAL_DIGITS = 1000
MAX_COEFF_BITS = 4096


def _bits(c: int | Fraction) -> int:
    return max(abs(c.numerator), c.denominator).bit_length()


def _too_large(offset: int) -> ParseError:
    return ParseError(f"coefficient exceeds {MAX_COEFF_BITS} bits", offset)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples; kinds are int, var, and the ops."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        # isdecimal, not isdigit: int() rejects superscripts such as '²'
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j - i > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal longer than "
                                 f"{MAX_LITERAL_DIGITS} digits", i)
            out.append(("int", text[i:j], i))
            i = j
        elif ch in ("X", "x"):
            out.append(("var", ch, i))
            i += 1
        elif ch in _OPS:
            out.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", len(text)))
    return out


# a parsed value, num / den: the integer numerators of its nonzero terms,
# exponent -> int, over one positive denominator, 1 for integer input
Value = tuple[dict[int, int], int]


def _mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product over the nonzero pairs of terms."""
    out: dict[int, int] = {}
    for i, c in a.items():
        for j, d in b.items():
            e = i + j
            out[e] = out[e] + c * d if e in out else c * d
    return {e: c for e, c in out.items() if c}


class _Parser:
    def __init__(self, text: str, degree_cap: Optional[int] = None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.degree_cap = degree_cap

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected: tuple[str, ...]):
        kind, text, offset = self.peek()
        what = "end of input" if kind == "end" else repr(text)
        raise ParseError(f"unexpected {what}", offset, expected)

    def check(self, c: int, den: int, offset: int) -> None:
        """Raise unless c / den, reduced, fits the bound."""
        if max(abs(c), den).bit_length() > MAX_COEFF_BITS:
            g = math.gcd(c, den)
            if max(abs(c) // g, den // g).bit_length() > MAX_COEFF_BITS:
                raise _too_large(offset)

    def bounded(self, num: dict[int, int], den: int, offset: int) -> Value:
        """num / den with every reduced coefficient checked. Reducing
        only shrinks numerator and denominator, so when the largest |num|
        and den fit, every reduced coefficient does; otherwise each one
        is checked, and num and den lose their common factor."""
        if den.bit_length() <= MAX_COEFF_BITS:
            for c in num.values():
                if c.bit_length() > MAX_COEFF_BITS:  # that of |c|
                    break
            else:
                return num, den
        for c in num.values():
            self.check(c, den, offset)
        g = math.gcd(den, *num.values())
        return {e: c // g for e, c in num.items()}, den // g

    def product(self, a: Value, b: Value, offset: int) -> Value:
        (an, ad), (bn, bd) = a, b
        return self.bounded(_mul(an, bn), ad * bd, offset)

    def expr(self) -> Value:
        num, den = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, offset = self.take()
            t, tden = self.term()
            # add in place over the lcm of the denominators; a rescaled
            # coefficient keeps its value, and both sides were checked
            # when built, so only a coefficient of X^e present in both
            # can outgrow the bound
            k = -1 if op == "-" else 1
            if tden != den:
                lcm = math.lcm(den, tden)
                if lcm != den:
                    s = lcm // den
                    num = {e: s * c for e, c in num.items()}
                    den = lcm
                k *= lcm // tden
            for e, c in t.items():
                c *= k
                if e in num:
                    c += num[e]
                    if not c:
                        del num[e]
                        continue
                    self.check(c, den, offset)
                num[e] = c
        return num, den

    def term(self) -> Value:
        acc = self.factor()
        while True:
            kind, _, offset = self.peek()
            if kind == "*":
                self.take()
            elif kind not in ("var", "int", "("):
                return acc
            # "*", or juxtaposition: 4X, 2(X+1), (X+1)(X-1)
            acc = self.product(acc, self.factor(), offset)

    def factor(self) -> Value:
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
            base = self.power(base, int(text), offset)
        if sign == 1:
            return base
        num, den = base
        return {e: -c for e, c in num.items()}, den

    def power(self, base: Value, k: int, offset: int) -> Value:
        # reject before expanding, so a huge exponent fails at once
        num, den = base
        cap = self.degree_cap
        degree = max(num, default=-1)  # -1 for 0, as Poly.degree
        if cap is not None and degree * k > cap:
            raise DegreeCapError(degree * k, cap)
        if len(num) == 1:
            # c X^e in one step, c in lowest terms, as a sum or product
            # may leave it; checking c^k alone is exact, and a c^k
            # with at least 2^(k (bits(c) - 1)) on its larger side is
            # rejected unformed (see the module docstring)
            ((e, c),) = num.items()
            g = math.gcd(c, den)
            c, den = c // g, den // g
            if k * (max(abs(c), den).bit_length() - 1) >= MAX_COEFF_BITS:
                raise _too_large(offset)
            return self.bounded({e * k: c ** k}, den ** k, offset)
        # square and multiply with every step bounded, so a power whose
        # coefficients outgrow the bound stops within a few squarings
        # instead of being computed. The lowest power taken is base
        # itself, bounded already.
        out = None
        while k:
            if k & 1:
                out = base if out is None else self.product(out, base, offset)
            k >>= 1
            if k:
                base = self.product(base, base, offset)
        return ({0: 1}, 1) if out is None else out

    def atom(self) -> Value:
        kind, text, _ = self.peek()
        if kind == "int":
            self.take()
            num, den = int(text), 1
            if self.peek()[0] == "/":
                self.take()
                dkind, dtext, _ = self.peek()
                if dkind != "int":
                    self.fail(("integer denominator",))
                self.take()
                den = int(dtext)
                if den == 0:
                    _, _, off = self.tokens[self.pos - 1]
                    raise ParseError("zero denominator", off)
            return ({0: num} if num else {}), den
        if kind == "var":
            self.take()
            return {1: 1}, 1
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


def parse_poly(text: str, degree_cap: Optional[int] = None) -> Poly:
    """Parse text to a Poly; ParseError carries the byte offset."""
    parser = _Parser(text, degree_cap)
    num, den = parser.expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        parser.fail(("+", "-", "*", "^", "end of input"))
    # the one division of the integer numerators: content 1/den
    p = _poly([num.get(e, 0) for e in range(max(num, default=-1) + 1)],
              Fraction(1, den))
    if degree_cap is not None and p.degree > degree_cap:
        raise DegreeCapError(p.degree, degree_cap)
    return p


def format_rational(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else \
        f"{v.numerator}/{v.denominator}"


def format_poly(p: Poly) -> str:
    """Canonical descending form; parse_poly(format_poly(p)) == p."""
    if p.is_zero:
        return "0"
    # coefficient e is a x / b, with a/b the content in lowest terms and
    # x = prim[e], so its lowest terms divide by gcd(a x, b) = gcd(x, b)
    a, b = p.content.numerator, p.content.denominator
    parts: list[str] = []
    for e in range(p.degree, -1, -1):
        x = p.prim[e]
        if not x:
            continue
        c, g = a * x, math.gcd(x, b)
        body = str(abs(c) // g) if g == b else f"{abs(c) // g}/{b // g}"
        if e:
            var = "X" if e == 1 else f"X^{e}"
            body = var if body == "1" else f"{body}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)
