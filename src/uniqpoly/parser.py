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
rejected before it is expanded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .polynomials import Poly, X

Q = Fraction


class ParseError(ValueError):
    def __init__(self, message: str, offset: int,
                 expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at offset {offset}{hint}")


class DegreeCapError(ValueError):
    def __init__(self, degree: int, cap: int):
        self.degree = degree
        self.cap = cap
        super().__init__(f"degree {degree} exceeds the cap {cap}")


_OPS = set("+-*/^()")

# each level of parentheses costs four stack frames (expr, term, factor,
# atom), so this stays well inside the default recursion limit of 1000
MAX_NESTING = 100


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples; kinds are int, var, and the ops."""
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
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

    def expr(self) -> Poly:
        acc = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.take()
                acc = acc * self.factor()
            elif kind in ("var", "int", "("):
                # juxtaposition: 4X, 2(X+1), (X+1)(X-1)
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Poly:
        sign = 1
        while self.peek()[0] in ("+", "-"):
            if self.take()[0] == "-":
                sign = -sign
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, text, _ = self.peek()
            if kind != "int":
                self.fail(("integer exponent",))
            self.take()
            k = int(text)
            # reject before expanding, so a huge exponent fails at once
            cap = self.degree_cap
            if cap is not None and base.degree * k > cap:
                raise DegreeCapError(base.degree * k, cap)
            base = base ** k
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


def parse_poly(text: str, degree_cap: Optional[int] = None) -> Poly:
    """Parse text to a Poly; ParseError carries the byte offset."""
    parser = _Parser(text, degree_cap)
    p = parser.expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        parser.fail(("+", "-", "*", "^", "end of input"))
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
    parts: list[str] = []
    for e in range(p.degree, -1, -1):
        c = p.coeff(e)
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = format_rational(mag)
        else:
            var = "X" if e == 1 else f"X^{e}"
            body = var if mag == 1 else f"{format_rational(mag)}*{var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)
