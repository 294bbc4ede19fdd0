"""Seeded input generators for the three workloads.

Every generator returns a list of ``Item``: the text handed to the
program plus what the benchmark knows about it independently of the
program (family, degree, the exit-code classes the input may take).
Nothing here imports ``uniqpoly``; the little polynomial arithmetic the
shifted images and the rational-critical inputs need is done on
coefficient lists of Fractions.

The same seed always gives the same items: each workload draws from its
own ``random.Random`` seeded with a string, which Python hashes
deterministically.

Two workloads draw a base corpus once, from a fixed seed, each base
input P with a shift a, and the run seed picks one of the four images
t * P(sX + a), s, t = +-1. The cost of classifying a polynomial swings
by a factor of two or more between random inputs of one degree, and the
cost of the curve census by orders of magnitude, with the size and the
factorization of numbers derived from the critical values. The four
images have coefficients of the same magnitudes and critical values
equal up to sign, so every seed does the same work on different text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Q

# exit-code classes of the classify and curve commands
OK, PARSE, SCOPE = 0, 2, 3


@dataclass(frozen=True)
class Item:
    text: str
    family: str
    degree: int  # degree after expansion; 0 when the text does not parse
    classes: frozenset  # exit codes this input may legitimately produce
    c: str = ""  # multiplier for the scaled curve (curve_census only)


# coefficient lists, ascending: cs[i] is the coefficient of X^i

def _trim(cs: list) -> list:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _mul(a: list, b: list) -> list:
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _compose(outer: list, inner: list) -> list:
    acc: list = []
    for c in reversed(outer):
        acc = _add(_mul(acc, inner) if acc else [], [Q(c)])
    return acc


def _rat_text(v: Q) -> str:
    return str(v.numerator) if v.denominator == 1 else \
        f"{v.numerator}/{v.denominator}"


def poly_text(cs: list, var: str = "X") -> str:
    """Descending text such as '3*X^5 - 2/3*X^2 + 7'.

    ``var`` replaces the variable, so passing '(X + 1/2)' writes the
    Taylor shift P(X + 1/2) without expanding it.
    """
    parts: list[str] = []
    for e in range(len(cs) - 1, -1, -1):
        c = cs[e]
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = _rat_text(mag)
        else:
            v = var if e == 1 else f"{var}^{e}"
            body = v if mag == 1 else f"{_rat_text(mag)}*{v}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def random_dense(rng: random.Random, deg: int, rational: bool) -> list:
    """Dense random polynomial of exact degree, in the style of the
    package's own selftest generator: each lower coefficient is nonzero
    with probability 0.7, numerators in [-9, 9], leading coefficient
    of magnitude 1..5."""
    cs = [Q(0)] * (deg + 1)
    for i in range(deg):
        if rng.random() < 0.7:
            cs[i] = Q(rng.randint(-9, 9), rng.randint(1, 5) if rational else 1)
    lead = rng.randint(1, 5) * rng.choice((-1, 1))
    cs[deg] = Q(lead, rng.randint(1, 3) if rational else 1)
    return cs


def _image(rng: random.Random, cs: list, a: Q) -> tuple[list, str]:
    """Seeded t * P(sX + a) with s, t = +-1, as the coefficients of t * P
    and the text '(sX + a)' to write in place of the variable."""
    s, t = rng.choice((1, -1)), rng.choice((1, -1))
    x = "X" if s > 0 else "-X"
    return ([t * c for c in cs],
            f"({x} {'+' if a > 0 else '-'} {_rat_text(abs(a))})")


# batch_small

BATCH_DEGREES = tuple(range(3, 11))
BATCH_PER_DEGREE = 12  # half of them with rational coefficients
BATCH_OVER_CAP = 2
BATCH_MALFORMED = 2


def _malformed(rng: random.Random, text: str) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return text + " +"
    if kind == 1:
        return "(" + text
    if kind == 2:
        cut = rng.randrange(1, len(text))
        return text[:cut] + " # " + text[cut:]
    if kind == 3:
        return text + "^"
    return text + " + 1/0"


def batch_small(seed: int) -> list[Item]:
    """100 lines: 12 random dense lines per degree 3-10, two over the
    degree cap and two malformed, in seeded order."""
    rng = random.Random(f"batch_small:{seed}")
    items = []
    for deg in BATCH_DEGREES:
        for k in range(BATCH_PER_DEGREE):
            cs = random_dense(rng, deg, rational=k % 2 == 1)
            items.append(Item(poly_text(cs), "dense", deg,
                              frozenset({OK, SCOPE})))
    for _ in range(BATCH_OVER_CAP):
        a = rng.choice((-1, 1)) * rng.randint(1, 9)
        e = rng.randint(150, 200)
        text = f"(X {'+' if a > 0 else '-'} {abs(a)})^{e}"
        items.append(Item(text, "over_cap", e, frozenset({PARSE})))
    for _ in range(BATCH_MALFORMED):
        cs = random_dense(rng, rng.randint(3, 10), rational=False)
        items.append(Item(_malformed(rng, poly_text(cs)), "malformed", 0,
                          frozenset({PARSE})))
    rng.shuffle(items)
    return items


# degree_ladder

LADDER_DEGREES = tuple(range(12, 33))


def degree_ladder(seed: int) -> list[Item]:
    """Images of one random dense integer P of each degree 12-32 under
    a shift by +-1, written out expanded."""
    base = random.Random("degree_ladder:base")
    rng = random.Random(f"degree_ladder:{seed}")
    items = []
    for deg in LADDER_DEGREES:
        cs = random_dense(base, deg, rational=False)
        a = base.choice((1, -1))
        s, t = rng.choice((1, -1)), rng.choice((1, -1))
        image = [t * c for c in _compose(cs, [Q(a), Q(s)])]
        items.append(Item(poly_text(image), "dense", deg, frozenset({OK})))
    rng.shuffle(items)
    return items


# curve_census

def _rational_critical(rng: random.Random) -> list:
    """P with P' = k * prod (X - r_i) over distinct integers r_i, so every
    critical point, and so every critical value, is rational."""
    deg = rng.randint(4, 7)
    roots = rng.sample(range(-4, 5), deg - 1)
    dp = [Q(deg)]
    for r in roots:
        dp = _mul(dp, [Q(-r), Q(1)])
    cs = [Q(0)] + [c / (i + 1) for i, c in enumerate(dp)]
    cs[0] = Q(rng.randint(1, 9))
    return cs


CURVE_DENSE_DEGREES = tuple(range(4, 11))
# with the degree-9 and degree-10 inputs over the time limit, seven
# inputs finish, an odd number, so the median latency lies inside the
# samples of one input rather than between two
CURVE_RATIONAL_CRITICAL = 2
CURVE_MULTIPLIERS = (Q(2), Q(3), Q(1, 2), Q(1, 3))


def curve_census(seed: int) -> list[Item]:
    """Images under a shift by +-1/2 of one random dense P of each
    degree 4-10 and of two P with rational critical points, each with a
    multiplier +-c for the scaled curve, c fixed with P and the sign
    seeded.

    The constant term of the separation polynomial, which the census
    factors by trial division, is the same for every seed up to sign.
    """
    base = random.Random("curve_census:base")
    rng = random.Random(f"curve_census:{seed}")
    corpus = [("dense", random_dense(base, d, rational=False))
              for d in CURVE_DENSE_DEGREES]
    corpus += [("rational_critical", _rational_critical(base))
               for _ in range(CURVE_RATIONAL_CRITICAL)]
    items = []
    for family, cs in corpus:
        image, var = _image(rng, cs, base.choice((Q(1, 2), Q(-1, 2))))
        text = poly_text(image, var)
        c = base.choice(CURVE_MULTIPLIERS) * rng.choice((1, -1))
        items.append(Item(text, family, len(cs) - 1, frozenset({OK}),
                          _rat_text(c)))
    rng.shuffle(items)
    return items
