"""Certificates modulo a prime, and the witness equations, against sympy.

``critical_structure`` builds the monic value polynomial of P'/lc(P')
modulo a prime below 2^15 first. Squarefree there (``_squarefree_mod``),
it certifies P' squarefree and the critical values distinct; a nonzero
constant term certifies that no critical value is 0, so P is
squarefree. What it leaves open goes to ``squarefree_parts``, to an
image of the radical, and last to the exact gcd. Every field must equal
what a reference gets by splitting P' and P first and asking the
radical's image, as the structure was built before; the exact resultant
Res(rad P', P) stays the oracle for a zero critical value.
``_constraint_gcd`` reads the witness equations off the coefficients of
P at its center and takes their gcd in closed form; it is compared with
the X-basis equations solved in sympy and with a fold of exact gcds, and
the witness search with a reference that runs the older steps. These
tests also check that the fallback gives the same verdicts when no prime
certifies anything.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import random
import time
from fractions import Fraction as Q

import pytest

from uniqpoly import criteria, polynomials
from uniqpoly.classify import _constraint_gcd, classify, consistency_audit
from uniqpoly.criteria import critical_structure
from uniqpoly.polynomials import (
    GCD_PRIMES,
    Poly,
    X,
    _squarefree_mod,
    _value_poly_mod,
)
from test_criteria import _reduced
from test_squarefree import _q_unlucky

sympy = pytest.importorskip("sympy")
classify_mod = importlib.import_module("uniqpoly.classify")

T = sympy.Symbol("t")


def _dense(rng: random.Random, degree: int) -> Poly:
    cs = [Q(rng.randint(-9, 9)) for _ in range(degree)]
    return Poly.of(*cs, Q(rng.choice([-1, 1]) * rng.randint(1, 5)))


def _rational(rng: random.Random, degree: int) -> Poly:
    cs = [Q(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(degree)]
    return Poly.of(*cs, Q(rng.randint(1, 4), rng.randint(1, 3)))


def _to_sympy(p: Poly, var=T):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)] or [0], var, domain="QQ")


def _from_sympy(sp) -> Poly:
    return Poly.of(*(Q(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())))


def _squarefree_by_sympy(sep: Poly) -> bool:
    sp = _to_sympy(sep)
    if sep.degree > 48:
        # sympy's discriminant takes minutes here; a nonzero discriminant
        # is the same as gcd(sep, sep') = 1, which sympy decides quickly
        return sp.is_sqf
    _, integral = sp.clear_denoms(convert=True)
    return sympy.discriminant(integral) != 0


def _substitute(q: Poly, inner: Poly) -> Poly:
    """q(inner(X)), by Horner's rule over the polynomial ring."""
    out = Poly.zero()
    for c in reversed(q.coeffs):
        out = out * inner + c
    return out


def _non_separated() -> list[Poly]:
    rng = random.Random(3)
    out = [X**6 - 2 * X**2, X**4 - 2 * X**2, (X**2 - 1) ** 3 + X**2]
    for _ in range(12):
        q = _dense(rng, rng.randint(2, 6))
        # P(a) = P(-a) at paired critical points
        out.append(_substitute(q, X**2))
        out.append(_substitute(q, X**2 + X).taylor_shift(rng.randint(-3, 3)))
    out.append(_substitute(_dense(rng, 16), X**2))
    return out


def _separated_inputs() -> list[Poly]:
    rng = random.Random(11)
    out = [_dense(rng, rng.randint(2, 12)) for _ in range(30)]
    out += [_rational(rng, rng.randint(3, 10)) for _ in range(10)]
    out += [_dense(rng, d) for d in (20, 32, 48, 64)]
    return out


def test_separation_matches_the_discriminant():
    non_separated = _non_separated()
    for p in non_separated + _separated_inputs():
        cs = critical_structure(p)
        assert cs.is_separated == _squarefree_by_sympy(cs.separation_poly), p
    for p in non_separated:
        assert not critical_structure(p).is_separated, p


def _equations(p: Poly) -> list:
    """The coefficient equations of P(beta X + gamma) = beta^n P(X), in sympy."""
    x, b = sympy.symbols("x b")
    n = p.degree
    s = -p.coeff(n - 1) / (n * p.lc)
    sp = _to_sympy(p, x).as_expr()
    gamma = sympy.Rational(s.numerator, s.denominator) * (1 - b)
    lhs = sympy.expand(sp.subs(x, b * x + gamma) - b**n * sp)
    coeffs = sympy.Poly(lhs, x).all_coeffs()[::-1]
    return [sympy.Poly(coeffs[j] if j < len(coeffs) else 0, b, domain="QQ")
            for j in range(n - 1)]


def test_constraint_gcd_matches_sympy():
    rng = random.Random(7)
    inputs = [X**6 + X**3, X**4 - 4 * X, (X - 1) ** 5, X**8 + X**4 + 2,
              X**9 + X**3, X**6 - 2 * X**2, X**2, X**3 + 3 * X**2 + 3 * X]
    inputs += [_dense(rng, rng.randint(2, 12)) for _ in range(20)]
    inputs += [_rational(rng, rng.randint(2, 9)) for _ in range(10)]
    inputs += [_dense(rng, 24), _dense(rng, 40)]
    # centers that are not integers, one input a pure power about its center
    inputs += [(X**6 + X**3 + 1).taylor_shift(Q(-7, 3)) * Q(5, 2),
               (X**9 + 2 * X**3).taylor_shift(Q(1, 2)), (X - Q(1, 3)) ** 5]
    # sparse about centers with large coprime numerator and denominator:
    # each vanishing q_j is an exact cancellation of big integers
    inputs += [(X**12 + 5 * X**4 + 7).taylor_shift(Q(-1000003, 999983))
               * Q(3, 7),
               (X**10 - 3 * X**5).taylor_shift(Q(2**61 - 1, 3**20)),
               (X**9 - X**6 + 2).taylor_shift(Q(10**12 + 39, 2**40 + 15)),
               (Q(5, 11) * X**16 + X**8 - 4).taylor_shift(Q(-(3**25), 7**13))]
    for p in inputs:
        want = Poly(())
        eqs = _equations(p)
        g = eqs[0]
        for e in eqs[1:]:
            g = sympy.gcd(g, e)
        if not g.is_zero:
            want = _from_sympy(g.monic())
        assert _constraint_gcd(p) == want, p


def _results(p: Poly) -> tuple:
    return classify(p), critical_structure(p), _constraint_gcd(p)


def _inputs_with_denominators() -> list[Poly]:
    rng = random.Random(13)
    out = [X**3 - X, X**4 - 4 * X, X**6 - 2 * X**2, X**6 + X**3,
           X**3 * Q(1, 3) + X**2 * Q(1, 3) - X]
    out += [_rational(rng, rng.randint(3, 8)) for _ in range(10)]
    out += _non_separated()[:6]
    return out


def test_exact_fallback_when_no_prime_answers(monkeypatch):
    inputs = _inputs_with_denominators()
    want = [_results(p) for p in inputs]
    monkeypatch.setattr(criteria, "separation_mod_p", lambda rad, p: None)
    exact = criteria.poly_gcd
    separation_gcds = []

    def counted(f, g):
        separation_gcds.append(1)
        return exact(f, g)

    monkeypatch.setattr(criteria, "poly_gcd", counted)
    assert [_results(p) for p in inputs] == want
    assert len(separation_gcds) >= len(inputs)  # the fallback ran for each


def test_exact_fallback_when_the_prime_divides_a_denominator(monkeypatch):
    inputs = _inputs_with_denominators()
    want = [_results(p) for p in inputs]
    monkeypatch.setattr(polynomials, "GCD_PRIMES", (3,))
    assert [_results(p) for p in inputs] == want
    # inputs whose value polynomial has no image modulo 3
    skipped = [p for p, (_, cs, _) in zip(inputs, want)
               if any(c.denominator % 3 == 0
                      for c in cs.separation_poly.coeffs)]
    assert X**3 - X in skipped  # its value polynomial is t^2 - 4/27
    assert len(skipped) >= 3


def test_squarefree_mod():
    q = GCD_PRIMES[0]
    assert not _squarefree_mod([1, 0, 3], 3)  # q divides lc
    assert not _squarefree_mod([1, 0, 0, 1], 3)  # f' = 3X^2 vanishes mod 3
    assert not _squarefree_mod([2, -3, 0, 1], q)  # (X - 1)^2 (X + 2)
    assert _squarefree_mod([-2, 0, 1], q)


def test_constraint_gcd_stops_at_beta_minus_one(monkeypatch):
    calls = []
    exact = classify_mod.poly_gcd

    def counted(f, g):
        calls.append(1)
        return exact(f, g)

    monkeypatch.setattr(classify_mod, "poly_gcd", counted)
    rng = random.Random(20)
    for _ in range(3):
        p = _dense(rng, 20)
        assert _constraint_gcd(p) == X - 1
        # beta - 1 admits only the identity, in either mode
        assert classify_mod.witness_search(p, "any_c") is None
        assert classify_mod.witness_search(p, "c_equals_1") is None
    assert calls == []  # the closed form and the early exit take no gcd


def _fold_constraint_gcd(p: Poly) -> Poly:
    """The constraint gcd as a fold of exact gcds of beta^j - beta^n over
    the j with q_j != 0, q_j read off ``taylor_shift``."""
    n = p.degree
    q = p.taylor_shift(-p.coeff(n - 1) / (n * p.lc))
    g = Poly.zero()
    for j in range(n - 1):
        if q.coeff(j):
            g = polynomials.poly_gcd(g, Poly.from_support({j: 1, n: -1}))
    return g


def _strip(g: Poly, root: Q) -> Poly:
    while g.degree >= 1 and g.evaluate(root) == 0:
        g = g.exact_div(Poly.of(-root, 1))
    return g


def _reference_search(p: Poly, mode: str):
    """(order, beta) of the map the search must find, or None: the fold's
    gcd with the roots 1 and 0 stripped, cut down to the c = 1 maps by
    gcd with beta^n - 1, then its least rational root, else its least
    cyclotomic divisor."""
    n = p.degree
    g = _fold_constraint_gcd(p)
    if g.is_zero:
        if mode == "any_c" or n % 2 == 0:
            return 2, Q(-1)
        return (n, None) if n > 1 else None
    g = _strip(_strip(g, Q(1)), Q(0))
    if mode == "c_equals_1":
        g = polynomials.poly_gcd(g, Poly.from_support({n: 1, 0: -1}))
    if g.degree < 1:
        return None
    roots = sorted((r for r, _ in polynomials.rational_roots(g)
                    if r not in (0, 1)), key=lambda r: (abs(r), r))
    if roots:
        return (2 if roots[0] == -1 else 1), roots[0]
    for r in range(2, max(n, 2) + 1):
        try:
            g.exact_div(polynomials.cyclotomic(r))
        except ValueError:
            continue
        return r, None
    return None


def _search_inputs() -> list[Poly]:
    rng = random.Random(23)
    out = [X**6 + X**3, X**4 - 4 * X, X**8 + X**4 + 2, X**9 + X**3,
           X**6 - 2 * X**2, X**2, X**3, X**12 + X**8 + X**4, X**10 - X**5]
    # pure powers about a center, where the gcd is 0
    out += [(X - Q(rng.randint(-9, 9), rng.randint(1, 5))) ** n
            * Q(rng.randint(1, 9), rng.randint(1, 9)) for n in range(2, 12)]
    for _ in range(60):
        n = rng.randint(3, 24)
        # sparse: a few exponents sharing a common step, then shifted
        step = rng.choice([1, 2, 3, 4, 5])
        terms = {n * step: 1}
        for e in rng.sample(range(0, n * step - 1, step),
                            min(3, n - 1)):
            terms[e] = rng.randint(-5, 5)
        p = Poly.from_support(terms)
        out.append(p)
        out.append(p.taylor_shift(Q(rng.randint(-7, 7), rng.randint(1, 4)))
                   * Q(rng.randint(1, 6), rng.randint(1, 6)))
    out += [_dense(rng, rng.randint(2, 16)) for _ in range(30)]
    out += [_rational(rng, rng.randint(2, 12)) for _ in range(20)]
    return out


def test_constraint_gcd_matches_the_fold():
    for p in _search_inputs():
        assert _constraint_gcd(p) == _fold_constraint_gcd(p), p


# (P, its constraint beta^m (beta^d - 1) as (m, d), the any_c and the
# c_equals_1 answers as (order, beta)); c = 1 cuts d to gcd(d, n)
CLOSED_FORM_CASES = [
    (X**18 + X**9 + 1, (0, 9), (3, None), (3, None)),
    (X**15 + 2, (0, 15), (3, None), (3, None)),
    (X**16 + X, (1, 15), (3, None), None),
    (X**25 + 3, (0, 25), (5, None), (5, None)),
    (X**27 + X**2, (2, 25), (5, None), None),
    (X**35 + X**10, (10, 25), (5, None), (5, None)),
    (X**49 + 1, (0, 49), (7, None), (7, None)),
    (X**50 + X, (1, 49), (7, None), None),
    (X**8 + X**2 + 1, (0, 2), (2, Q(-1)), (2, Q(-1))),
    (X**7 + X**3, (3, 4), (2, Q(-1)), None),
    (X**15 + X**5, (5, 10), (2, Q(-1)), (5, None)),
    (X**27 + X**9, (9, 18), (2, Q(-1)), (3, None)),
    (X**15 + X**6 + 1, (0, 3), (3, None), (3, None)),
    (X**21 + X**12, (12, 9), (3, None), (3, None)),
    (X**10 + X**3, (3, 7), (7, None), None),
    (X**9 + X**4 + X**2, (2, 1), None, None),
]


def test_witness_search_matches_the_reference():
    rng = random.Random(29)
    cases = [(p, None) for p in _search_inputs()]
    for p, md, any_c, c_one in CLOSED_FORM_CASES:
        m, d = md
        want = {"any_c": any_c, "c_equals_1": c_one}
        shifted = (p.taylor_shift(Q(rng.randint(-9, 9), rng.randint(2, 9)))
                   * Q(rng.choice([-1, 1]) * rng.randint(1, 9),
                       rng.randint(1, 9)))
        for q in (p, shifted):  # a rational center and content
            assert _constraint_gcd(q) == Poly.from_support({m: -1, m + d: 1})
            cases.append((q, want))
    for p, want in cases:
        for mode in ("any_c", "c_equals_1"):
            w = classify_mod.witness_search(p, mode)
            got = None if w is None else (w.order, w.beta)
            assert got == _reference_search(p, mode), (p, mode)
            if want is not None:
                assert got == want[mode], (p, mode)


def test_degree_64_classify_is_fast():
    p = _dense(random.Random(64), 64)
    start = time.perf_counter()
    v = classify(p)
    assert time.perf_counter() - start < 10  # 26 s with the exact gcd
    assert consistency_audit(p, v)["ok"]


def _count_calls(monkeypatch, *names: str) -> dict:
    """Count the calls ``critical_structure`` makes to these names."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(criteria, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(criteria, name, counted)
    return calls


def test_separated_input_builds_no_exact_value_polynomial(monkeypatch):
    calls = _count_calls(monkeypatch, "resultant", "lagrange_interpolate")
    p = _dense(random.Random(20), 20)
    cs = critical_structure(p)
    assert cs.is_separated
    # neither separation nor the zero value needed an exact resultant
    assert calls == {"resultant": 0, "lagrange_interpolate": 0}
    x = sympy.Symbol("x")
    want = sympy.resultant(_to_sympy(cs.radical, x).as_expr(),
                           T - _to_sympy(p, x).as_expr(), x)
    assert cs.separation_poly == _from_sympy(sympy.Poly(want, T, domain="QQ"))
    assert calls == {"resultant": cs.count + 1, "lagrange_interpolate": 1}


def test_separated_input_takes_no_exact_step(monkeypatch):
    calls = _count_calls(monkeypatch, "resultant", "poly_gcd")
    yun_gcds = []
    exact = polynomials.poly_gcd

    def counted(f, g):
        yun_gcds.append(1)
        return exact(f, g)

    # squarefree_parts certifies P and P' squarefree modulo a prime, so
    # Yun's algorithm takes no gcd either
    monkeypatch.setattr(polynomials, "poly_gcd", counted)
    rng = random.Random(21)
    for _ in range(3):
        cs = critical_structure(_dense(rng, 20))
        assert cs.is_separated and not cs.has_zero_value
    assert calls == {"resultant": 0, "poly_gcd": 0}
    assert yun_gcds == []


def _zero_valued() -> list[Poly]:
    rng = random.Random(17)
    out = [X**3 - 3 * X + 2, X**5 + X**2, (X - 1) ** 2 * (X + 2),
           X**4 - 2 * X**2 + 1, X**6 - 2 * X**2]
    for _ in range(6):
        a = Q(rng.randint(-5, 5), rng.randint(1, 4))
        k = rng.randint(2, 4)
        out.append((X - a) ** k * _rational(rng, rng.randint(1, 6)))
    return out


def test_zero_value_takes_no_exact_resultant(monkeypatch):
    calls = _count_calls(monkeypatch, "resultant")
    for p in _zero_valued():
        calls["resultant"] = 0
        cs = critical_structure(p)
        assert cs.has_zero_value, p
        # a non-separated P builds its exact value polynomial from l + 1
        # resultants; nothing else takes one
        assert calls["resultant"] == (0 if cs.is_separated
                                      else cs.count + 1), p


def test_zero_value_matches_the_exact_resultant():
    rng = random.Random(19)
    zero_valued = _zero_valued()
    # lambda P(X + s) has the critical values of P times lambda
    zero_valued += [
        p.taylor_shift(Q(rng.randint(-7, 7), rng.randint(1, 5)))
        * Q(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
        for p in list(zero_valued)]
    others = _separated_inputs()[:20] + _non_separated()[:8]
    for p in zero_valued + others:
        cs = critical_structure(p)
        assert cs.has_zero_value == (
            polynomials.resultant(cs.radical, p) == 0), p
    assert all(critical_structure(p).has_zero_value for p in zero_valued)


def _reference_structure(p: Poly) -> tuple:
    """Every ``CriticalStructure`` field as the structure was built
    before one image certified P' and P: ``squarefree_parts`` splits P'
    and P, the radical's value-polynomial image at the same prime decides
    separation, and the exact gcd decides when that image is not
    squarefree."""
    dp = p.derivative()
    parts = tuple(polynomials.squarefree_parts(dp))
    rad = math.prod((f for f, _ in parts), start=Poly.of(1))
    profile = sorted((m for f, m in parts for _ in range(f.degree)),
                     reverse=True)
    root_parts = tuple(polynomials.squarefree_parts(p))
    _, q, r, a = _reduced(p, rad)
    separated = _squarefree_mod(_value_poly_mod(r, a, q), q)
    if not separated:
        sep = criteria._separation_poly(rad, p)
        separated = polynomials.poly_gcd(sep, sep.derivative()).degree == 0
    return (p, dp, parts, root_parts, rad, rad.degree, tuple(profile),
            separated, any(m > 1 for _, m in root_parts))


def _fields(cs) -> tuple:
    return tuple(getattr(cs, f.name) for f in dataclasses.fields(cs))


def _integral(f: Poly) -> Poly:
    return Poly.of(0, *(c / (i + 1) for i, c in enumerate(f.coeffs)))


def _structure_inputs() -> list[Poly]:
    rng = random.Random(29)
    out = [_dense(rng, d) for d in list(range(2, 13)) + [16, 24, 32, 48, 64]]
    out += [_rational(rng, rng.randint(2, 40)) for _ in range(12)]
    for _ in range(12):
        # sparse: X^n + a X^k + b, some of them shifted
        n = rng.randint(3, 64)
        p = X**n + rng.randint(-5, 5) * X**rng.randint(1, n - 1) \
            + rng.randint(-5, 5)
        out.append(p.taylor_shift(rng.choice([0, Q(1, 3), -2])))
    for _ in range(12):
        # P' with a repeated factor, so its image is never squarefree;
        # the constant decides whether that critical point has value 0
        a = Q(rng.randint(-4, 4), rng.randint(1, 3))
        k = rng.randint(2, 4)
        p = _integral((X - a) ** k * _dense(rng, rng.randint(0, 8)))
        out += [p - p.evaluate(a), p + rng.randint(1, 9)]
    out += [X**6 - 2 * X**2, (X - 1) ** 3 * (X + 2) + 5]
    return out + _q_unlucky() + _zero_valued() + _non_separated()[:10]


def test_critical_structure_matches_the_split_reference():
    inputs = _structure_inputs()
    repeated = [p for p in inputs
                if critical_structure(p).count < p.degree - 1]
    assert len(repeated) >= 20  # the image of P' certifies nothing there
    for p in inputs:
        assert _fields(critical_structure(p)) == _reference_structure(p), p
