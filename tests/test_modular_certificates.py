"""Certificates modulo a prime, and the O(l^2) interpolation, against sympy.

``critical_structure`` decides separation by checking the monic value
polynomial squarefree modulo a large prime, and ``_constraint_gcd`` stops
at beta - 1 once a prime bounds the gcd's degree by 1; both fall back to
the exact gcd. These tests compare the answers with sympy's and check that
the fallback gives the same verdicts when no prime certifies anything.
"""

from __future__ import annotations

import importlib
import random
import time
from fractions import Fraction as Q

import pytest

from uniqpoly import criteria, polynomials
from uniqpoly.classify import _constraint_gcd, classify, consistency_audit
from uniqpoly.criteria import critical_structure
from uniqpoly.polynomials import (
    Poly,
    X,
    gcd_degree_mod_p,
    poly_gcd,
)

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


def _non_separated() -> list[Poly]:
    rng = random.Random(3)
    out = [X**6 - 2 * X**2, X**4 - 2 * X**2, (X**2 - 1) ** 3 + X**2]
    for _ in range(12):
        q = _dense(rng, rng.randint(2, 6))
        out.append(q.compose(X**2))  # P(a) = P(-a) at paired critical points
        out.append(q.compose(X**2 + X).taylor_shift(rng.randint(-3, 3)))
    out.append(_dense(rng, 16).compose(X**2))
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


def test_gcd_degree_bounds_the_rational_gcd():
    rng = random.Random(5)
    for _ in range(40):
        common = _rational(rng, rng.randint(0, 3)).monic()
        f = (common * _rational(rng, rng.randint(1, 5))).monic()
        g = common * _rational(rng, rng.randint(0, 5))
        bound = gcd_degree_mod_p(f, g)
        assert bound is not None
        assert bound >= poly_gcd(f, g).degree >= common.degree
        assert bound == sympy.gcd(_to_sympy(f), _to_sympy(g)).degree()


def test_gcd_degree_skips_unusable_primes(monkeypatch):
    f = X**2 - Q(4, 9)
    # 3 divides a denominator of f, 5 the numerator of lc(5 f)
    monkeypatch.setattr(polynomials, "GCD_PRIMES", (3,))
    assert gcd_degree_mod_p(f, f.derivative()) is None
    assert gcd_degree_mod_p(X - 1, f) is None
    monkeypatch.setattr(polynomials, "GCD_PRIMES", (5,))
    assert gcd_degree_mod_p(5 * f, X) is None
    # the first prime that qualifies answers
    monkeypatch.setattr(polynomials, "GCD_PRIMES", (3, 5, 2**61 - 1))
    assert gcd_degree_mod_p(5 * f, 3 * X - 2) == 1
    assert gcd_degree_mod_p(5 * f, 3 * X + 1) == 0


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
    inputs += [_dense(rng, 24)]
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
    return classify(p).as_dict(), critical_structure(p), _constraint_gcd(p)


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
    monkeypatch.setattr(criteria, "gcd_degree_mod_p", lambda f, g: None)
    monkeypatch.setattr(classify_mod, "gcd_degree_mod_p", lambda f, g: None)
    assert [_results(p) for p in inputs] == want


def test_exact_fallback_when_the_prime_divides_a_denominator(monkeypatch):
    inputs = _inputs_with_denominators()
    want = [_results(p) for p in inputs]
    monkeypatch.setattr(polynomials, "GCD_PRIMES", (3,))
    assert [_results(p) for p in inputs] == want
    skipped = [p for p, (_, cs, _) in zip(inputs, want)
               if gcd_degree_mod_p(cs.separation_poly,
                                   cs.separation_poly.derivative()) is None]
    assert X**3 - X in skipped  # its value polynomial is t^2 - 4/27
    assert len(skipped) >= 3


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
        calls.clear()
        assert _constraint_gcd(p) == X - 1
        assert len(calls) <= 2  # one per equation, 19, before the stop


def test_degree_64_classify_is_fast():
    p = _dense(random.Random(64), 64)
    start = time.perf_counter()
    v = classify(p)
    assert time.perf_counter() - start < 10  # 26 s with the exact gcd
    assert consistency_audit(p, v)["ok"]
