"""Certificates modulo a prime, and the witness equations, against sympy.

``critical_structure`` decides separation by building the monic value
polynomial modulo a prime below 2^15 and checking it squarefree there
(``_squarefree_mod``), and falls back to the exact gcd. The constant term
of the same image certifies that no critical value is 0; the exact
resultant Res(rad P', P) runs only when it does not. ``_constraint_gcd``
reads the witness equations off the coefficients of P at its center; they
are compared with the X-basis equations solved in sympy. These tests also
check that the fallback gives the same verdicts when no prime certifies
anything.
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
    GCD_PRIMES,
    Poly,
    X,
    _squarefree_mod,
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
        calls.clear()
        assert _constraint_gcd(p) == X - 1
        assert len(calls) <= 2  # one per equation, 19, before the stop


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
    rng = random.Random(21)
    for _ in range(3):
        cs = critical_structure(_dense(rng, 20))
        assert cs.is_separated and not cs.has_zero_value
    assert calls == {"resultant": 0, "poly_gcd": 0}


def _zero_valued() -> list[Poly]:
    rng = random.Random(17)
    out = [X**3 - 3 * X + 2, X**5 + X**2, (X - 1) ** 2 * (X + 2),
           X**4 - 2 * X**2 + 1, X**6 - 2 * X**2]
    for _ in range(6):
        a = Q(rng.randint(-5, 5), rng.randint(1, 4))
        k = rng.randint(2, 4)
        out.append((X - a) ** k * _rational(rng, rng.randint(1, 6)))
    return out


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
