"""Squarefree splitting against sympy.

``squarefree_parts`` is the squarefree routine: it certifies p
squarefree modulo ``GCD_PRIMES[0]`` when it can and runs Yun's algorithm
over Q otherwise. ``radical`` is the product of its factors.
``critical_structure`` asks the value-polynomial image of P'/lc(P')
modulo a prime first: a squarefree image certifies P' squarefree, a
nonzero constant term certifies P squarefree, and ``squarefree_parts``
splits only what the image leaves open. ``has_zero_value`` means P is
not squarefree, since P has a repeated root exactly when 0 is a critical
value. A derandomized hypothesis suite draws products of powers of
random rational factors up to degree 64 and compares the splittings of
P and P' with sympy. ``separation_mod_p`` is stubbed there, so that no
exact value polynomial is built: the stub takes separation as given
wherever its argument is squarefree by sympy and never certifies a
nonzero constant term, so ``has_zero_value`` always comes from
``squarefree_parts`` and is checked. Fixed inputs that are squarefree
over Q but not certified modulo q, because q divides the leading
coefficient or two roots meet modulo q, must still come back as one
factor of multiplicity 1, from Yun's algorithm. Count tests pin that
``critical_structure`` splits P' and P at most once for its readers, and
not at all when the image certifies both: ``affine_symmetry`` and the
scaled curve census take no split of their own.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction as Q
from unittest import mock

import pytest

from uniqpoly import cli, criteria, polynomials
from uniqpoly.classify import classify
from uniqpoly.polynomials import (
    GCD_PRIMES,
    Poly,
    X,
    _squarefree_mod,
    radical,
    rational_roots,
    squarefree_parts,
)

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

T = sympy.Symbol("t")
QQ_COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=4)
# mostly simple factors, so that some products are squarefree and take
# the certificate modulo q
MULTIPLICITIES = st.sampled_from((1, 1, 1, 1, 2, 3, 4))


def _to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], T, domain="QQ")


def _from_sympy(sp) -> Poly:
    return Poly.of(*(Q(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())))


@st.composite
def _factor(draw) -> Poly:
    degree = draw(st.integers(1, 6))
    cs = draw(st.lists(QQ_COEFFS, min_size=degree, max_size=degree))
    return Poly.of(*cs, draw(QQ_COEFFS.filter(bool)))


@st.composite
def _products(draw) -> Poly:
    p = Poly.of(draw(QQ_COEFFS.filter(bool)))
    for f, m in draw(st.lists(st.tuples(_factor(), MULTIPLICITIES),
                              min_size=1, max_size=8)):
        if p.degree + m * f.degree > 64:
            break
        p = p * f**m
    return p


def _check(p: Poly) -> None:
    sp = _to_sympy(p)
    _, want = sp.sqf_list()
    assert sorted(squarefree_parts(p), key=lambda fm: fm[1]) == sorted(
        ((_from_sympy(f.monic()), m) for f, m in want),
        key=lambda fm: fm[1]), p
    g = sympy.gcd(sp, sp.diff(T))
    assert radical(p) == _from_sympy(sympy.quo(sp, g).monic()), p
    if p.degree >= 2:
        # the separation verdict is not under test here: taking it as
        # certified keeps critical_structure from building the exact
        # value polynomial of a non-separated P, seconds at degree 50.
        # The stub certifies a squarefree argument only as sympy does,
        # and never a nonzero critical value
        with mock.patch.object(criteria, "separation_mod_p",
                               lambda rad, p: (_to_sympy(rad).is_sqf, False)):
            cs = criteria.critical_structure(p)
        assert cs.has_zero_value == (sp.sqf_part().degree() < p.degree), p
        _, want = sp.diff(T).sqf_list()
        assert sorted(cs.derivative_parts, key=lambda fm: fm[1]) == sorted(
            ((_from_sympy(f.monic()), m) for f, m in want),
            key=lambda fm: fm[1]), p


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(_products())
def test_squarefree_parts_match_sympy(p):
    _check(p)


def _q_unlucky() -> list[Poly]:
    q = GCD_PRIMES[0]
    return [X * (X - q), (X - 1) * (X - (q + 1)) * (X + 2), q * X**2 + 1,
            X**3 - 3 * q * X]


def test_q_unlucky_inputs_go_through_yun(monkeypatch):
    exact = polynomials.poly_gcd
    calls = []

    def counted(f, g):
        calls.append(1)
        return exact(f, g)

    monkeypatch.setattr(polynomials, "poly_gcd", counted)
    for p in _q_unlucky():
        assert not _squarefree_mod(p.prim, GCD_PRIMES[0]), p
        calls.clear()
        assert squarefree_parts(p) == [(p.monic(), 1)], p
        assert calls, p  # Yun's algorithm ran
        _check(p)
        assert not criteria.critical_structure(p).has_zero_value, p
        want = sorted((Q(int(r.p), int(r.q)), m)
                      for r, m in _to_sympy(p).ground_roots().items())
        assert rational_roots(p) == want, p


def _count_splits(monkeypatch) -> list[Poly]:
    seen: list[Poly] = []
    exact = polynomials.squarefree_parts

    def counted(p):
        seen.append(p)
        return exact(p)

    # criteria binds the name itself; radical and rational_roots look it
    # up in polynomials
    monkeypatch.setattr(criteria, "squarefree_parts", counted)
    monkeypatch.setattr(polynomials, "squarefree_parts", counted)
    return seen


def test_classify_splits_p_once_before_its_replay(monkeypatch):
    # the image of P' is squarefree but has a zero constant term, since 0
    # is a critical value: critical_structure splits P alone, not P';
    # affine_symmetry reads P's radical off that split, and only the
    # independent replay of the zero-set-symmetry witness splits P again
    p = X * (X - 1)**2 * (X + 1)
    seen = _count_splits(monkeypatch)
    v = classify(p)
    assert [f.degree for f in seen] == [4, 4]
    assert any(w.case == "zero-set-symmetry"
               for w in v.witnesses.values() if w is not None)


def test_scaled_census_reads_the_split_of_p_prime(monkeypatch, capsys):
    # P' = (X - 1)^2 (4X + 5) is not squarefree, so a second split would
    # rerun Yun's algorithm; the census reads its rational critical
    # points off the factors critical_structure kept
    p = (X - 1)**3 * (X + 2) + 5
    seen = _count_splits(monkeypatch)
    assert cli.main(["curve", "--c=2", "--", "(X-1)^3(X+2) + 5"]) == 0
    census = json.loads(capsys.readouterr().out)["scaled_curve"]["census"]
    assert census["critical_points"] == ["-5/4", "1"]
    dp = p.derivative().monic()
    assert sum(f.monic() == dp for f in seen) == 1


def test_certified_input_takes_one_modular_euclid_and_no_split(monkeypatch):
    # one image certifies P' squarefree, the values distinct and P
    # squarefree: one Euclid in F_q, on that image, and no split
    rng = random.Random(5)
    exact = polynomials._squarefree_mod
    euclids = []

    def counted(f, q):
        euclids.append(len(f) - 1)
        return exact(f, q)

    monkeypatch.setattr(polynomials, "_squarefree_mod", counted)
    seen = _count_splits(monkeypatch)
    for degree in (5, 20, 64):
        p = Poly.of(*(rng.randint(-9, 9) for _ in range(degree)), 3)
        euclids.clear()
        cs = criteria.critical_structure(p)
        assert cs.is_separated and not cs.has_zero_value, p
        assert cs.derivative_parts == ((p.derivative().monic(), 1),)
        assert cs.root_parts == ((p.monic(), 1),)
        assert euclids == [degree - 1]
    assert seen == []
