"""Cyclotomic polynomials and the replay of root-of-unity witnesses."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest

from uniqpoly.classify import Witness, verify_witness
from uniqpoly.polynomials import Poly, X, cyclotomic


def test_cyclotomic_pins():
    assert cyclotomic(1) == X - 1
    assert cyclotomic(2) == X + 1
    assert cyclotomic(3) == X**2 + X + 1
    assert cyclotomic(4) == X**2 + 1
    assert cyclotomic(6) == X**2 - X + 1
    assert cyclotomic(12) == X**4 - X**2 + 1


def test_cyclotomic_product_identity():
    for n in (1, 2, 6, 8, 12, 15):
        prod = Poly.of(1)
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic(d)
        assert prod == Poly.from_support({n: 1, 0: -1})


def test_phi_degrees():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 30):
        assert cyclotomic(n).degree == sympy.totient(n)


def _replays(p: Poly, r: int, e: int, center=Q(0)) -> bool:
    return verify_witness(p, Witness(kind="scaling-with-c", order=r,
                                     c_exponent=e, center=center))


def _divides(d: Poly, p: Poly) -> bool:
    try:
        p.exact_div(d)
    except ValueError:
        return False
    return True


def test_zeta_relations():
    # a primitive r-th root of unity z is a root of f exactly when Phi_r
    # divides f
    phi3, phi4, phi5 = cyclotomic(3), cyclotomic(4), cyclotomic(5)
    assert _divides(phi3, X**3 - 1)
    assert _divides(phi3, X**2 + X + 1)
    assert not _divides(phi3, X**2 - 1) and not _divides(phi3, X**2 - X)
    assert _divides(phi4, X * X + 1) and _divides(phi4, X**4 - 1)
    # power wraps modulo r, in the ring and in the replay
    assert _divides(phi5, X**7 - X**2)
    assert _replays(X**7, 5, 7) and _replays(X**7, 5, 2)
    # z^i = z^e exactly when i = e (mod r): the replay's congruence
    for r in range(2, 9):
        phi = cyclotomic(r)
        for i in range(3 * r):
            for e in range(3 * r):
                same = _divides(phi, X**i - X**e)
                assert same == ((i - e) % r == 0), (r, i, e)
                assert _replays(X**i, r, e) == same, (r, i, e)


def test_ring_ops_and_rationals():
    phi6 = cyclotomic(6)
    a = X + 2
    b = a * a - 4 * X - 4  # z^2
    assert _divides(phi6, b - X * X)
    assert not _divides(phi6, Poly.of(Q(3, 2)))
    assert _divides(phi6, X - X)
    # a rational multiple of Phi_r is divisible by it and by nothing else
    assert (Q(3, 2) * phi6).exact_div(phi6) == Poly.of(Q(3, 2))
    assert not _divides(phi6, Q(3, 2) * phi6 + 1)
    # a rational center shifts the support before the congruence is read
    center = Q(3, 2)
    p = ((X**6 + Q(5, 7) * X**3 + 1)).taylor_shift(-center)
    assert _replays(p, 3, 0, center)
    assert not _replays(p, 3, 0)
    assert not _replays(p, 6, 0, center)


def test_eval_at_cyclo():
    phi3, phi4 = cyclotomic(3), cyclotomic(4)
    assert _divides(phi3, X**2 + X + 1)
    assert _divides(phi3, X**3 - 1)
    assert (X**3 - 1).exact_div(phi3) == X - 1
    assert not _divides(phi3, X**3 + 1) and _divides(phi3, X**3 + 1 - 2)
    p = 2 * X**2 - X + 5
    # p(i) = -2 - i + 5 = 3 - i
    assert _divides(phi4, p + X - 3)
    assert (p + X - 3).exact_div(phi4) == Poly.of(2)
    # P(z X) = z^e P(X): X^3 - 1 is fixed by z3, X^3 + X is odd
    assert _replays(X**3 - 1, 3, 0)
    assert not _replays(X**3 + X, 3, 0) and not _replays(X**3 + X, 3, 1)
    assert _replays(X**3 + X, 2, 1) and not _replays(X**3 + X, 2, 0)


def test_root_of_unity_replay_matches_sympy():
    # P0(z X) = z^e P0(X) for z of order r holds exactly when Phi_r
    # divides X^i - X^e for every exponent i of the centered support
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(7)
    seen = {True: 0, False: 0}
    for r in range(2, 13):
        phi = sympy.cyclotomic_poly(r, x)
        for e in range(2 * r):
            for _ in range(3):
                if rng.random() < 0.5:
                    support = {e % r + r * rng.randint(0, 5)
                               for _ in range(rng.randint(1, 4))}
                else:
                    support = {rng.randint(0, 40)
                               for _ in range(rng.randint(1, 4))}
                center = Q(rng.randint(-3, 3), rng.randint(1, 3))
                centered = Poly.from_support(
                    {i: rng.choice((1, -2, Q(3, 5))) for i in support})
                p = centered.taylor_shift(-center)
                w = Witness(kind="scaling-with-c", order=r, c_exponent=e,
                            center=center)
                want = all(sympy.rem(x**i - x**e, phi, x) == 0
                           for i in support)
                assert verify_witness(p, w) == want, (r, e, support)
                seen[want] += 1
    assert seen[True] and seen[False]
