"""Value-sharing curves: identities, census, genus, irreducibility, probes."""

from __future__ import annotations

import json
import random
from fractions import Fraction as Q

import pytest
import sympy

from uniqpoly import cli, curves
from uniqpoly.curves import (
    CensusPoint,
    Configuration,
    IrreducibilityResult,
    bezout_irreducibility,
    genus_ordinary,
    restrict_diagonal,
    scaled_value_curve,
    shared_value_curve,
    singular_census,
    verify_curve_identities,
)
from uniqpoly.parser import parse_poly
from uniqpoly.polynomials import Poly, X
from uniqpoly.trivariate import TriPoly


def _value_at(t, x, y, z):
    return t.content * sum(c * x**i * y**j * z**k
                           for (i, j, k), c in t.prim.items())


def local_multiplicity(t, x0, y0) -> int:
    """Multiplicity of the affine point (x0, y0) on t(x, y, 1), read off
    sympy: the lowest total degree in u, v of t(x0 + u, y0 + v, 1), and 0
    off the curve."""
    u, v = sympy.symbols("u v")
    local = sympy.expand(_value_at(t, x0 + u, y0 + v, 1))
    if local == 0:
        raise ValueError("curve vanishes identically")
    return min(sum(m) for m in sympy.Poly(local, u, v).monoms())


def test_shared_curve_small():
    # (x^2 - y^2)/(x - y) = x + y
    assert shared_value_curve(X**2) == TriPoly({(1, 0, 0): 1, (0, 1, 0): 1})
    # constant term drops out
    assert shared_value_curve(X**2 + 7) == shared_value_curve(X**2)
    F = shared_value_curve(X**3 - 3 * X)
    assert F == TriPoly({(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): -3})


def test_scaled_curve_small():
    G = scaled_value_curve(X**2, 2)
    assert G == TriPoly({(2, 0, 0): 1, (0, 2, 0): -2})
    with pytest.raises(ValueError):
        scaled_value_curve(X**2, 1)
    with pytest.raises(ValueError):
        scaled_value_curve(X**2, 0)


def test_diagonal_restrictions():
    p = X**4 - 4 * X
    assert restrict_diagonal(shared_value_curve(p)) == p.derivative()
    assert restrict_diagonal(scaled_value_curve(p, 3)) == -2 * p


def test_identity_battery_pins():
    for c in (Q(2), Q(-1), Q(5, 7)):
        checks = verify_curve_identities(X**4 - 4 * X, c)
        assert all(checks.values()), [k for k, v in checks.items() if not v]
    checks = verify_curve_identities(X**7, Q(3))  # pure power edge
    assert all(checks.values()), [k for k, v in checks.items() if not v]
    checks = verify_curve_identities(X**5 + 1, Q(2))  # constant-only tail
    assert all(checks.values()), [k for k, v in checks.items() if not v]


def test_identity_battery_random():
    rng = random.Random(404)
    for _ in range(25):
        deg = rng.randint(2, 8)
        cs = [Q(rng.randint(-5, 5)) for _ in range(deg)] + [Q(rng.choice([1, -1, 2, 3]))]
        p = Poly.of(*cs)
        c = rng.choice([Q(2), Q(-1), Q(5, 7), Q(7, 3), Q(-3, 2), Q(4), Q(9, 2)])
        checks = verify_curve_identities(p, c)
        assert all(checks.values()), (p, c, [k for k, v in checks.items() if not v])


def test_configuration_validation():
    Configuration("shared", (2, 1))
    Configuration("scaled", (1, 1, 1), ((0, 1), (1, 2), (2, 0)))
    with pytest.raises(ValueError):
        Configuration("shared", (1, 1), ((0, 1),))
    with pytest.raises(ValueError):
        Configuration("scaled", (1, 1), ((0, 0),))
    with pytest.raises(ValueError):
        Configuration("scaled", (1, 1, 1), ((0, 1), (0, 2)))
    with pytest.raises(ValueError):
        Configuration("other", (1,))


def test_census_shared():
    cfg = Configuration("shared", (2, 2))
    census = singular_census(cfg)
    assert len(census) == 2
    assert all(pt.multiplicity == 2 and pt.ordinary for pt in census)
    # simple critical points leave the shared curve smooth
    assert singular_census(Configuration("shared", (1, 1, 1))) == ()


def test_census_scaled():
    cfg = Configuration("scaled", (2, 1, 1), ((1, 2),))
    census = singular_census(cfg)
    assert census == (CensusPoint("pair:1->2", 2, True),)
    cfg = Configuration("scaled", (3, 1), ((0, 1),))
    census = singular_census(cfg)
    assert census == (CensusPoint("pair:0->1", 2, False),)


def test_genus_pins():
    # smooth cubic
    assert genus_ordinary(3, ()) == 1
    # two ordinary double points on a quartic
    census = singular_census(Configuration("shared", (2, 2)))
    assert genus_ordinary(4, census) == 1
    # one double critical point next to a simple one: rational curve
    for m1 in (2, 3, 4, 5):
        census = singular_census(Configuration("shared", (m1, 1)))
        assert genus_ordinary(m1 + 1, census) == 0
    # three ordinary double points on a quartic: rational
    cyc = Configuration("scaled", (1, 1, 1), ((0, 1), (1, 2), (2, 0)))
    assert genus_ordinary(4, singular_census(cyc)) == 0
    with pytest.raises(ValueError):
        genus_ordinary(4, singular_census(Configuration("scaled", (3, 1), ((0, 1),))))


def test_bezout_pins():
    # smooth quartic, linear factors not excluded: unknown
    res = bezout_irreducibility(4, (), False)
    assert not res.irreducible
    # smooth quartic without linear factors: conics would have to meet on it
    assert bezout_irreducibility(4, (), True).irreducible
    # smooth cubic without linear factors
    assert bezout_irreducibility(3, (), True).irreducible
    # quartic with two ordinary double points
    census = singular_census(Configuration("shared", (2, 2)))
    assert bezout_irreducibility(4, census, True).irreducible
    # quartic with three ordinary double points (the rational one)
    cyc = Configuration("scaled", (1, 1, 1), ((0, 1), (1, 2), (2, 0)))
    assert bezout_irreducibility(4, singular_census(cyc), True).irreducible


def test_bezout_split_not_excluded():
    # a quartic with enough double points admits a conic pair: 4 ordinary
    # double points give sum u*v = 4 = 2*2
    census = tuple(CensusPoint(f"p{i}", 2, True) for i in range(4))
    res = bezout_irreducibility(4, census, True)
    assert not res.irreducible and "2+2" in res.reason
    # non-ordinary slack: one tacnode-like point can absorb the shortfall
    census = (CensusPoint("p0", 2, False), CensusPoint("p1", 2, True))
    res = bezout_irreducibility(4, census, True)
    assert not res.irreducible


def test_local_probes():
    p = 6 * X**5 - 15 * X**4 + 10 * X**3 + 1  # double critical points at 0 and 1
    F = shared_value_curve(p)
    assert local_multiplicity(F, 0, 0) == 2
    assert local_multiplicity(F, 1, 1) == 2
    assert local_multiplicity(F, 2, 3) == 0  # generic point off the curve

    # P(0) = 1, P(1) = 2, so c = 1/2 pairs the critical values
    G = scaled_value_curve(p, Q(1, 2))
    assert _value_at(G, 0, 1, 1) == 0
    assert local_multiplicity(G, 0, 1) == 3
    # the reverse pair needs c = 2
    G2 = scaled_value_curve(p, 2)
    assert local_multiplicity(G2, 1, 0) == 3


def test_local_probe_mismatched_pair():
    # critical points 0 (double) and 1 (simple): P' = x^2 (x - 1)
    p = 3 * X**4 - 4 * X**3  # P' = 12x^2(x - 1), P(0) = 0 is a zero value
    p = p + 5  # lift so no critical value is zero; P(0) = 5, P(1) = 4
    G = scaled_value_curve(p, Q(5, 4))
    assert local_multiplicity(G, 0, 1) == 2  # min(2, 1) + 1


def test_multiplier_must_be_an_int_or_a_fraction():
    with pytest.raises(TypeError, match="coefficients must be ints or Fractions"):
        scaled_value_curve(X**2 + X, 0.1)
    with pytest.raises(TypeError, match="coefficients must be ints or Fractions"):
        verify_curve_identities(X**3 + X, "3")
    # the exact tenth it stands for is accepted
    g = scaled_value_curve(X**2 + X, Q(1, 10))
    assert g.content * g.prim[(0, 2, 0)] == Q(-1, 10)


def _extra_monomial(t: TriPoly, e) -> TriPoly:
    assert e not in t.prim
    return t + TriPoly({e: 1})


def _bumped(t: TriPoly, e) -> TriPoly:
    """t with 1 added to the coefficient of the monomial e it holds."""
    assert e in t.prim
    return t + TriPoly({e: 1})


# p = X^4 - 4X, whose shared curve is X^3 + X^2 Y + X Y^2 + Y^3 - 4 Z^3;
# each change of a constructor, and the identities it must break. Each
# identity shares a first partial with another, so none may hold by
# construction: the curves of another P and single changed coefficients
# must break their identities too
OTHER = X**4 + X**2 - 4 * X
BREAKS = {
    "shared + X^2 Z": ("shared", lambda t: _extra_monomial(t, (2, 0, 1)),
                       {"shared_defining", "shared_dx", "shared_dy",
                        "shared_diagonal", "shared_dz_order"}),
    "shared * 2": ("shared", lambda t: t * 2,
                   {"shared_defining", "shared_dx", "shared_dy",
                    "shared_diagonal", "shared_dz_order"}),
    "shared of another P": ("shared", lambda t: shared_value_curve(OTHER),
                            {"shared_defining", "shared_dx", "shared_dy",
                             "shared_diagonal", "shared_dz_order"}),
    "shared X^2 Y + 1": ("shared", lambda t: _bumped(t, (2, 1, 0)),
                         {"shared_defining", "shared_dx", "shared_dy",
                          "shared_diagonal"}),
    "shared Z^3 + 1": ("shared", lambda t: _bumped(t, (0, 0, 3)),
                       {"shared_defining", "shared_dx", "shared_dy",
                        "shared_diagonal", "shared_dz_order"}),
    # X^3 Y has no Z, so the z-partial and its order stay as they were
    "scaled + X^3 Y": ("scaled", lambda t: _extra_monomial(t, (3, 1, 0)),
                       {"scaled_dx", "scaled_dy", "scaled_diagonal"}),
    "scaled * 2": ("scaled", lambda t: t * 2,
                   {"scaled_dx", "scaled_dy", "scaled_diagonal",
                    "scaled_dz_order"}),
    "scaled of another P": ("scaled", lambda t: scaled_value_curve(OTHER, 2),
                            {"scaled_dx", "scaled_dy", "scaled_diagonal",
                             "scaled_dz_order"}),
    # P + 3 moves only the Z^4 coefficient, which no partial but the
    # z-partial's Z^3 term sees, above the order that check reads
    "scaled of P + 3": ("scaled",
                        lambda t: scaled_value_curve(X**4 - 4 * X + 3, 2),
                        {"scaled_diagonal"}),
    "scaled X^4 + 1": ("scaled", lambda t: _bumped(t, (4, 0, 0)),
                       {"scaled_dx", "scaled_diagonal"}),
    "scaled Y Z^3 + 1": ("scaled", lambda t: _bumped(t, (0, 1, 3)),
                         {"scaled_dy", "scaled_diagonal", "scaled_dz_order"}),
}


@pytest.mark.parametrize("change", sorted(BREAKS))
def test_identity_battery_catches_a_wrong_curve(change, monkeypatch, capsys):
    # a form off by one monomial or one coefficient, by its content alone
    # (which a content-blind == would miss), or built for another P, must
    # fail the identities it touches; the Euler relations hold for any
    # form of the right degree
    kind, alter, broken = BREAKS[change]
    name = f"{kind}_value_curve"
    true = getattr(curves, name)
    monkeypatch.setattr(curves, name, lambda *a: alter(true(*a)))
    p = X**4 - 4 * X
    checks = verify_curve_identities(p, 2)
    assert {k for k, ok in checks.items() if not ok} == broken
    assert len(checks) == 11
    assert cli.main(["curve", "--c=2", "--", "X^4-4*X"]) == cli.EXIT_INTERNAL
    rep = json.loads(capsys.readouterr().out)
    assert rep["identities_pass"] is False
    # the report prints the curve the battery checked
    wrong = alter(true(p) if kind == "shared" else true(p, Q(2)))
    assert rep[f"{kind}_curve"]["defining"] == str(wrong)


def test_one_curve_call_builds_each_curve_and_partial_once(monkeypatch,
                                                           capsys):
    built, partials = [], []
    for kind in ("shared", "scaled"):
        name = f"{kind}_value_curve"
        true = getattr(curves, name)
        monkeypatch.setattr(curves, name, lambda *a, kind=kind, true=true: (
            built.append(kind) or true(*a)))
    exact = TriPoly.partial

    def counted(self, var):
        partials.append((self, var))
        return exact(self, var)

    monkeypatch.setattr(TriPoly, "partial", counted)
    text = "-4*(X + 1/2)^5 + (X + 1/2)^3 - 3/2*(X + 1/2) + 7"
    p = parse_poly(text)
    assert cli.main(["curve", "--c=2", "--", text]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["identities_pass"] is True
    assert sorted(built) == ["scaled", "shared"]
    F, G = shared_value_curve(p), scaled_value_curve(p, 2)
    assert rep["shared_curve"]["defining"] == str(F)
    assert rep["scaled_curve"]["defining"] == str(G)
    assert sorted(("F" if t == F else "G" if t == G else "?", v)
                  for t, v in partials) == [
        ("F", "x"), ("F", "y"), ("F", "z"),
        ("G", "x"), ("G", "y"), ("G", "z")]


def _sympy_form(expr, gens, degree: int) -> dict:
    """The sympy polynomial expr in x, y homogenized to the given degree,
    as a map from (i, j, k) to a Fraction."""
    return {(i, j, degree - i - j): Q(int(c.p), int(c.q))
            for (i, j), c in sympy.Poly(expr, *gens).terms()}


def test_curves_match_sympy():
    # the constructors against arithmetic the package does not share
    x, y = sympy.symbols("x y")
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 10)
        cs = [Q(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
        cs.append(Q(rng.choice([1, -1, 2, -3]), rng.randint(1, 5)))
        p = Poly(cs)
        c = Q(0)
        while c in (0, 1):
            c = Q(rng.randint(-9, 9), rng.randint(1, 6))
        px = sum(sympy.Rational(a.numerator, a.denominator) * x**k
                 for k, a in enumerate(cs))
        py = px.subs(x, y)
        cr = sympy.Rational(c.numerator, c.denominator)
        shared = sympy.cancel((px - py) / (x - y))
        want = TriPoly(_sympy_form(shared, (x, y), n - 1))
        assert shared_value_curve(p) == want, p
        scaled = sympy.expand(px - cr * py)
        want = TriPoly(_sympy_form(scaled, (x, y), n))
        assert scaled_value_curve(p, c) == want, (p, c)
