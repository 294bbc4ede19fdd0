"""Value-sharing curves: identities, census, genus, irreducibility, probes."""

from __future__ import annotations

import random
from fractions import Fraction as Q

import pytest
import sympy

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
from uniqpoly.polynomials import Poly, X
from uniqpoly.trivariate import tri


def _value_at(t, x, y, z):
    return sum(c * x**i * y**j * z**k for (i, j, k), c in t.terms.items())


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
    assert shared_value_curve(X**2) == tri({(1, 0, 0): 1, (0, 1, 0): 1})
    # constant term drops out
    assert shared_value_curve(X**2 + 7) == shared_value_curve(X**2)
    F = shared_value_curve(X**3 - 3 * X)
    assert F == tri({(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1, (0, 0, 2): -3})


def test_scaled_curve_small():
    G = scaled_value_curve(X**2, 2)
    assert G == tri({(2, 0, 0): 1, (0, 2, 0): -2})
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
