"""Support indices, critical structure, affine symmetries, exceptional flags."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from uniqpoly.criteria import (
    LinearFactor,
    affine_symmetry,
    critical_structure,
    ext_gcd_combo,
    index_data,
    linear_factor_scan,
    normalize,
    exceptional_flags,
)
from uniqpoly.polynomials import Poly, X


def test_normalize_identity_and_shift():
    p = X**4 - 4 * X + 4
    nf = normalize(p)
    assert nf.centered == p and nf.shift == 0 and nf.scale == 1
    assert nf.centered.coeff(1) == -4 and nf.centered.coeff(0) == 4

    q = p.taylor_shift(1)  # q(X) = p(X + 1), so centering undoes the shift
    nf2 = normalize(q)
    assert nf2.shift == -1
    assert nf2.centered == p

    r = 3 * q
    nf3 = normalize(r)
    assert nf3.scale == 3 and nf3.centered == p


def test_ext_gcd_combo():
    g, combo = ext_gcd_combo([4, 6])
    assert g == 2
    assert sum(c * v for v, c in combo.items()) == 2
    g, combo = ext_gcd_combo([0, 3])
    assert g == 3
    g, combo = ext_gcd_combo([7, 3, 1])
    assert g == 1
    assert sum(c * v for v, c in combo.items()) == 1


def test_index_data_witness_pins():
    # odd polynomial: scaling by -1 multiplies values by -1
    d = index_data(X**7 + X**3 + X)
    assert d.support == (1, 3, 7)
    assert d.symmetry_order == 1
    assert d.projective_symmetry_order == 2
    assert d.low_exp == 1
    assert d.bezout_support is not None
    assert sum(c * v for v, c in d.bezout_support.items()) == 1
    assert d.bezout_shifted is None

    # full rotation symmetry of order 3
    d = index_data(X**6 + X**3)
    assert d.symmetry_order == 3
    assert d.projective_symmetry_order == 3

    # even polynomial: the only scaling is -1, and its multiplier is 1
    d = index_data(X**8 + X**4 + X**2)
    assert d.symmetry_order == 2
    assert d.projective_symmetry_order == 2
    assert d.low_exp == 2

    d = index_data(X**4 - 4 * X)
    assert d.support == (1, 4)
    assert d.symmetry_order == 1
    assert d.projective_symmetry_order == 3
    assert d.tail_gap == 3

    # pure power: infinite projective symmetry group
    d = index_data(X**5)
    assert d.support == (5,)
    assert d.symmetry_order == 5
    assert d.projective_symmetry_order == 0
    assert d.tail_gap is None


def test_index_data_respects_centering():
    p = X**6 + X**3
    q = p.taylor_shift(Q(7, 2)) * 5
    d = index_data(q)
    assert d.symmetry_order == 3
    assert d.center == Q(-7, 2)


def test_critical_structure_pins():
    cs = critical_structure(X**4 - 4 * X)
    assert cs.derivative == 4 * X**3 - 4
    assert cs.radical == X**3 - 1
    assert cs.count == 3
    assert cs.profile == (1, 1, 1)
    assert cs.separation_poly == X**3 + 27
    assert cs.is_separated and not cs.has_zero_value

    cs = critical_structure(X**5 + X**3 + 1)
    assert cs.count == 3
    assert cs.profile == (2, 1, 1)

    # double critical point at 0 and 2, equal-looking multiplicities
    p = 6 * X**5 - 15 * X**4 + 10 * X**3 + 1
    cs = critical_structure(p)
    assert cs.profile == (2, 2)
    assert cs.count == 2
    assert cs.is_separated

    # separation failure: even polynomial of degree 6
    cs = critical_structure(X**6 - 2 * X**2)
    assert not cs.is_separated


def test_critical_structure_zero_value():
    # critical point at 0 with P(0) = 0
    cs = critical_structure(X**3 - 3 * X**2)
    assert cs.has_zero_value


def test_non_monic_separation_polynomial_is_an_error(monkeypatch):
    # a real check, not an assert, so it holds under python -O and a
    # batch reports the line as internal instead of aborting
    from uniqpoly import criteria

    interpolate = criteria.lagrange_interpolate
    monkeypatch.setattr(criteria, "lagrange_interpolate",
                        lambda pts: 2 * interpolate(pts))
    with pytest.raises(RuntimeError, match="monic"):
        critical_structure(X**4 + X + 1).separation_poly


def test_non_monic_modular_image_is_an_error(monkeypatch):
    # separation is decided on the value polynomial modulo a prime, whose
    # image must be monic of degree l just as the exact one is
    from uniqpoly import polynomials

    newton = polynomials._newton_mod
    monkeypatch.setattr(polynomials, "_newton_mod",
                        lambda vals, q: [2 * c % q for c in newton(vals, q)])
    with pytest.raises(RuntimeError, match="monic"):
        critical_structure(X**4 + X + 1)


def test_affine_symmetry_orders():
    s = affine_symmetry(X**3 - X)
    assert s is not None and s.order == 2 and s.center == 0
    s = affine_symmetry(X**3 - 1)
    assert s is not None and s.order == 3 and s.center == 0
    assert affine_symmetry(X * (X - 1) * (X - 3)) is None
    # multiplicities do not matter for the root-set symmetry
    s = affine_symmetry(X**2 * (X - 1) ** 5 * (X + 1))
    assert s is not None and s.order == 2 and s.center == 0
    # single distinct root admits every rotation
    s = affine_symmetry((X - 2) ** 4)
    assert s is not None and s.order == 0 and s.center == 2

    off = affine_symmetry(X**2 - 2 * X + 5)  # roots 1 +- 2i, centered at 1
    assert off is not None and off.center == 1 and off.order == 2


def test_linear_factor_scan():
    # even polynomial: line with multiplier 1, none with multiplier != 1
    scan = linear_factor_scan(index_data(X**8 + X**4 + X**2), "F")
    assert scan.applicable and scan.gap == 4
    assert [f.order for f in scan.factors] == [2]
    assert scan.factors[0].c_rational == 1
    scan = linear_factor_scan(index_data(X**8 + X**4 + X**2), "F_c")
    assert scan.factors == ()

    # odd polynomial: the scaled curve picks up X + Y with c = -1
    scan = linear_factor_scan(index_data(X**7 + X**3 + X), "F_c")
    assert scan.applicable
    assert scan.factors == (LinearFactor(2, 1, Q(-1)),)
    assert linear_factor_scan(index_data(X**7 + X**3 + X), "F").factors == ()

    scan = linear_factor_scan(index_data(X**4 - 4 * X), "F_c")
    assert scan.applicable and scan.gap == 3
    assert scan.factors == (LinearFactor(3, 1, None),)  # multiplier z, z^3 = 1
    assert linear_factor_scan(index_data(X**4 - 4 * X), "F").factors == ()

    for mode in ("F", "F_c"):
        scan = linear_factor_scan(index_data(X**4 + X + 1), mode)
        assert scan.applicable and scan.factors == ()

    # gap 2: factors still reported, but the list is not certified complete
    scan = linear_factor_scan(index_data(X**6 + X**4), "F")
    assert not scan.applicable and scan.gap == 2
    assert scan.factors == (LinearFactor(2, 0, Q(1)),)

    # pure power: no second support exponent, never applicable
    scan = linear_factor_scan(index_data(X**6), "F")
    assert not scan.applicable and scan.gap is None
    assert scan.factors == (LinearFactor(6, 0, Q(1)),)

    with pytest.raises(ValueError):
        linear_factor_scan(index_data(X**4 + X), "shared")


def test_exceptional_flags():
    f = exceptional_flags(critical_structure(X**4 - 4 * X))
    assert f.quartic_w_case and f.quartic_structural and not f.quintic_case

    f = exceptional_flags(critical_structure(X**4 + X + 1))
    assert not f.quartic_w_case
    assert f.quartic_structural

    f = exceptional_flags(
        critical_structure(6 * X**5 - 15 * X**4 + 10 * X**3 + 1))
    assert f.quintic_case and not f.quartic_w_case

    f = exceptional_flags(critical_structure(X**5 + X**3 + 1))
    assert not (f.quartic_w_case or f.quartic_structural or f.quintic_case)

    # the w grid rows: X^4 + aX + b has w-orbit values only when b = 0
    for a in (1, -2, 3):
        for b in (1, -1, 2, -2, 3, -3):
            f = exceptional_flags(critical_structure(X**4 + a * X + b))
            assert not f.quartic_w_case
        f = exceptional_flags(critical_structure(X**4 + a * X))
        assert f.quartic_w_case


def test_degree_guards():
    with pytest.raises(ValueError):
        normalize(Poly.of(3))
    with pytest.raises(ValueError):
        critical_structure(X + 1)


def test_normalize_conditions():
    nf = normalize((X + 1) ** 5)
    assert nf.centered == X**5 and nf.condition_a and nf.condition_b

    nf = normalize(X**3 + X**2)  # X^{n-2} coefficient survives centering
    assert not nf.condition_a

    nf = normalize(X**5 + X + 1)
    assert nf.condition_a and nf.condition_b

    nf = normalize(X**5 + X**2 + 1)
    assert nf.condition_a and not nf.condition_b
