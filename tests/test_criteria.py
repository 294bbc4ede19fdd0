"""Support indices, critical structure, affine symmetries, the value-orbit flag."""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q

import pytest

from uniqpoly import criteria
from uniqpoly.criteria import (
    _separation_poly,
    LinearFactor,
    affine_symmetry,
    critical_structure,
    ext_gcd_combo,
    index_data,
    linear_factor_scan,
    normalize,
    quartic_value_orbit,
)
from uniqpoly.curves import Configuration
from uniqpoly.orders import statement_grants
from uniqpoly.polynomials import (
    GCD_PRIMES,
    Poly,
    X,
    _reduce_mod,
    _rem_mod,
    _squarefree_mod,
    _value_poly_mod,
    radical,
    separation_mod_p,
)


def test_normalize_identity_and_shift():
    p = X**4 - 4 * X + 4
    nf = normalize(p)
    assert nf.centered == p and nf.shift == 0
    assert p.taylor_shift(nf.shift) == 1 * nf.centered
    assert nf.centered.coeff(1) == -4 and nf.centered.coeff(0) == 4

    q = p.taylor_shift(1)  # q(X) = p(X + 1), so centering undoes the shift
    nf2 = normalize(q)
    assert nf2.shift == -1
    assert nf2.centered == p

    r = 3 * q
    nf3 = normalize(r)
    assert r.taylor_shift(nf3.shift) == 3 * nf3.centered and nf3.centered == p


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
    assert cs.radical.degree == 3
    assert cs.profile == (1, 1, 1)
    assert cs.separation_poly == X**3 + 27
    assert cs.is_separated and not cs.has_zero_value

    cs = critical_structure(X**5 + X**3 + 1)
    assert cs.radical.degree == 3
    assert cs.profile == (2, 1, 1)

    # double critical point at 0 and 2, equal-looking multiplicities
    p = 6 * X**5 - 15 * X**4 + 10 * X**3 + 1
    cs = critical_structure(p)
    assert cs.profile == (2, 2)
    assert cs.radical.degree == 2
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


def _reference_res(a: list, b: list, q: int) -> int:
    """Res(a, b) in F_q for a nonzero, by Euclid, from
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r)
    for r = a mod b."""
    res = 1
    while len(b) > 1:
        r = _rem_mod(a, b, q)
        if not r:
            return 0
        da, db = len(a) - 1, len(b) - 1
        if da & db & 1:
            res = -res
        res = res * pow(b[-1], da - (len(r) - 1), q) % q
        a, b = b, r
    return res * pow(b[0], len(a) - 1, q) % q if b else 0


def _reference_image(r: list, a: list, q: int) -> list:
    """The value polynomial modulo q the older way: the l + 1 resultants
    Res(r, t - a) in F_q at t = 0..l, interpolated by Newton's divided
    differences, for r monic of degree l < q and a reduced modulo r."""
    low = a or [0]
    high = [-c % q for c in low[1:]]
    dd = [_reference_res(r, [(t - low[0]) % q] + high, q)
          for t in range(len(r))]
    l = len(dd) - 1
    for k in range(1, l + 1):
        inv = pow(k, -1, q)  # the nodes are i and i - k
        for i in range(l, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) * inv % q
    acc: list = []
    for k in range(l, -1, -1):
        # acc := acc * (X - k) + dd[k]
        nxt = [0] + acc
        for i, c in enumerate(acc):
            nxt[i] = (nxt[i] - k * c) % q
        nxt[0] = (nxt[0] + dd[k]) % q
        acc = nxt
    return acc


def _reduced(p: Poly, rad: Poly | None = None) -> tuple:
    """(rad, q, r, a): the monic radical of P' unless ``rad`` is given,
    the prime ``separation_mod_p`` takes, and rad and P mod rad reduced
    modulo it."""
    rad = radical(p.derivative()) if rad is None else rad
    q = next(q for q in GCD_PRIMES if q > rad.degree and all(
        c.denominator % q for c in rad.coeffs + p.coeffs))
    r = _reduce_mod(rad, q)
    return rad, q, r, _rem_mod(_reduce_mod(p, q), r, q)


def _check_modular_image(p: Poly) -> list:
    """The modular image of P's value polynomial equals the reference, and
    ``separation_mod_p`` answers from it, for the radical of P' and for
    P'/lc(P'), which ``critical_structure`` asks first; returns the
    radical's image."""
    images = []
    for rad in (radical(p.derivative()), p.derivative().monic()):
        rad, q, r, a = _reduced(p, rad)
        image = _value_poly_mod(r, a, q)
        assert image == _reference_image(r, a, q), p
        assert separation_mod_p(rad, p) == (_squarefree_mod(image, q),
                                            image[0] != 0), p
        images.append(image)
    return images[0]


def test_modular_image_matches_the_reference():
    # separation is decided on the value polynomial modulo a prime, which
    # must agree with the resultant-and-interpolation route term by term
    rng = random.Random(12)
    inputs = [X**4 + X + 1, X**2, X**3 - 3 * X**2, X**6 - 2 * X**2,
              (X**2 - 1) ** 3 + X**2, X**5 * Q(1, 3) - X * Q(7, 2)]
    inputs += [Poly.of(*(rng.randint(-9, 9) for _ in range(d)), 1)
               for d in (3, 8, 16, 33)]
    for p in inputs:
        image = _check_modular_image(p)
        assert len(image) == radical(p.derivative()).degree + 1
        assert image[-1] == 1


def test_modular_image_slots_never_carry():
    # every residue at q - 1 makes each packed product slot as large as
    # it can be, also at l = 200, far above the degree cap
    q = GCD_PRIMES[0]
    for l in (64, 200):
        r, a = [q - 1] * l + [1], [q - 1] * l
        assert _value_poly_mod(r, a, q) == _reference_image(r, a, q)


def _symmetry(p: Poly):
    """(center, order, support) of the radical's index data, or None."""
    return _as_symmetry(affine_symmetry(index_data(p), critical_structure(p)))


def _as_symmetry(rad_idx):
    if rad_idx is None:
        return None
    return (rad_idx.center, rad_idx.projective_symmetry_order,
            rad_idx.support)


def test_affine_symmetry_orders():
    # (center, order) of each zero-set symmetry
    assert _symmetry(X**3 - X)[:2] == (0, 2)
    assert _symmetry(X**3 - 1)[:2] == (0, 3)
    assert _symmetry(X * (X - 1) * (X - 3)) is None
    # multiplicities do not matter for the root-set symmetry
    assert _symmetry(X**2 * (X - 1) ** 5 * (X + 1))[:2] == (0, 2)
    # single distinct root admits every rotation
    assert _symmetry((X - 2) ** 4)[:2] == (2, 0)
    # roots 1 +- 2i, centered at 1
    assert _symmetry(X**2 - 2 * X + 5)[:2] == (1, 2)


def _reference_symmetry(p: Poly):
    """The zero-set symmetry computed directly: the monic radical, shifted
    to its centroid mu, and the gcd of k - i over its support."""
    rad = radical(p)
    k = rad.degree
    if k == 1:
        return -rad.coeff(0), 0, (1,)
    mu = -rad.coeff(k - 1) / k
    shifted = rad.taylor_shift(mu)
    g = 0
    for i in shifted.support():
        g = math.gcd(g, k - i)
    if g <= 1:
        return None
    return mu, g, shifted.support()


def _symmetry_corpus() -> list[Poly]:
    rng = random.Random(11)
    out = [X * (X - 1) ** 2 * (X + 1), (X - 2) ** 4, X**3 - X,
           (X**2 + 1) ** 2 * (X**2 - 1), (X**3 - 2) * X**2]
    for _ in range(120):
        p = Poly.of(1)
        r = rng.choice([1, 2, 3, 4])
        top = rng.choice([1, 3])  # about half the products are squarefree
        for _ in range(rng.randint(1, 3)):
            a = Q(rng.randint(-4, 4), rng.randint(1, 3))
            base = rng.choice([X - a, X**r - a, X**r + X, X**2 + a])
            p = p * base ** rng.randint(1, top)
        if rng.random() < 0.3:
            p = p * X ** rng.randint(1, 2)
        # a shift and a rational scaling move the zero set and its center
        s = Q(rng.randint(-7, 7), rng.randint(1, 5))
        c = Q(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
        p = p.taylor_shift(s) * c
        if 2 <= p.degree <= 24:
            out.append(p)
    return out


def test_affine_symmetry_matches_the_shifted_radical():
    corpus = _symmetry_corpus()
    assert len(corpus) >= 100
    repeated = symmetric = 0
    for p in corpus:
        cs = critical_structure(p)
        got = _as_symmetry(affine_symmetry(index_data(p), cs))
        assert got == _reference_symmetry(p), p
        repeated += cs.has_zero_value
        symmetric += got is not None
    # both routes, squarefree and repeated roots, and both answers occur
    assert 30 <= repeated <= len(corpus) - 30
    assert 30 <= symmetric <= len(corpus) - 30


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


def _shared_grants(cs) -> tuple[bool, bool]:
    return statement_grants(Configuration("shared", cs.profile))


def test_exceptional_flags():
    # the smooth quartic and the two-node quintic are granted algebraic
    # but not brody, which is where classify places their exceptions
    cs = critical_structure(X**4 - 4 * X)
    assert quartic_value_orbit(cs)
    assert _shared_grants(cs) == (True, False) and cs.profile == (1, 1, 1)

    cs = critical_structure(X**4 + X + 1)
    assert not quartic_value_orbit(cs)
    assert _shared_grants(cs) == (True, False) and cs.profile == (1, 1, 1)

    cs = critical_structure(6 * X**5 - 15 * X**4 + 10 * X**3 + 1)
    assert not quartic_value_orbit(cs)
    assert _shared_grants(cs) == (True, False) and cs.profile == (2, 2)

    cs = critical_structure(X**5 + X**3 + 1)
    assert not quartic_value_orbit(cs)
    assert _shared_grants(cs) == (True, True)

    # the w grid rows: X^4 + aX + b has w-orbit values only when b = 0
    for a in (1, -2, 3):
        for b in (1, -1, 2, -2, 3, -3):
            assert not quartic_value_orbit(critical_structure(X**4 + a * X + b))
        assert quartic_value_orbit(critical_structure(X**4 + a * X))


def _flag_by_value_polynomial(p: Poly) -> bool:
    """The w-orbit flag as the exact value polynomial gives it: T^3 - d
    with d != 0."""
    cs = critical_structure(p)
    sep = _separation_poly(cs.radical, p)
    return sep.coeff(2) == 0 and sep.coeff(1) == 0 and sep.coeff(0) != 0


def test_trace_flags_match_the_value_polynomial():
    rng = random.Random(31)
    grid = [X**4 + a * X + b for a in range(-3, 4) for b in range(-3, 4)]
    dense = [Poly.of(*(Q(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(4)), Q(rng.randint(1, 5)))
             for _ in range(40)]
    # lambda P(X + s) keeps the orbit of the values of X^4 + aX
    orbits = [(X**4 + a * X).taylor_shift(Q(rng.randint(-5, 5),
                                            rng.randint(1, 4)))
              * Q(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 5))
              for a in (1, -2, 3, Q(1, 2))]
    # values moved to sum 0, so s1 = 0 while s2 need not be
    centered = [p + _separation_poly(radical(p.derivative()), p).coeff(2) / 3
                for p in dense]
    # and values whose squares sum to 0 while the values do not
    squares = [X**4 + X**2 - 3 * X + 2, X**4 + 2 * X**2 + 2 * X + Q(7, 3),
               X**4 + 3 * X**2 + 3 * X + Q(9, 2)]
    seen = set()
    for p in grid + dense + orbits + centered + squares:
        cs = critical_structure(p)
        if cs.profile != (1, 1, 1):
            continue
        want = _flag_by_value_polynomial(p)
        seen.add(want)
        assert quartic_value_orbit(cs) == want, p
    assert seen == {True, False}



def _exact_traces(p: Poly) -> tuple:
    """s1 and s2, the sums of the critical values and of their squares,
    read off the exact value polynomial T^3 - e1 T^2 + e2 T - e3."""
    sep = _separation_poly(critical_structure(p).radical, p)
    e1, e2 = -sep.coeff(2), sep.coeff(1)
    return e1, e1 * e1 - 2 * e2


def test_integer_traces_have_the_exact_zero_pattern():
    rng = random.Random(37)
    dense = [Poly.of(*(Q(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(4)), Q(rng.randint(1, 5), rng.randint(1, 3)))
             for _ in range(30)]
    base = (dense
            # values moved to sum 0: s1 = 0 alone
            + [p - _exact_traces(p)[0] / 3 for p in dense[:10]]
            # squares summing to 0: s2 = 0 alone
            + [3 * X**4 + 3 * X**2 - X + 1, X**4 + X**2 - 3 * X + 2]
            # the w-orbit quartics: s1 = s2 = 0
            + [X**4 - 4 * X, (X**4 + X).taylor_shift(Q(-2, 5)) * Q(-7, 3)])
    seen = set()
    for p in base:
        # P(k X) has the values of P, and k puts a denominator in rad
        for k in (3, 7):
            q = p.scale_input(k)
            cs = critical_structure(q)
            if cs.profile != (1, 1, 1):
                continue
            assert cs.radical.prim[-1] != 1, q
            s1, s2 = _exact_traces(q)
            got = criteria._value_traces(cs.radical, q)
            assert all(type(t) is int for t in got)
            assert (got[0] == 0, got[1] == 0) == (s1 == 0, s2 == 0), q
            seen.add((s1 == 0, s2 == 0))
    assert seen == {(False, False), (True, False), (False, True), (True, True)}

def test_degree_guards():
    with pytest.raises(ValueError):
        normalize(Poly.of(3))
    with pytest.raises(ValueError):
        critical_structure(X + 1)
