"""Euler characteristic of the value-sharing curves by Riemann–Hurwitz,
an oracle for the order calculus's grants.

The curve P(X) = c·P(Y) is the fibre product of P and c·P over P¹. Over
a point t, let λ be the ramification partition of P over t and μ that
of P over t/c. The normalised fibre product has Σ gcd(a, b) points over
t, summed over a in λ and b in μ, so it ramifies there by
n² − Σ gcd(a, b), and χ = 2n² − Σ_t (n² − Σ gcd(a, b)). For c = 1 the
diagonal, of χ = 2, is taken off. The result is Σ (2 − 2g_i) over the
components of the curve, read only off the multiplicities and which
critical values are paired. So χ > 0 forces a component of genus 0 and
χ ≥ 0 one of genus at most 1 (M. Fried, Michigan Math. J. 17 (1970);
R. M. Avanzi and U. M. Zannier, Compositio Math. 139 (2003)).
"""

from __future__ import annotations

from math import gcd

from uniqpoly.curves import (
    Configuration,
    bezout_irreducibility,
    genus_ordinary,
    singular_census,
)
from uniqpoly.orders import _partitions, enumerate_configurations, statement_grants


def _fibre(n: int, m: int) -> tuple[int, ...]:
    """P's ramification partition over the value of a critical point of
    multiplicity m, the other critical values being distinct from it."""
    return (m + 1,) + (1,) * (n - m - 1)


def euler_characteristic(cfg: Configuration) -> int:
    n, m = cfg.n, cfg.mults
    plain = (1,) * n
    over = [((n,), (n,))]  # t = infinity
    if cfg.kind == "shared":
        over += [(_fibre(n, k), _fibre(n, k)) for k in m]
    else:
        # the pair (i, j) puts v_i and c·v_j over one t
        tau = dict(cfg.pairing)
        over += [(_fibre(n, m[i]), _fibre(n, m[tau[i]]) if i in tau else plain)
                 for i in range(len(m))]
        hit = set(tau.values())
        over += [(plain, _fibre(n, m[j])) for j in range(len(m)) if j not in hit]
    chi = 2 * n * n - sum(n * n - sum(gcd(a, b) for a in lam for b in mu)
                          for lam, mu in over)
    return chi - 2 if cfg.kind == "shared" else chi


def _shared(max_n: int) -> list[Configuration]:
    return [Configuration("shared", m) for n in range(3, max_n + 1)
            for m in _partitions(n - 1) if len(m) >= 2]


def test_shared_grants_are_read_off_the_euler_characteristic():
    # no grant exactly when a genus-0 component exists, algebraic only
    # exactly on the genus-one curves, brody exactly on hyperbolic ones
    configs = _shared(20)
    assert len(configs) == 2067
    for cfg in configs:
        alg, brody = statement_grants(cfg)
        chi = euler_characteristic(cfg)
        assert (not alg) == (chi > 0), cfg
        assert (alg and not brody) == (chi == 0), cfg
        assert brody == (chi < 0), cfg


def test_euler_characteristic_matches_the_census_genus():
    irreducible = 0
    for cfg in _shared(15):
        census = singular_census(cfg)
        if bezout_irreducibility(cfg.degree, census, True).irreducible:
            irreducible += 1
            assert euler_characteristic(cfg) == 2 - 2 * genus_ordinary(
                cfg.degree, census), cfg
    assert irreducible == 493


# Grants χ does not allow, each with why no realisation contradicts it.
OVER_CLAIMS = {
    # The pairing forces c^2 = 1, so c = -1 and P's critical values are
    # v and -v; P is then odd about its center, so X + Y - 2*center
    # divides P(X) + P(Y), and the certificate's ASSUME_NO_LINEAR fails
    # on every realisation: the curve is reducible (ROADMAP items 2, 13).
    ((2, 2), ((0, 1), (1, 0)), 2, (True, False)):
        "every realisation is reducible",
}


def test_scaled_grants_never_claim_more_than_the_euler_characteristic():
    configs = [c for c in enumerate_configurations(13) if c.kind == "scaled"]
    assert len(configs) == 14214
    over = {}
    for cfg in configs:
        grants = statement_grants(cfg)
        chi = euler_characteristic(cfg)
        if (grants[1] and chi >= 0) or (grants[0] and chi > 0):
            over[(cfg.mults, cfg.pairing, chi, grants)] = cfg
    assert set(over) == set(OVER_CLAIMS)
