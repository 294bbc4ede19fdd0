"""Projective geometry of the value-sharing curves.

For P of degree n, two plane curves carry the whole classification problem:

* the shared-value curve, the degree n-1 homogenization of
  (P(x) - P(y)) / (x - y), whose points are the nondiagonal solutions of
  P(x) = P(y);
* the scaled-value curve, the degree n homogenization of P(x) - c P(y)
  for a multiplier c not in {0, 1}.

Both are built coefficient by coefficient (the quotient via geometric sums),
never by polynomial division, and every identity about their partials is
checked exactly.

The singular points of either curve sit at pairs of critical points whose
values match under the multiplier. Under value separation (all critical
values distinct) the census of singular points is forced by the multiplicity
profile and the value pairing alone, which is what the abstract census
computes; genus and irreducibility bounds then follow by counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .polynomials import Poly
from .trivariate import TriPoly, _tri, homogenize_x, homogenize_y


# constructors, on the primitive integer vector of P

def shared_value_curve(p: Poly) -> TriPoly:
    """Homogenization of (P(x) - P(y)) / (x - y), degree n - 1.

    Uses x^k - y^k = (x - y) * sum_{j<k} x^(k-1-j) y^j termwise, so no
    division happens and the constant term of P drops out by itself.
    Each exponent (k - 1 - j, j, n - k) names one k and one j.
    """
    n = p.degree
    if n < 2:
        raise ValueError("need degree at least 2")
    terms: dict[tuple[int, int, int], int] = {}
    for k in p.support():
        a = p.prim[k]
        for j in range(k):
            terms[(k - 1 - j, j, n - k)] = a
    return _tri(terms, p.content)


def scaled_value_curve(p: Poly, c: Fraction | int) -> TriPoly:
    """Homogenization of P(x) - c P(y), degree n: with c = u/v, content/v
    times v prim(x) - u prim(y)."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError("coefficients must be ints or Fractions")
    c = Fraction(c)
    if c == 0 or c == 1:
        raise ValueError("multiplier must avoid 0 and 1")
    n = p.degree
    u, v = c.numerator, c.denominator
    terms: dict[tuple[int, int, int], int] = {}
    for k in p.support():
        a = p.prim[k]
        terms[(k, 0, n - k)] = v * a
        terms[(0, k, n - k)] = terms.get((0, k, n - k), 0) - u * a
    return _tri(terms, p.content / v)


def restrict_diagonal(t: TriPoly) -> Poly:
    """t(x, x, 1) as a univariate polynomial."""
    acc: dict[int, int] = {}
    for (i, j, _k), c in t.prim.items():
        acc[i + j] = acc.get(i + j, 0) + c
    return Poly.from_support(acc) * t.content


# exact identity battery

_XYZ = tuple(TriPoly({e: 1}) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
_X_MINUS_Y = _XYZ[0] - _XYZ[1]


def _dz_order(p: Poly, fz: TriPoly, low: int,
              expected: Callable[[int, int], TriPoly]) -> bool:
    """With m0 the top support exponent of P in [low, n): fz vanishes to
    exact order n - m0 - 1 in z, and the z-free part of the quotient is
    ``expected(m0, (n - m0) prim[m0])``, which puts back the content of
    P. With no such exponent, fz is zero."""
    n = p.degree
    below = [k for k in p.support() if low <= k < n]
    if not below:
        return fz.is_zero
    m0 = max(below)
    if fz.z_multiplicity() != n - m0 - 1:
        return False
    quot = fz.divide_z(n - m0 - 1)
    return (_tri({e: cc for e, cc in quot.prim.items() if e[2] == 0},
                 quot.content) == expected(m0, (n - m0) * p.prim[m0]))


class CurveChecks(dict):
    """The identity battery's name -> bool map, with the two curves it
    checked as ``shared`` and ``scaled``."""

    def __init__(self, checks: dict[str, bool], shared: TriPoly,
                 scaled: TriPoly):
        super().__init__(checks)
        self.shared, self.scaled = shared, scaled


def verify_curve_identities(p: Poly, c: Fraction | int) -> CurveChecks:
    """Check every structural identity both curves must satisfy.

    Returns a name -> bool map; all True for every valid input. Kept as a
    map rather than a bare bool so failures say which identity broke.
    Each of the six first partials is taken once and shared by the
    identities that use it; no identity compares a value with itself.
    """
    n = p.degree
    F = shared_value_curve(p)
    G = scaled_value_curve(p, c)  # which rejects a c of any other type
    c = Fraction(c)
    x, y, z = _XYZ
    x_y = _X_MINUS_Y
    dp = p.derivative()
    ph_x, ph_y = homogenize_x(p, n), homogenize_y(p, n)
    dph_x, dph_y = homogenize_x(dp, n - 1), homogenize_y(dp, n - 1)
    Fx, Fy, Fz = (F.partial(v) for v in "xyz")
    Gx, Gy, Gz = (G.partial(v) for v in "xyz")

    checks = {
        "shared_defining": x_y * F == ph_x - ph_y,
        "shared_dx": x_y * Fx == dph_x - F,
        "shared_dy": x_y * Fy == F - dph_y,
        "shared_euler": x * Fx + y * Fy + z * Fz == (n - 1) * F,
        "shared_diagonal": restrict_diagonal(F) == dp,
        "scaled_dx": Gx == dph_x,
        "scaled_dy": Gy == (-c) * dph_y,
        "scaled_euler": x * Gx + y * Gy + z * Gz == n * G,
        "scaled_diagonal": restrict_diagonal(G) == (1 - c) * p,
    }

    # each z-partial vanishes to exact order n - m0 - 1, where m0 is the
    # top support exponent below n (for the shared curve the constant
    # term never enters)
    checks["shared_dz_order"] = _dz_order(
        p, Fz, 1,
        lambda m0, a: _tri({(m0 - 1 - j, j, 0): a for j in range(m0)}, p.content))
    checks["scaled_dz_order"] = _dz_order(
        p, Gz, 0,
        lambda m0, a: (_tri({(m0, 0, 0): a}, p.content)
                       - _tri({(0, m0, 0): a}, p.content * c)))

    return CurveChecks(checks, F, G)


# abstract configurations and their singular census

@dataclass(frozen=True)
class Configuration:
    """Combinatorial shape of a value-sharing curve.

    ``mults`` lists the critical-point multiplicities (orders of vanishing
    of P'). ``pairing`` holds pairs (i, j) meaning value_i = c * value_j;
    it must be a partial injection without fixed points. The shared kind
    (multiplier 1 with the diagonal removed) admits no pairing here, since
    a pair would mean two equal critical values and the census is only
    complete under value separation.
    """

    kind: str  # "shared" or "scaled"
    mults: tuple[int, ...]
    pairing: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("shared", "scaled"):
            raise ValueError("kind must be 'shared' or 'scaled'")
        if not self.mults or any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be positive")
        l = len(self.mults)
        srcs = [i for i, _ in self.pairing]
        dsts = [j for _, j in self.pairing]
        if any(not (0 <= i < l and 0 <= j < l) for i, j in self.pairing):
            raise ValueError("pairing index out of range")
        if any(i == j for i, j in self.pairing):
            raise ValueError("a critical value cannot pair with itself")
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise ValueError("pairing must be a partial injection")
        if self.kind == "shared" and self.pairing:
            raise ValueError("shared kind assumes separated values, no pairing")

    @property
    def n(self) -> int:
        return 1 + sum(self.mults)

    @property
    def degree(self) -> int:
        return self.n - 1 if self.kind == "shared" else self.n


@dataclass(frozen=True)
class CensusPoint:
    label: str
    multiplicity: int
    ordinary: bool


def singular_census(config: Configuration) -> tuple[CensusPoint, ...]:
    """Every singular point of the configured curve, assuming separated
    values and no critical value equal to zero for the scaled kind.

    Shared kind: the diagonal point over critical point i is singular of
    multiplicity m_i exactly when m_i >= 2, with distinct tangents. Scaled
    kind: each pair (i, j) contributes the point (alpha_i, alpha_j) with
    multiplicity min(m_i, m_j) + 1, ordinary exactly for m_i = m_j. There
    are no other singular points.
    """
    out: list[CensusPoint] = []
    if config.kind == "shared":
        for i, m in enumerate(config.mults):
            if m >= 2:
                out.append(CensusPoint(f"diag:{i}", m, True))
    else:
        for i, j in config.pairing:
            mi, mj = config.mults[i], config.mults[j]
            out.append(CensusPoint(f"pair:{i}->{j}", min(mi, mj) + 1, mi == mj))
    return tuple(out)


def genus_ordinary(degree: int, census: Sequence[CensusPoint]) -> int:
    """Genus of an irreducible plane curve with only ordinary singularities."""
    if any(not pt.ordinary for pt in census):
        raise ValueError("genus count needs ordinary singular points")
    g = (degree - 1) * (degree - 2) // 2
    for pt in census:
        g -= pt.multiplicity * (pt.multiplicity - 1) // 2
    if g < 0:
        raise ValueError("census is inconsistent with an irreducible curve")
    return g


@dataclass(frozen=True)
class IrreducibilityResult:
    irreducible: bool
    reason: str


def bezout_irreducibility(
    degree: int, census: Sequence[CensusPoint], no_linear_factors: bool
) -> IrreducibilityResult:
    """Exclude every factorization using the singular census.

    A split C = H * G with deg H = d1, deg G = d2 forces H and G to meet in
    exactly d1*d2 points counted with intersection multiplicity, all of them
    singular on C and hence in the census. At an ordinary census point the
    intersection number is exactly the product of the component
    multiplicities; elsewhere it is at least that. Linear components are
    invisible to this counting and must be excluded by the linear-factor
    scan, hence the flag.
    """
    for d1 in range(1, degree // 2 + 1):
        d2 = degree - d1
        if d1 == 1:
            if no_linear_factors:
                continue
            return IrreducibilityResult(
                False, "a linear component is not excluded by the census"
            )
        if _split_possible(d1, d2, census):
            return IrreducibilityResult(
                False, f"split {d1}+{d2} is consistent with the census"
            )
    return IrreducibilityResult(
        True, "every split contradicts the intersection count at the census"
    )


def _split_possible(d1: int, d2: int, census: Sequence[CensusPoint]) -> bool:
    # distribute each census multiplicity between the two components;
    # no component of degree d may carry a point of multiplicity d or more,
    # that would make it a union of lines
    target = d1 * d2
    ranges = []
    for pt in census:
        lo = max(0, pt.multiplicity - (d2 - 1))
        hi = min(pt.multiplicity, d1 - 1)
        if lo > hi:
            return False
        ranges.append((pt, lo, hi))

    # depth-first over assignments; track achieved product sums. The
    # answer below a point depends only on (idx, acc, slack_seen), so each
    # state is searched once
    @lru_cache(maxsize=None)
    def walk(idx: int, acc: int, slack_seen: bool) -> bool:
        if idx == len(ranges):
            return acc == target or (acc < target and slack_seen)
        pt, lo, hi = ranges[idx]
        for u in range(lo, hi + 1):
            v = pt.multiplicity - u
            inter = u * v
            # a non-ordinary point shared by both components can absorb
            # extra intersection beyond the product bound
            slack = slack_seen or (not pt.ordinary and u >= 1 and v >= 1)
            if walk(idx + 1, acc + inter, slack):
                return True
        return False

    return walk(0, 0, False)

