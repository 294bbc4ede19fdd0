"""Arithmetic criteria on a single polynomial.

Everything here is coordinate bookkeeping on P itself: the centered normal
form, the support gcds that control scaling symmetries, the critical-point
structure with its separation polynomial, and the affine symmetries of the
root set. The classifier combines these; this module never decides a verdict
on its own.

Conventions. For P of degree n, the centered form is
P0(X) = P(X + s) / lc(P) with s = -a_{n-1} / (n lc(P)), which kills the
X^{n-1} term. With I = supp(P0) and w = min I:

* gcd(I) is the order of the group of scalings fixing P0, since
  P0(zX) = P0(X) holds exactly when z^i = 1 for every i in I.
* gcd(I - w) is the order of the group of scalings fixing P0 up to a
  constant: P0(zX) = c P0(X) forces c = z^w and z^(i-w) = 1 for i in I.

A scaling of P0 is a rotation of P about the center s, so these orders
transfer verbatim to the input polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional, Sequence

from .polynomials import (
    Poly,
    lagrange_interpolate,
    poly_gcd,
    radical,
    resultant,
    separation_mod_p,
    squarefree_parts,
)

Q = Fraction

# ``radical`` is re-exported: perfbench/spans.py wraps criteria.radical
# by name, and the traced run fails on a name that is missing
__all__ = [
    "AffineSymmetry", "CriticalStructure", "ExceptionalFlags", "IndexData",
    "LinearFactor", "LinearFactorScan", "NormalForm", "affine_symmetry",
    "critical_structure", "exceptional_flags", "ext_gcd_combo",
    "index_data", "linear_factor_scan", "normalize", "radical",
]


# centered normal form

@dataclass(frozen=True)
class NormalForm:
    original: Poly
    centered: Poly  # monic, no X^{n-1} term
    shift: Fraction  # centered(X) = original(X + shift) / scale
    scale: Fraction


# classify's index_data and the audit's corollary_shape both normalize P;
# a second entry keeps P while affine_symmetry normalizes its radical
@lru_cache(maxsize=2)
def normalize(p: Poly) -> NormalForm:
    n = p.degree
    if n < 1:
        raise ValueError("normalization needs degree at least 1")
    shift = Q(-p.prim[n - 1], n * p.prim[n])
    return NormalForm(p, p.taylor_shift(shift).monic(), shift, p.lc)


# extended gcd over a set of integers, witnessing gcd as a Z-combination

def ext_gcd_combo(values: Sequence[int]) -> tuple[int, dict[int, int]]:
    """gcd of the values plus coefficients u with sum(u[v] * v) = gcd."""
    g = 0
    combo: dict[int, int] = {}
    for v in values:
        if v in combo:
            continue
        g, a, b = _ext_gcd(g, v)
        combo = {k: c * a for k, c in combo.items()}
        combo[v] = b
    combo = {k: c for k, c in combo.items() if c != 0}
    return g, combo


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


# support indices of the centered form

@dataclass(frozen=True)
class IndexData:
    n: int
    center: Fraction
    support: tuple[int, ...]  # exponents of nonzero centered coefficients, ascending
    low_exp: int
    tail_gap: Optional[int]  # n minus the next-highest support exponent
    symmetry_order: int  # order of {z : P0(zX) = P0(X)}
    projective_symmetry_order: int  # order of {z : P0(zX) = c P0(X) for some c}, 0 = infinite
    bezout_support: Optional[dict[int, int]]  # sum(u*i) = 1 over support, when coprime
    bezout_shifted: Optional[dict[int, int]]  # same for support - low_exp


def index_data(p: Poly) -> IndexData:
    nf = normalize(p)
    supp = nf.centered.support()
    n = nf.centered.degree
    low = supp[0]
    below = [i for i in supp if i < n]
    tail_gap = (n - max(below)) if below else None
    g_full, combo_full = ext_gcd_combo(supp)
    shifted = [i - low for i in supp]
    g_shift, combo_shift = ext_gcd_combo(shifted)
    return IndexData(
        n=n,
        center=nf.shift,
        support=supp,
        low_exp=low,
        tail_gap=tail_gap,
        symmetry_order=g_full,
        projective_symmetry_order=g_shift,
        bezout_support=combo_full if g_full == 1 else None,
        bezout_shifted=combo_shift if g_shift == 1 else None,
    )


# critical structure and value separation

@dataclass(frozen=True)
class CriticalStructure:
    polynomial: Poly
    derivative: Poly
    derivative_parts: tuple[tuple[Poly, int], ...]  # squarefree splitting of P'
    root_parts: tuple[tuple[Poly, int], ...]  # squarefree splitting of P
    radical: Poly  # monic product of distinct critical-point factors
    count: int  # number of distinct critical points (degree of radical)
    profile: tuple[int, ...]  # critical-point multiplicities in P', descending
    is_separated: bool  # all critical values distinct
    # some critical value equals 0; equivalently, P has a repeated root
    has_zero_value: bool

    @cached_property
    def separation_poly(self) -> Poly:
        """Monic, roots are exactly the critical values; built on first read."""
        return _separation_poly(self.radical, self.polynomial)


def _separation_poly(rad: Poly, p: Poly) -> Poly:
    # evaluation and interpolation: since rad is monic,
    # Res_X(rad, t - P) = prod_i (t - P(alpha_i)) for each value t
    l = rad.degree
    pts = []
    for t in range(l + 1):
        val = resultant(rad, Poly.of(Q(t)) - p)
        pts.append((Q(t), val))
    sep = lagrange_interpolate(pts)
    if sep.degree != l or sep.lc != 1:
        raise RuntimeError(f"separation polynomial must be monic of degree {l}")
    return sep


def critical_structure(p: Poly) -> CriticalStructure:
    """Critical points, profile and separation of P.

    ``separation_mod_p`` first builds, modulo a prime, the value
    polynomial of r = P'/lc(P') from the traces of P^k mod r. If it is
    squarefree, P' is squarefree and the critical values are distinct;
    if its constant term is nonzero, no critical value is 0, so P is
    squarefree: P has a repeated root exactly when 0 is a critical
    value, which is what ``has_zero_value`` says. ``squarefree_parts``
    splits only what the image leaves open: P' when the image is not
    squarefree, after which the radical gets an image of its own if the
    split changed it, and P when no image certified its constant term.
    The exact value polynomial is built only when no prime certifies
    separation, or later when ``separation_poly`` is first read.
    """
    if p.degree < 2:
        raise ValueError("critical structure needs degree at least 2")
    dp = p.derivative()
    rad = dp.monic()
    image = separation_mod_p(rad, p)  # (squarefree, zero-free) or None
    if image and image[0]:
        parts = ((rad, 1),)
    else:
        parts = tuple(squarefree_parts(dp))
        split = math.prod((factor for factor, _ in parts), start=Poly.of(1))
        if split != rad:
            rad = split
            image = separation_mod_p(rad, p)
    profile = sorted((mult for factor, mult in parts
                      for _ in range(factor.degree)), reverse=True)
    root_parts = (((p.monic(), 1),) if image and image[1]
                  else tuple(squarefree_parts(p)))
    separated = bool(image and image[0])
    sep = None
    if not separated:
        sep = _separation_poly(rad, p)
        separated = poly_gcd(sep, sep.derivative()).degree == 0
    cs = CriticalStructure(
        polynomial=p,
        derivative=dp,
        derivative_parts=parts,
        root_parts=root_parts,
        radical=rad,
        count=rad.degree,
        profile=tuple(profile),
        is_separated=separated,
        has_zero_value=any(m > 1 for _, m in root_parts),
    )
    if sep is not None:
        cs.__dict__["separation_poly"] = sep  # where cached_property keeps it
    return cs


# affine symmetries of the root set

@dataclass(frozen=True)
class AffineSymmetry:
    center: Fraction
    order: int  # 0 means every rotation about the center (single distinct root)
    radical_support: tuple[int, ...]  # support of the centered monic radical


def affine_symmetry(idx: IndexData,
                    cs: CriticalStructure) -> Optional[AffineSymmetry]:
    """Largest group of affine maps permuting the distinct roots of
    P = ``cs.polynomial``.

    Any finite affine symmetry of a set with at least two points is a
    root-of-unity rotation about the set's centroid, so the group is cyclic
    and determined by its order. With R0 the centered radical, of degree k
    and support I, a rotation z permutes the roots exactly when
    z^(k - i) = 1 for every i in I, and gcd(k - I) = gcd(I - min I) since k
    lies in I: the order is the projective symmetry order of the radical's
    ``index_data``. P has a repeated root exactly when 0 is a critical
    value, so otherwise the radical is P / lc(P) and ``idx`` already holds
    it; when it is, the radical is the product of the factors in
    ``cs.root_parts``. Returns None when only the identity works.
    """
    rad_idx = idx
    if cs.has_zero_value:
        rad_idx = index_data(math.prod((f for f, _ in cs.root_parts),
                                       start=Poly.of(1)))
    g = rad_idx.projective_symmetry_order
    if g == 1:
        return None
    return AffineSymmetry(rad_idx.center, g, rad_idx.support)


# linear factors of the value-sharing curves

@dataclass(frozen=True)
class LinearFactor:
    order: int  # the slope b is a primitive order-th root of unity
    c_exponent: int  # the multiplier is b**c_exponent; 0 for the shared curve
    c_rational: Optional[Fraction]  # the multiplier as a rational, when it is one


@dataclass(frozen=True)
class LinearFactorScan:
    applicable: bool  # high-gap shape present, so the family below is complete
    gap: Optional[int]  # support gap below the top exponent, None for pure powers
    mode: str
    factors: tuple[LinearFactor, ...]


def linear_factor_scan(idx: IndexData, mode: str = "F") -> LinearFactorScan:
    """Lines X = bY inside a value-sharing curve, read off ``index_data(P)``.

    Against the centered form, such a line inside the shared curve means
    P0(bY) = P0(Y), which holds for b a primitive r-th root of unity
    exactly when r divides every support exponent. Inside a scaled curve
    the line forces P0(bY) = c P0(Y) with c = b^low, possible exactly
    when r divides every support gap but not the low exponent itself.
    The factors reported are always genuine. They are the complete list
    of linear factors only when the support gap below the top exponent
    is at least 3, which rules out every line that is not through the
    center; ``applicable`` records that, and when it is False the caller
    must fall back to the separation route.
    """
    if mode not in ("F", "F_c"):
        raise ValueError("mode must be 'F' or 'F_c'")
    applicable = idx.tail_gap is not None and idx.tail_gap >= 3
    factors: list[LinearFactor] = []
    if mode == "F":
        r = idx.symmetry_order
        if r > 1:
            factors.append(LinearFactor(r, 0, Q(1)))
    else:
        r = idx.projective_symmetry_order
        if r > 1 and idx.low_exp % r != 0:
            c_rat = Q(-1) if r == 2 else None
            factors.append(LinearFactor(r, idx.low_exp, c_rat))
    return LinearFactorScan(applicable, idx.tail_gap, mode, tuple(factors))


# configurations with known genus-0/1 exceptions

@dataclass(frozen=True)
class ExceptionalFlags:
    quartic_w_case: bool  # degree 4, simple critical points, w-orbit values
    quintic_case: bool  # degree 5, profile (2, 2)
    quartic_structural: bool  # degree 4, profile (1, 1, 1)


def exceptional_flags(cs: CriticalStructure) -> ExceptionalFlags:
    """Flag the critical structures carrying the exceptional verdicts.

    The w-orbit condition on the three critical values of a quartic (the
    cyclic ratios all equal to a primitive cube root of unity) says
    exactly that the values are the roots of T^3 - d with d != 0: both
    elementary symmetric functions e1 and e2 vanish while e3 does not.
    With s_k the power sums of the values, e1 = s1 and
    e2 = (s1^2 - s2)/2, so e1 = e2 = 0 exactly when s1 = s2 = 0, and
    e3 != 0 is ``not has_zero_value``. s1 and s2 are traces, and
    ``_value_traces`` tests them for zero on integers, so no value
    polynomial is built.
    """
    n = cs.derivative.degree + 1
    structural = n == 4 and cs.profile == (1, 1, 1)
    w = False
    if structural and not cs.has_zero_value:
        w = _value_traces(cs.radical, cs.polynomial) == (0, 0)
    return ExceptionalFlags(
        quartic_w_case=w,
        quintic_case=n == 5 and cs.profile == (2, 2),
        quartic_structural=structural,
    )


def _value_traces(rad: Poly, p: Poly) -> tuple[int, int]:
    """Nonzero integer multiples of the sums of P(alpha) and P(alpha)^2
    over the roots alpha of rad, 0 exactly when the sum is; only that is
    read. With r = rad.prim of degree l and L = r_l, the L alpha are the
    roots of the monic integer polynomial with coefficients
    r_i L^(l-1-i), whose power sums P_k = L^k p_k come from Newton's
    identities. The trace of an integer vector c of degree N on
    Q[x]/(rad) is sum c_i p_i = L^(-N) sum c_i P_i L^(N-i), so the
    integer sum is read for P's and P^2's primitive vectors; their
    contents are nonzero."""
    r, l = rad.prim, rad.degree
    lead = r[l]
    a = [x * lead ** (l - 1 - i) for i, x in enumerate(r[:l])]
    sq = (p * p).prim  # a product of primitive vectors is primitive
    ps = [l]
    for k in range(1, len(sq)):
        ps.append(-(k * a[l - k] if k <= l else 0)
                  - sum(a[l - i] * ps[k - i]
                        for i in range(1, min(k - 1, l) + 1)))

    def trace(c: tuple[int, ...]) -> int:
        top = len(c) - 1
        return sum(x * ps[i] * lead ** (top - i)
                   for i, x in enumerate(c) if x)

    return trace(p.prim), trace(sq)
