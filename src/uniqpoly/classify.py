"""Four-way uniqueness verdicts with verified witnesses.

A polynomial P over Q gets four verdicts: whether P(f) = P(g) forces
f = g (uniqueness), and whether P(f) = c P(g) forces c = 1 and f = g
(strong uniqueness), each for rational and for meromorphic functions.
Every verdict is yes, no, or out_of_scope, and every no carries a
justification that replays:

* a linear witness, a map x -> beta x + gamma with P(beta X + gamma) =
  c P(X) checked as an exact polynomial identity (as a congruence on
  the centered exponents when beta is a root of unity), or
* a certificate naming a curve of genus 0 or 1: the value-sharing curve
  is irreducible by the intersection-count argument and its census
  genus is too small to obstruct maps, so nonconstant pairs exist even
  though no affine pair does.

The decision rules, in order:

1. support rotations: if the centered form satisfies P0(zX) = P0(X)
   for a nontrivial root of unity z, nothing is unique; if it only
   satisfies P0(zX) = c P0(X) with c != 1, strong uniqueness fails.
2. wide support gap: when the gap below the top exponent is at least 3
   (at least 4), strong uniqueness for rational (meromorphic) functions
   holds exactly when both support gcds are 1; the converses are the
   rotation witnesses, which are complete in this shape.
3. separated critical values: the shared-curve grant of the order
   calculus (``orders.statement_grants``) decides the plain slots,
   algebraic for rational and brody for meromorphic functions, and a
   slot it refuses gets a genus-0 or genus-1 curve certificate;
   rigidity of the zero set and the value-orbit quartic gate the strong
   verdicts.
4. implication closure: strong implies plain, meromorphic implies
   rational, propagated with the justifying witnesses.

What no rule decides is reported out_of_scope with a reason, never
guessed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .criteria import (
    affine_symmetry,
    critical_structure,
    index_data,
    linear_factor_scan,
    normalize,
    quartic_value_orbit,
)
from .curves import (
    Configuration,
    bezout_irreducibility,
    genus_ordinary,
    singular_census,
)
from .orders import statement_grants
from .parser import DEFAULT_DEGREE_CAP, DegreeCapError
from .polynomials import (
    Poly,
    cyclotomic,
    poly_gcd,
    radical,
    rational_roots,
)

Q = Fraction

# ``cyclotomic``, ``poly_gcd`` and ``rational_roots`` are re-exported only
# because perfbench/spans.py wraps them in this module by name, and the
# traced run fails on a name that is missing; they go when the span
# table moves (ROADMAP item 5)
__all__ = [
    "SLOTS", "CorollaryVerdict", "RuleStep", "Verdict", "Witness",
    "classify", "consistency_audit", "corollary_classify", "corollary_shape",
    "cyclotomic", "poly_gcd", "rational_roots", "verify_witness",
    "witness_search",
]

SLOTS = ("up_rational", "sup_rational", "up_meromorphic", "sup_meromorphic")

# the census facts for separated curves are used as axioms, not rederived
CENSUS_AXIOM = "census-statements-for-separated-curves"


# witnesses

@dataclass(frozen=True)
class Witness:
    """Justification for a negative verdict.

    Linear kinds ("scaling" for multiplier 1, "scaling-with-c"
    otherwise) describe the map x -> beta x + gamma with gamma =
    center * (1 - beta) and c = beta**c_exponent; beta is the primitive
    order-th root of unity, kept as a Fraction when order <= 2. The
    "paper-exception" kind names a curve-geometry case and carries the
    recomputable certificates instead.
    """

    kind: str
    order: Optional[int] = None
    beta: Optional[Fraction] = None
    gamma: Optional[Fraction] = None
    c: Optional[Fraction] = None
    c_exponent: Optional[int] = None
    center: Optional[Fraction] = None
    case: Optional[str] = None
    identity: Optional[str] = None
    certificates: Optional[dict] = None
    assumptions: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for key in ("order", "beta", "gamma", "c", "c_exponent", "center",
                    "case", "identity"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        if self.certificates is not None:
            out["certificates"] = self.certificates
        if self.assumptions:
            out["assumptions"] = list(self.assumptions)
        return out


def _scaling_witness(order: int, c_exponent: int, center: Fraction) -> Witness:
    """Root-of-unity witness in centered coordinates, rationalized when flat."""
    e = c_exponent % order
    beta = gamma = c = None
    if order <= 2:
        beta = Q(1) if order == 1 else Q(-1)
        gamma = center * (1 - beta)
        c = beta**e
    name = "z" if order > 2 else str(beta)
    about = f" about {center}" if center else ""
    if e == 0:
        kind = "scaling"
        identity = f"P0({name} X) = P0(X) for {name} of order {order}{about}"
    else:
        kind = "scaling-with-c"
        identity = (
            f"P0({name} X) = {name}^{e} P0(X) for {name} of order "
            f"{order}{about}"
        )
    return Witness(kind=kind, order=order, beta=beta, gamma=gamma, c=c,
                   c_exponent=e, center=center, identity=identity)


def verify_witness(p: Poly, w: Witness) -> bool:
    """Replay a witness from scratch against p."""
    if w.kind in ("scaling", "scaling-with-c"):
        return _verify_linear(p, w)
    if w.kind == "paper-exception":
        return _verify_exception(p, w)
    return False


def _verify_linear(p: Poly, w: Witness) -> bool:
    center = w.center if w.center is not None else Q(0)
    if w.beta is not None:
        gamma = w.gamma if w.gamma is not None else center * (1 - w.beta)
        c = w.c if w.c is not None else w.beta ** p.degree
        lhs = p.taylor_shift(gamma).scale_input(w.beta)  # p(beta X + gamma)
        return lhs == c * p
    r = w.order or 1
    if r < 2:
        return False
    # for z a primitive r-th root of unity, z^i = z^e exactly when
    # i = e (mod r), so P0(z X) = z^e P0(X) is a congruence on exponents
    e = w.c_exponent or 0
    return all((i - e) % r == 0
               for i in p.taylor_shift(center).support())


def _verify_exception(p: Poly, w: Witness) -> bool:
    cert = w.certificates or {}
    if w.case == "zero-set-symmetry":
        order, center = cert.get("order"), cert.get("center")
        if not order or center is None:
            return False
        rad = radical(p).taylor_shift(Q(center))
        residues = {rad.degree - i for i in rad.support()}
        return all(k % order == 0 for k in residues) and order >= 2
    mults = tuple(cert.get("multiplicities", ()))
    cs = critical_structure(p)
    if tuple(cs.profile) != mults or not cs.is_separated:
        return False
    pairing = tuple(tuple(e) for e in cert.get("pairing", ()))
    config = Configuration(cert.get("curve", ""), mults, pairing)
    if config.kind == "scaled":
        if cs.has_zero_value:
            return False
        if w.case == "genus-zero-orbit-scaled-curve":
            # the three critical values form a multiplicative orbit
            # exactly when the value polynomial is T^3 - d with d != 0
            sep = cs.separation_poly
            if (sep.degree != 3 or sep.coeff(2) != 0 or sep.coeff(1) != 0
                    or sep.coeff(0) == 0):
                return False
    census = singular_census(config)
    res = bezout_irreducibility(config.degree, census, True)
    if not res.irreducible:
        return False
    return genus_ordinary(config.degree, census) == cert.get("genus")


def _genus_exception(case: str, config: Configuration,
                     no_linear_reason: str) -> Witness:
    census = singular_census(config)
    res = bezout_irreducibility(config.degree, census, True)
    if not res.irreducible:
        raise RuntimeError(f"certificate failed for {case}: {res.reason}")
    g = genus_ordinary(config.degree, census)
    cert = {
        "curve": config.kind,
        "degree": config.degree,
        "multiplicities": list(config.mults),
        "pairing": [list(e) for e in config.pairing],
        "census": [
            {"point": pt.label, "multiplicity": pt.multiplicity,
             "ordinary": pt.ordinary}
            for pt in census
        ],
        "irreducible": res.reason,
        "no_linear_factors": no_linear_reason,
        "genus": g,
    }
    return Witness(kind="paper-exception", case=case, certificates=cert,
                   assumptions=(CENSUS_AXIOM,),
                   identity=f"{config.kind} curve of degree {config.degree} "
                            f"is irreducible of genus {g}")


# verdict assembly

@dataclass(frozen=True)
class RuleStep:
    rule: str
    inputs: dict
    conclusion: str

    def as_dict(self) -> dict:
        return {"rule": self.rule, "inputs": self.inputs,
                "conclusion": self.conclusion}


@dataclass(frozen=True)
class Verdict:
    up_rational: str
    sup_rational: str
    up_meromorphic: str
    sup_meromorphic: str
    rule_trace: tuple[RuleStep, ...]
    witnesses: dict[str, Witness]
    out_of_scope_reasons: dict[str, str]

    def slot(self, name: str) -> str:
        return getattr(self, name)


class _Builder:
    def __init__(self) -> None:
        self.values: dict[str, str] = {}
        self.trace: list[RuleStep] = []
        self.witnesses: dict[str, Witness] = {}
        self.reasons: dict[str, str] = {}

    def note(self, rule: str, inputs: dict, conclusion: str) -> None:
        self.trace.append(RuleStep(rule, inputs, conclusion))

    def set(self, slot: str, value: str, rule: str, inputs: dict,
            make_witness: Optional[Callable[[], Witness]] = None) -> None:
        # the witness is built only when it is recorded: a new "no"
        prev = self.values.get(slot)
        if prev is None:
            self.values[slot] = value
            if make_witness is not None and value == "no":
                self.witnesses[slot] = make_witness()
            self.note(rule, inputs, f"{slot}: {value}")
        elif prev == value:
            self.note(rule, inputs, f"{slot}: {value} (corroborates)")
        else:
            raise RuntimeError(
                f"rule {rule} concludes {slot}={value} against "
                f"established {prev}: internal inconsistency"
            )

    def close_lattice(self) -> None:
        yes_flow = {
            "sup_meromorphic": ("up_meromorphic", "sup_rational"),
            "up_meromorphic": ("up_rational",),
            "sup_rational": ("up_rational",),
        }
        no_flow = {
            "up_rational": ("sup_rational", "up_meromorphic"),
            "sup_rational": ("sup_meromorphic",),
            "up_meromorphic": ("sup_meromorphic",),
        }
        changed = True
        while changed:
            changed = False
            for src, targets in yes_flow.items():
                if self.values.get(src) != "yes":
                    continue
                for t in targets:
                    if t not in self.values:
                        self.values[t] = "yes"
                        self.note("implication-lattice", {"from": src},
                                  f"{t}: yes")
                        changed = True
            for src, targets in no_flow.items():
                if self.values.get(src) != "no":
                    continue
                for t in targets:
                    if t not in self.values:
                        self.values[t] = "no"
                        if src in self.witnesses:
                            self.witnesses[t] = self.witnesses[src]
                        self.note("implication-lattice", {"from": src},
                                  f"{t}: no")
                        changed = True

    def finish(self) -> Verdict:
        self.close_lattice()
        reasons: dict[str, str] = {}
        for slot in SLOTS:
            if slot not in self.values:
                self.values[slot] = "out_of_scope"
                reasons[slot] = self.reasons.get(
                    slot, "no decision rule applies")
                self.note("undecided", {"reason": reasons[slot]},
                          f"{slot}: out_of_scope")
        return Verdict(
            up_rational=self.values["up_rational"],
            sup_rational=self.values["sup_rational"],
            up_meromorphic=self.values["up_meromorphic"],
            sup_meromorphic=self.values["sup_meromorphic"],
            rule_trace=tuple(self.trace),
            witnesses=dict(self.witnesses),
            out_of_scope_reasons=reasons,
        )


def classify(p: Poly, degree_cap: int = DEFAULT_DEGREE_CAP) -> Verdict:
    """Decide the four uniqueness verdicts for p.

    Raises ValueError below degree 2 or above the degree cap; a slot no
    rule decides comes back out_of_scope with a reason rather than a
    guess.
    """
    n = p.degree
    if n < 2:
        raise ValueError("classification needs degree at least 2")
    if n > degree_cap:
        raise DegreeCapError(n, degree_cap)

    idx = index_data(p)
    cs = critical_structure(p)
    b = _Builder()
    b.note("normal-form", {
        "degree": n,
        "center": str(idx.center),
        "support": list(idx.support),
        "gap": idx.tail_gap,
        "profile": list(cs.profile),
        "separated": cs.is_separated,
    }, "input profiled")

    if cs.radical.degree == 1:
        b.note("single-critical-point", {"profile": list(cs.profile)},
               "a pure-power translate, nothing is unique")

    scan_f = linear_factor_scan(idx, "F")
    scan_fc = linear_factor_scan(idx, "F_c")

    # rule 1: rotations fixing the centered form kill uniqueness outright
    for f in scan_f.factors:  # at most one, the whole rotation group
        w = _scaling_witness(f.order, 0, idx.center)
        if not verify_witness(p, w):
            raise RuntimeError("rotation witness failed to replay")
        inputs = {"order": f.order, "center": str(idx.center)}
        for slot in SLOTS:
            b.set(slot, "no", "support-rotation-identity", inputs, lambda: w)

    # rule 2: rotations that only rescale the value kill strong uniqueness
    for f in scan_fc.factors:
        w = _scaling_witness(f.order, f.c_exponent, idx.center)
        if not verify_witness(p, w):
            raise RuntimeError("multiplier witness failed to replay")
        inputs = {"order": f.order, "c_exponent": f.c_exponent % f.order,
                  "center": str(idx.center)}
        b.set("sup_rational", "no", "support-rotation-multiplier", inputs,
              lambda: w)
        b.set("sup_meromorphic", "no", "support-rotation-multiplier",
              inputs, lambda: w)

    # rule 3: with a wide gap below the top exponent, the rotation scan
    # is complete, so coprime support settles the strong verdicts
    if scan_f.applicable:
        clean = not scan_f.factors and not scan_fc.factors
        inputs = {
            "gap": scan_f.gap,
            "support_gcd": idx.symmetry_order,
            "shifted_gcd": idx.projective_symmetry_order,
            "bezout_support": idx.bezout_support,
            "bezout_shifted": idx.bezout_shifted,
        }
        if clean:
            b.set("sup_rational", "yes", "wide-gap-strong-rational", inputs)
            if scan_f.gap >= 4:
                b.set("sup_meromorphic", "yes", "wide-gap-strong-meromorphic",
                      inputs)
            else:
                b.reasons.setdefault(
                    "sup_meromorphic",
                    "support gap 3 settles only the rational case",
                )
        # the unclean cases were already set by the rotation rules

    # rule 4: separated critical values, verdicts from the profile
    if cs.is_separated:
        _separated_route(p, b, idx, cs)
    else:
        b.note("separation-check", {"separated": False},
               "critical values collide, profile route unavailable")
        for slot in SLOTS:
            b.reasons.setdefault(
                slot, "separation fails and no support rule applies")

    return b.finish()


def _separated_route(p: Poly, b: _Builder, idx, cs) -> None:
    l = cs.radical.degree
    profile = cs.profile
    rad_idx = affine_symmetry(idx, cs)
    rigid = rad_idx is None
    no_linear = (
        "no rotation fixes the centered support"
        if idx.symmetry_order == 1
        else "rotation present"
    )

    b.note("separation-check",
           {"separated": True, "profile": list(profile)},
           "profile route applies")
    b.note("zero-set-rigidity",
           {"rigid": rigid,
            **({} if rigid else
               {"order": rad_idx.projective_symmetry_order,
                "center": str(rad_idx.center)})},
           "zero set is affinely rigid" if rigid
           else "zero set has an affine symmetry")

    if l == 1:
        return  # the rotation rule has already closed every slot

    # the order calculus states the separated theorem: the shared curve's
    # algebraic grant decides plain uniqueness for rational functions and
    # its brody grant that for meromorphic ones
    shared = Configuration("shared", profile)
    rational, meromorphic = statement_grants(shared)
    inputs = {"l": l, "min_mult": profile[-1]}
    if rational:
        b.set("up_rational", "yes", "separated-profile-uniqueness-rational",
              inputs)
    else:
        b.set("up_rational", "no", "separated-profile-uniqueness-rational",
              inputs,
              lambda: _genus_exception("genus-zero-shared-curve", shared,
                                       no_linear))

    # strong uniqueness for rational functions adds rigidity and the
    # value-orbit exception on the smooth quartic profile
    if rational:
        if not rigid:
            b.set("sup_rational", "no", "separated-profile-strong-rational",
                  {"rigid": False}, lambda: _rigidity_witness(p, rad_idx))
        elif quartic_value_orbit(cs):
            def orbit_witness() -> Witness:
                config = Configuration("scaled", (1, 1, 1),
                                       ((0, 1), (1, 2), (2, 0)))
                w = _genus_exception("genus-zero-orbit-scaled-curve", config,
                                     "rotation scan is complete and empty")
                return replace(w, certificates={
                    **w.certificates,
                    "value_polynomial": str(cs.separation_poly),
                })
            b.set("sup_rational", "no", "separated-profile-strong-rational",
                  {"value_orbit": True}, orbit_witness)
        else:
            b.set("sup_rational", "yes", "separated-profile-strong-rational",
                  {"rigid": True, "value_orbit": False})

    # meromorphic uniqueness: rigidity only gates the strong clause, where
    # the statement restates it
    if meromorphic:
        b.set("up_meromorphic", "yes",
              "separated-profile-uniqueness-meromorphic", inputs)
        if rigid:
            b.set("sup_meromorphic", "yes",
                  "separated-profile-strong-meromorphic",
                  {"rigid": True, "rigidity_restated_in_strong_clause": True})
    elif rational:
        # granted algebraic but not brody: one of the two genus-one shared
        # curves, the smooth quartic's with three critical points or the
        # two-node quintic's with two
        exception, case = (
            ("smooth quartic profile", "genus-one-smooth-shared-curve")
            if l == 3 else
            ("double-pair quintic profile", "genus-one-two-node-shared-curve"))
        b.set("up_meromorphic", "no",
              "separated-profile-uniqueness-meromorphic",
              {"exception": exception},
              lambda: _genus_exception(case, shared, no_linear))
    # with no grant, up_meromorphic propagates from up_rational


def _rigidity_witness(p: Poly, rad_idx) -> Witness:
    """Witness for a zero set that a nontrivial rotation permutes.

    The rotation never carries P to a multiple of itself here: P's center
    would then be the rotation's, and the support rules would already have
    decided the strong verdicts. So the witness is the named exception with
    the radical identity as certificate.
    """
    g, mu = rad_idx.projective_symmetry_order, rad_idx.center
    k = rad_idx.support[-1]
    w = Witness(
        kind="paper-exception",
        case="zero-set-symmetry",
        center=mu,
        order=g,
        identity=f"rad(z(X - {mu}) + {mu}) = z^{k % g} rad(X) "
                 f"for z of order {g}",
        certificates={"order": g, "center": str(mu),
                      "radical_support": list(rad_idx.support)},
    )
    if not verify_witness(p, w):
        raise RuntimeError("zero-set symmetry failed to replay")
    return w


# the closed-form table for the centered trinomial family

@dataclass(frozen=True)
class CorollaryVerdict:
    up_rational: bool
    sup_rational: bool
    up_meromorphic: bool
    sup_meromorphic: bool

    def as_tuple(self) -> tuple[bool, bool, bool, bool]:
        return (self.up_rational, self.sup_rational,
                self.up_meromorphic, self.sup_meromorphic)


def corollary_classify(alpha: Fraction, n: int, m: int,
                       a: Fraction, b: Fraction) -> CorollaryVerdict:
    """Verdicts for (X - alpha)^n + a (X - alpha)^m + b, read off the
    exponents and the vanishing pattern of a and b.

    Uniqueness for rational functions needs n >= 4, a gap of at least
    2, coprime exponents and a != 0; meromorphic needs n >= 5; the
    strong variants additionally need b != 0. The location alpha never
    matters.
    """
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n - 1")
    Q(alpha)  # location must be rational, but plays no role
    base = n - m >= 2 and math.gcd(n, m) == 1 and a != 0
    up_rat = n >= 4 and base
    up_mer = n >= 5 and base
    return CorollaryVerdict(
        up_rational=up_rat,
        sup_rational=up_rat and b != 0,
        up_meromorphic=up_mer,
        sup_meromorphic=up_mer and b != 0,
    )


def corollary_shape(p: Poly) -> Optional[tuple[Fraction, int, int, Fraction, Fraction]]:
    """Recognize p as lc * ((X-alpha)^n + a (X-alpha)^m + b), if it is one."""
    nf = normalize(p)
    supp = [i for i in nf.centered.support() if i not in (0, nf.centered.degree)]
    if len(supp) > 1:
        return None
    n = nf.centered.degree
    m = supp[0] if supp else None
    if m is None:
        return None  # a pure power plus constant is not the shape (a = 0)
    return (nf.shift, n, m, nf.centered.coeff(m), nf.centered.coeff(0))


# the independent linear-witness oracle

# the audit searches both modes of one P; they share a single call
@lru_cache(maxsize=1)
def _constraint_gcd(p: Poly) -> int:
    """gcd of the coefficient equations for P(beta X + gamma) = beta^n P(X).

    The top two coefficients force c = beta^n and gamma = s (1 - beta)
    with s the centering shift. With P(X) = sum q_j (X - s)^j, where
    q_{n-1} = 0, the difference P(beta X + gamma) - beta^n P(X) is
    sum_{j <= n-2} E_j (X - s)^j with E_j = q_j (beta^j - beta^n). Its
    X^j coefficients are a unitriangular, beta-free transform of the E_j,
    so both sets have the same monic gcd, the gcd of the beta^j - beta^n
    whose q_j is not 0. As beta^j - beta^n = -beta^j (beta^(n-j) - 1) and
    gcd(beta^a - 1, beta^b - 1) = beta^gcd(a, b) - 1, that gcd is
    beta^m (beta^d - 1), with m the least such j and d the gcd of their
    n - j, and 0 when every q_j is 0. Only d is returned, 0 for the gcd
    0, since beta^m admits no map. d only falls as the scan goes on, so
    it stops at d = 1, which admits only the identity map. The q_j come
    from P's coefficients here, not from ``taylor_shift``, so the audit
    stays independent of the code it checks. Only whether q_j vanishes
    matters, so with c = ``p.prim`` and s = u/v in lowest terms the sum
    read is the integer
    v^(n-j) q_j / content = sum_k c_k C(k, j) u^(k-j) v^(n-k).
    """
    n = p.degree
    if n < 1:
        raise ValueError("search needs degree at least 1")
    c = p.prim
    t = math.gcd(c[n - 1], n * c[n])
    u, v = -c[n - 1] // t, n * c[n] // t
    d = 0
    for j in range(n - 1):
        if sum(c[k] * math.comb(k, j) * u ** (k - j) * v ** (n - k)
               for k in range(j, n + 1) if c[k]):
            d = math.gcd(d, n - j)
            if d == 1:
                break
    return d


def witness_search(p: Poly, mode: str) -> Optional[Witness]:
    """Search for a map x -> beta x + gamma with P(beta X + gamma) = c P(X).

    Exact coefficient comparison reduces the problem to the constraint
    gcd beta^m (beta^d - 1), whose d ``_constraint_gcd`` returns, so the
    answer is read off d and n in closed form. The identity map never counts and
    beta = 0 is no map, so the solutions are the roots of beta^d - 1
    other than 1, and mode "c_equals_1", the maps with c = beta^n = 1
    that break plain uniqueness, cuts d to gcd(d, n). With d = 1 nothing
    is left; an even d admits the rational beta = -1; an odd d admits
    the primitive r-th roots of unity exactly for the divisors r of d,
    and the witness takes the least r >= 3, which is at most the degree.
    When the gcd is 0, P is a power of X - s and every rotation about s
    works; the odd-degree c = 1 search then returns the one of order n.
    Returns a replayed witness or None.
    """
    if mode not in ("any_c", "c_equals_1"):
        raise ValueError("mode must be 'any_c' or 'c_equals_1'")
    d = _constraint_gcd(p)
    n = p.degree
    power = d == 0
    if mode == "c_equals_1":
        d = math.gcd(d, n)
    if d == 1:
        return None  # only the identity map
    s = Q(-p.prim[n - 1], n * p.prim[n])  # the center
    if d % 2 == 0:
        beta = Q(-1)
        gamma = s * (1 - beta)
        c = beta**n
        w = Witness(
            kind="scaling" if c == 1 else "scaling-with-c",
            order=2, beta=beta, gamma=gamma, c=c, c_exponent=n, center=s,
            identity=f"P({beta} X + {gamma}) = {c} P(X)",
        )
    else:
        order = n if power else next(r for r in range(3, d + 1, 2)
                                     if d % r == 0)
        w = _scaling_witness(order, n, s)
    if not verify_witness(p, w):
        raise RuntimeError("searched witness failed to replay")
    return w


# cross-validation of a verdict against the oracle

def consistency_audit(p: Poly, verdict: Verdict) -> dict:
    """Cross-check a verdict against the independent witness search.

    Every yes must defeat the oracle, every no that is not a named
    curve exception must be confirmed by it, every stored witness must
    replay, and when the input has the closed-form trinomial shape the
    table must agree. Returns a report dict with ok and failures.
    """
    failures: list[str] = []
    checked: dict[str, str] = {}
    # slots implied by one another share a Witness object; replay it once
    replayed: dict[int, bool] = {}

    any_c = witness_search(p, "any_c")
    c_one = witness_search(p, "c_equals_1")

    for slot in SLOTS:
        value = verdict.slot(slot)
        oracle = c_one if slot.startswith("up") else any_c
        mode = "c_equals_1" if slot.startswith("up") else "any_c"
        if value == "yes":
            if oracle is not None:
                failures.append(
                    f"{slot} is yes but the {mode} search found a map")
            checked[slot] = "yes-unbroken"
        elif value == "no":
            w = verdict.witnesses.get(slot)
            if w is None:
                failures.append(f"{slot} is no without a witness")
            else:
                if id(w) not in replayed:
                    replayed[id(w)] = verify_witness(p, w)
                if not replayed[id(w)]:
                    failures.append(f"{slot} witness does not replay")
            if w is not None and w.kind != "paper-exception":
                if oracle is None:
                    failures.append(
                        f"{slot} is no but the {mode} search found nothing")
                checked[slot] = "no-confirmed"
            else:
                checked[slot] = "no-exception"
        else:
            checked[slot] = "out-of-scope"

    shape = corollary_shape(p)
    table = None
    if shape is not None:
        alpha, n, m, a, bb = shape
        cv = corollary_classify(alpha, n, m, a, bb)
        table = {
            "up_rational": cv.up_rational,
            "sup_rational": cv.sup_rational,
            "up_meromorphic": cv.up_meromorphic,
            "sup_meromorphic": cv.sup_meromorphic,
        }
        for slot in SLOTS:
            want = "yes" if table[slot] else "no"
            if verdict.slot(slot) != want:
                failures.append(
                    f"{slot}: table says {want}, classifier says "
                    f"{verdict.slot(slot)}")
    return {
        "ok": not failures,
        "failures": failures,
        "slots": checked,
        "oracle": {
            "any_c": any_c.as_dict() if any_c else None,
            "c_equals_1": c_one.as_dict() if c_one else None,
        },
        "table": table,
    }
