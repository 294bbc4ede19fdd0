"""Symbolic order calculus for value-sharing curves.

The classification of a polynomial hinges on whether two plane curves
carry enough independent regular 1-forms: the shared-value curve
(P(X) - P(Y))/(X - Y) and the scaled-value curve P(X) - c*P(Y).  Writing
a candidate form as

    (product of linear atoms) * W(A, B) / (product of linear atoms)

with W(A, B) = A dB - B dA, its only possible poles sit over finitely
many points: the crossings (both coordinates critical), the fiber points
(one coordinate critical), and the points at infinity.  At each of these
the vanishing order of every atom is either an explicit integer or an
integer linear form in one unknown branch order, so regularity of the
form reduces to sign checks on small integer coefficients.  This module
builds that order ledger, checks candidate forms against it, and runs
the case dispatch that turns a critical-point configuration into a
hyperbolicity verdict with replayable certificates.

No floating point is involved anywhere; every inequality chain can be
re-evaluated at random admissible integer branch orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .curves import Configuration

# Atoms are small tagged tuples:
#   ("x", i)        the line X - a_i Z   (a_i = i-th critical point)
#   ("y", j)        the line Y - a_j Z
#   ("link", i, j)  the line through crossings i and j (scaled kind only)
#   ("diag",)       the line X - Y          (shared kind only)
#   ("coord", "X")  a bare coordinate, numerator only
Atom = tuple

# Standing assumptions recorded on certificates.  The engine itself never
# checks them; callers discharge them with concrete-curve evidence.
ASSUME_SEPARATED = "separated-critical-values"
ASSUME_NO_LINEAR = "no-linear-component"
ASSUME_NO_CONIC = "no-conic-component-via-regular-form"
ASSUME_LINES_DISTINCT = "connector-lines-distinct"
ASSUME_SCALE_RIGID = "no-scaling-symmetry-at-deep-root"


def atom_x(i: int) -> Atom:
    return ("x", i)


def atom_y(j: int) -> Atom:
    return ("y", j)


def atom_link(i: int, j: int) -> Atom:
    # one line through two points; order the endpoints canonically
    if i == j:
        raise ValueError("a connector line needs two distinct crossings")
    return ("link", min(i, j), max(i, j))


DIAG: Atom = ("diag",)
COORD_X: Atom = ("coord", "X")
COORD_Y: Atom = ("coord", "Y")


def _atom_str(a: Atom) -> str:
    tag = a[0]
    if tag == "x":
        return f"x{a[1]}"
    if tag == "y":
        return f"y{a[1]}"
    if tag == "link":
        return f"L[{a[1]},{a[2]}]"
    if tag == "diag":
        return "(X-Y)"
    if tag == "coord":
        return a[1]
    raise ValueError(f"unknown atom {a!r}")


def _fmt_factors(factors: tuple[tuple[Atom, int], ...]) -> str:
    if not factors:
        return "1"
    parts = []
    for a, k in factors:
        parts.append(_atom_str(a) if k == 1 else f"{_atom_str(a)}^{k}")
    return "*".join(parts)


@dataclass(frozen=True)
class FormSpec:
    """A candidate rational 1-form N * W(pair) / D in atom notation.

    Degree bookkeeping: W(A,B) scales with weight 2 under rescaling of
    the homogeneous coordinates, so the form is well defined on the
    projective curve exactly when deg D = deg N + 2.  Denominators are
    restricted to x/y atoms; those are the only atoms whose zero sets on
    the curve the ledger models exhaustively.
    """

    wronskian: str  # "YZ" or "XZ"
    num: tuple[tuple[Atom, int], ...]
    den: tuple[tuple[Atom, int], ...]

    def __post_init__(self):
        if self.wronskian not in ("YZ", "XZ"):
            raise ValueError("wronskian pair must be 'YZ' or 'XZ'")
        for a, k in self.num + self.den:
            if k < 1:
                raise ValueError("atom exponents must be positive")
            _atom_str(a)  # vocabulary check
        for a, _ in self.den:
            if a[0] not in ("x", "y"):
                raise ValueError("denominator atoms must be coordinate lines")
        num_atoms = {a for a, _ in self.num}
        if len(num_atoms) != len(self.num) or len({a for a, _ in self.den}) != len(self.den):
            raise ValueError("repeated atom; merge exponents first")
        if num_atoms & {a for a, _ in self.den}:
            raise ValueError("cancel shared atoms before building the form")
        if self.deg_den != self.deg_num + 2:
            raise ValueError(
                f"degree bookkeeping off: den {self.deg_den} != num {self.deg_num} + 2"
            )

    @property
    def deg_num(self) -> int:
        return sum(k for _, k in self.num)

    @property
    def deg_den(self) -> int:
        return sum(k for _, k in self.den)

    def describe(self) -> str:
        w = f"W({self.wronskian[0]},{self.wronskian[1]})"
        n = _fmt_factors(self.num)
        head = w if n == "1" else f"{n}*{w}"
        return f"{head} / {_fmt_factors(self.den)}"

    def as_dict(self) -> dict:
        return {
            "wronskian": self.wronskian,
            "numerator": [[list(a), k] for a, k in self.num],
            "denominator": [[list(a), k] for a, k in self.den],
            "display": self.describe(),
        }


def form(wronskian: str, num: dict[Atom, int] | None = None,
         den: dict[Atom, int] | None = None) -> FormSpec:
    """Build a FormSpec from atom->exponent dicts, dropping zero entries."""
    def pack(d):
        items = [(a, k) for a, k in (d or {}).items() if k != 0]
        return tuple(sorted(items))
    return FormSpec(wronskian, pack(num), pack(den))


@dataclass(frozen=True)
class OrderExpr:
    """Vanishing order as g_coef*g + e_coef*e + const.

    g is the branch contact order at a crossing (an unknown integer >= 1)
    and e is the extra diagonal contact slack (>= 0, shared crossings
    only).  OrderLedger says which of its entries are exact.
    """

    g_coef: int = 0
    e_coef: int = 0
    const: int = 0

    def plus(self, other: "OrderExpr", times: int = 1) -> "OrderExpr":
        return OrderExpr(
            self.g_coef + times * other.g_coef,
            self.e_coef + times * other.e_coef,
            self.const + times * other.const,
        )

    def value(self, g: int, e: int) -> int:
        return self.g_coef * g + self.e_coef * e + self.const

    def provably_nonnegative(self) -> bool:
        # minimum over g >= 1, e >= 0 is attained at g=1, e=0 once the
        # leading coefficients are nonnegative
        return self.e_coef >= 0 and self.g_coef >= 0 and self.g_coef + self.const >= 0

    def display(self) -> str:
        parts = []
        if self.g_coef:
            parts.append(f"{self.g_coef}g")
        if self.e_coef:
            parts.append(f"{self.e_coef}e")
        if self.const or not parts:
            parts.append(str(self.const))
        s = " + ".join(parts).replace("+ -", "- ")
        return s


@dataclass(frozen=True)
class OrderLedger:
    """Order table of every point class where a ledger form could have a pole.

    labels[p] names point p.  wronskian[w][p] is the order of W(w) at p.
    atoms maps each x, y and diagonal atom to the (p, order) pairs where
    its order is not zero, and connectors maps each crossing's index i to
    the (p, order) of a connector line through crossing i.  Every x and
    y order is exact, and so is its 0 anywhere else; the diagonal and
    connector orders, and their 0 elsewhere, are lower bounds.  FormSpec
    admits only x and y atoms in a denominator, so a bound never enters
    a chain entry with a minus sign, and each entry is a lower bound on
    the form's order.
    """

    labels: tuple[str, ...]
    wronskian: dict[str, tuple[OrderExpr, ...]]
    atoms: dict[Atom, tuple[tuple[int, OrderExpr], ...]]
    connectors: dict[int, tuple[int, OrderExpr]]

    def touches(self, atom: Atom) -> tuple[tuple[int, OrderExpr], ...]:
        if atom[0] == "link":
            return tuple(self.connectors[i] for i in atom[1:])
        return self.atoms.get(atom, ())


def build_ledger(config: Configuration) -> OrderLedger:
    """Tabulate, once, the orders at every point class where a ledger
    form could have a pole.

    Crossings carry the unknown contact g (and the diagonal slack e on
    the shared curve).  Fibers, on their transversal branch, and the
    smooth points over Z = 0, where X and Y are nonzero so every x/y atom
    is a unit, carry explicit integers.  In the chart Z = 1, W(Y,Z) pulls
    back to -dY, so its order is the contact order of Y, minus one.

    Needs at least two critical points: with a single one, every point
    of the fiber over it is a crossing and the fiber models below would
    be empty.
    """
    m = config.mults
    l = len(m)
    if l < 2:
        raise ValueError("order ledger needs at least two critical points")
    labels: list[str] = []
    yz: list[OrderExpr] = []
    xz: list[OrderExpr] = []
    atoms: dict[Atom, list[tuple[int, OrderExpr]]] = {}
    connectors: dict[int, tuple[int, OrderExpr]] = {}

    def point(label, w_yz, w_xz, *orders):
        p = len(labels)
        labels.append(label)
        yz.append(w_yz)
        xz.append(w_xz)
        for atom, o in orders:
            atoms.setdefault(atom, []).append((p, o))
        return p

    if config.kind == "shared":
        # both coordinate lines meet the branch with one common contact
        # order; the diagonal picks up at least that much
        g = OrderExpr(g_coef=1)
        w = OrderExpr(g_coef=1, const=-1)
        diag = OrderExpr(g_coef=1, e_coef=1)
        for i in range(l):
            point(f"crossing:{i}", w, w, (atom_x(i), g), (atom_y(i), g), (DIAG, diag))
    else:
        for i, j in config.pairing:
            # near the crossing, (X-a_i)^(m_i+1)*unit equals
            # c*(Y-a_j)^(m_j+1)*unit on the curve, locking the two
            # contact orders into the ratio (m_j+1) : (m_i+1)
            d = gcd(m[i] + 1, m[j] + 1)
            x_scale, y_scale = (m[j] + 1) // d, (m[i] + 1) // d
            p = point(f"crossing:{i}",
                      OrderExpr(g_coef=y_scale, const=-1),
                      OrderExpr(g_coef=x_scale, const=-1),
                      (atom_x(i), OrderExpr(g_coef=x_scale)),
                      (atom_y(j), OrderExpr(g_coef=y_scale)))
            # a line through the crossing combines the two coordinate
            # lines, so its order is at least the smaller contact
            connectors[i] = (p, OrderExpr(g_coef=min(x_scale, y_scale)))
    zero, one = OrderExpr(), OrderExpr(const=1)
    for i in range(l):
        # transversal branch: dy/dx vanishes to order m_i, as P' does;
        # the other coordinate of a fiber point is never critical, since
        # equal critical values would break separation
        deep = OrderExpr(const=m[i])
        point(f"x-fiber:{i}", deep, zero, (atom_x(i), one))
        point(f"y-fiber:{i}", zero, deep, (atom_y(i), one))
    point("infinity", zero, zero)
    return OrderLedger(tuple(labels), {"YZ": tuple(yz), "XZ": tuple(xz)},
                       {a: tuple(t) for a, t in atoms.items()}, connectors)


@dataclass(frozen=True)
class ChainEntry:
    point: str
    expr: OrderExpr
    ok: bool

    def as_dict(self) -> dict:
        return {"point": self.point, "order_bound": self.expr.display(), "ok": self.ok}


@dataclass(frozen=True)
class FormVerdict:
    form: FormSpec
    regular: str  # "yes" | "unknown"
    chain: tuple[ChainEntry, ...]
    independence_class: str

    def as_dict(self) -> dict:
        return {
            "form": self.form.as_dict(),
            "regular": self.regular,
            "chain": [c.as_dict() for c in self.chain],
            "independence_class": self.independence_class,
        }


def check_form(config: Configuration, ledger: OrderLedger, spec: FormSpec,
               independence_class: str) -> FormVerdict:
    """Bound the order of the form at every modeled point.

    The verdict is "yes" only when each bound is nonnegative for all
    admissible integer branch orders; otherwise "unknown" (the ledger
    only carries lower bounds on numerator atoms, so failure to prove is
    not a disproof).
    """
    paired = {i for i, _ in config.pairing}
    for a, _ in spec.num + spec.den:
        if a[0] == "link":
            if config.kind != "scaled":
                raise ValueError("connector atoms live on the scaled curve")
            if a[1] not in paired or a[2] not in paired:
                raise ValueError(f"connector {a!r} joins undefined crossings")
        if a[0] == "diag" and config.kind != "shared":
            raise ValueError("the diagonal atom lives on the shared curve")
        if a[0] in ("x", "y") and not 0 <= a[1] < len(config.mults):
            raise ValueError(f"atom index out of range: {a!r}")
    # each entry starts at the Wronskian's order and moves only where an
    # atom of the form does not count 0, so the work is linear in the form
    exprs = list(ledger.wronskian[spec.wronskian])
    for a, k in spec.num:
        for p, o in ledger.touches(a):
            exprs[p] = exprs[p].plus(o, k)
    for a, k in spec.den:
        for p, o in ledger.touches(a):
            exprs[p] = exprs[p].plus(o, -k)
    chain = tuple(ChainEntry(label, e, e.provably_nonnegative())
                  for label, e in zip(ledger.labels, exprs))
    return FormVerdict(spec, "yes" if all(c.ok for c in chain) else "unknown",
                       chain, independence_class)


def replay_chain(verdict: FormVerdict, rng: random.Random) -> bool:
    """Re-evaluate a regular form's inequality chain at random branch orders.

    Draws eight admissible pairs (g in 1..20, slack e in 0..19) and
    checks that no entry of a certified chain ever goes negative. Every
    form a ``HyperbolicityVerdict`` holds is regular.
    """
    for _ in range(8):
        g = rng.randint(1, 20)
        e = rng.randint(0, 19)
        for entry in verdict.chain:
            if entry.expr.value(g, e) < 0:
                return False
    return True


@dataclass(frozen=True)
class IndependenceCertificate:
    """Why two regular forms cannot be proportional on any component.

    kind "linear-span": after clearing the common factor, the two
    numerators are non-proportional linear forms; a vanishing combination
    would make a line a component.  kind "conic-exclusion": the residual
    combination is a quadratic, so a vanishing combination would force a
    component of degree at most two; degree one is assumed away and
    degree two is impossible because a genus-zero conic cannot carry the
    nonzero regular form already certified.
    """

    kind: str
    multipliers: tuple[str, str]
    assumptions: tuple[str, ...]

    def as_dict(self) -> dict:
        return {"kind": self.kind, "multipliers": list(self.multipliers),
                "assumptions": list(self.assumptions)}


@dataclass(frozen=True)
class HyperbolicityVerdict:
    verdict: str  # "none" | "algebraic" | "brody"
    route: str | None
    forms: tuple[FormVerdict, ...]
    independence: IndependenceCertificate | None
    assumptions: tuple[str, ...]
    reason: str | None = None
    needs_coefficient_check: bool = False

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "route": self.route,
            "forms": [f.as_dict() for f in self.forms],
            "independence": self.independence.as_dict() if self.independence else None,
            "assumptions": list(self.assumptions),
            "reason": self.reason,
            "needs_coefficient_check": self.needs_coefficient_check,
        }


class RouteError(RuntimeError):
    """A granted configuration found no verifying construction: engine bug."""


def _sorted_indices(m: tuple[int, ...]) -> list[int]:
    return sorted(range(len(m)), key=lambda i: (-m[i], i))


def _pair(config, ledger, fa, fb, kind, multipliers, asm):
    """Certify a pencil pair: (forms, independence, assumptions) or None.

    Each multiplier is a tuple of atoms, named by their product.
    """
    va = check_form(config, ledger, fa, "pencil-basis-1")
    if va.regular != "yes":
        return None
    vb = check_form(config, ledger, fb, "pencil-basis-2")
    if vb.regular != "yes":
        return None
    names = tuple("*".join(_atom_str(a) for a in mult) for mult in multipliers)
    return (va, vb), IndependenceCertificate(kind, names, asm), asm


# ---------------------------------------------------------------------------
# shared-value curve dispatch
# ---------------------------------------------------------------------------

def _shared_verdict(config: Configuration) -> HyperbolicityVerdict:
    m = config.mults
    l = len(m)
    n = config.n
    order = _sorted_indices(m)
    alg, brody = statement_grants(config)
    if not alg:
        reason = "single-critical-point" if l < 2 else "thin-profile"
        return HyperbolicityVerdict("none", None, (), None,
                                    (ASSUME_SEPARATED,), reason)
    ledger = build_ledger(config)
    den_all = {atom_x(i): m[i] for i in range(l)}

    def omega(drop: int | None) -> FormSpec:
        # (X-Y)^(n-3) * W / prod x_i^(m_i), with one denominator power
        # traded for the diagonal when a crossing needs extra headroom
        den = dict(den_all)
        power = n - 3
        if drop is not None:
            den[atom_x(drop)] -= 1
            power = n - 4
        return form("YZ", {DIAG: power}, den)

    w0 = check_form(config, ledger, omega(None), "pencil-basis-0")
    # the balanced form is regular exactly when every co-multiplicity
    # sum(m_j, j != i) is at least 2, which is the algebraic grant
    if w0.regular != "yes":
        raise RouteError(f"balanced diagonal form failed on {config}")
    if not brody:
        return HyperbolicityVerdict("algebraic", "balanced-diagonal", (w0,),
                                    None, (ASSUME_SEPARATED,))
    i1, i2 = order[0], order[1]
    # omega(i) is regular exactly when every co-multiplicity but the i-th
    # is at least 3, so the split pair needs the deepest point's, that of
    # i1, at least 3; the granted profiles short of it, (m, 1, 1) and
    # (m, 2), take the fallback
    if sum(m) - m[i1] >= 3:
        # a combination a*x_i1 + b*x_i2 is a line of the pencil through
        # the vertical direction (or Z itself); no such line ever divides
        # the shared curve, whose fibers over X = const are nonconstant
        got = _pair(config, ledger, omega(i1), omega(i2), "linear-span",
                    ((atom_x(i1),), (atom_x(i2),)), (ASSUME_SEPARATED,))
        if not got:
            raise RouteError(f"split diagonal pair failed on {config}")
        return HyperbolicityVerdict("brody", "split-diagonal-pair", *got)
    w1 = check_form(config, ledger, omega(i1), "pencil-basis-1")
    if w1.regular != "yes":
        raise RouteError(f"diagonal fallback pair failed on {config}")
    # A line s*(X-Y) + t*x_i1 of this pencil passes through the deep
    # crossing (a, a).  The curve restricts to P' on the diagonal and
    # to (P(a) - P(Y))/(a - Y) on X = a, so neither divides it, nor
    # does Y = a.  Any other line is Y - a = lam*(X - a), lam != 0, 1,
    # and lies on the curve iff lam^k = 1 for every k in the support
    # of Q = P(a + X) - P(a), which needs a support gcd above 1.  The
    # route serves (m, 1, 1), m >= 2, where Q' = c*X^m*(X-b1)*(X-b2)
    # with b1 != b2 both nonzero, and (m, 2), m >= 3, where b2 = b1.
    # Either way m+1 and m+3 are in the support, and so is m+2 unless
    # b1 + b2 = 0.  So the gcd exceeds 1 only if b2 = -b1 and m is
    # odd; then Q is even and P(a + b1) = P(a + b2), against
    # separation.  So ASSUME_SCALE_RIGID follows from ASSUME_SEPARATED;
    # it and needs_coefficient_check stay on the certificate until a
    # round that allows report changes.
    ind = IndependenceCertificate(
        "linear-span", (_atom_str(DIAG), _atom_str(atom_x(i1))),
        (ASSUME_SEPARATED, ASSUME_SCALE_RIGID))
    return HyperbolicityVerdict("brody", "balanced-plus-split",
                                (w0, w1), ind,
                                (ASSUME_SEPARATED, ASSUME_SCALE_RIGID),
                                needs_coefficient_check=True)


# ---------------------------------------------------------------------------
# scaled-value curve dispatch
# ---------------------------------------------------------------------------

def _scaled_stats(config: Configuration):
    m = config.mults
    l = len(m)
    dom = {i for i, _ in config.pairing}
    tau = dict(config.pairing)
    unpaired = [i for i in range(l) if i not in dom]
    all_paired = not unpaired
    order = _sorted_indices(m)
    return m, l, tau, dom, unpaired, all_paired, order


def statement_grants(config: Configuration) -> tuple[bool, bool]:
    """(algebraic granted, brody granted) for a configuration.

    The dispatch certifies exactly these grants. On the shared curve
    they are the separated theorem, which ``classify`` reads: algebraic,
    plain uniqueness for rational functions, needs every co-multiplicity
    at least 2, so three critical points or two non-simple ones; brody,
    for meromorphic functions, holds on all of those but the genus-one
    curves of the smooth quartic (1, 1, 1) and the two-node quintic
    (2, 2). The scaled grants read the multiplicity profile, which
    indices are paired, and the one exceptional all-simple three-cycle.
    Nothing is granted to a single critical point.
    """
    if len(config.mults) < 2:
        return False, False
    if config.kind == "shared":
        ms = sorted(config.mults, reverse=True)
        alg = len(ms) >= 3 or ms[1] >= 2
        return alg, alg and ms not in ([1, 1, 1], [2, 2])
    m, l, _, _, unpaired, all_paired, order = _scaled_stats(config)
    ms = [m[i] for i in order]
    m2 = ms[1]
    simple_unpaired = [i for i in unpaired if m[i] == 1]
    all_ones = ms[0] == 1
    full_cycle_exception = l == 3 and all_ones and all_paired

    mism_alg = all_paired and any(abs(m[i] - m[j]) >= 2 for i, j in config.pairing)
    mism_brody = all_paired and any(abs(m[i] - m[j]) >= 3 for i, j in config.pairing)

    unp_alg = any(m[i] >= 2 for i in unpaired) or len(simple_unpaired) >= 2
    unp_brody = (
        any(m[i] >= 3 for i in unpaired)
        or any(m[i] == 2 and any(m[k] >= 2 for k in range(l) if k != i)
               for i in unpaired)
        or any(m[i] + m[j] == 3 for i in unpaired for j in unpaired if i < j)
        or (l >= 3 and len(simple_unpaired) >= 2)
    )

    prof_alg = (m2 >= 2) or (l >= 3 and m2 == 1 and not full_cycle_exception)
    prof_brody = (m2 >= 2 and not (l == 2 and ms == [2, 2])) \
        or (l >= 3 and m2 == 1 and not (l == 3 and all_ones))

    brody = mism_brody or unp_brody or prof_brody
    alg = mism_alg or unp_alg or prof_alg or brody
    return alg, brody


def _mismatch_orientation(m, i, j):
    """Orient forms anchored at a crossing whose two contacts differ a lot.

    With s = ord(y_j) and t = ord(x_i) locked to (m_i+1) : (m_j+1), a
    large multiplicity gap turns y_j-powers in the numerator into more
    vanishing than the x_i-denominator consumes.  Returns the Wronskian
    pair, the numerator line, the denominator line and the larger
    multiplicity.
    """
    if m[i] < m[j]:
        # mirror orientation: swap the roles of the two coordinates
        return "XZ", atom_x(i), atom_y(j), m[j]
    return "YZ", atom_y(j), atom_x(i), m[i]


def _scaled_brody_routes(config, ledger):
    """Return (route-slug, builder) pairs in dispatch order."""
    m, l, tau, dom, unpaired, all_paired, order = _scaled_stats(config)
    ms = [m[i] for i in order]
    simple_unpaired = [i for i in unpaired if m[i] == 1]
    base = (ASSUME_SEPARATED, ASSUME_NO_LINEAR)
    conic = base + (ASSUME_NO_CONIC,)

    def unpaired_deep_pair():
        for u in unpaired:
            if m[u] >= 3:
                # x_u^(m_u - 3) cancelled against the x_u^(m_u) downstairs
                fa = form("YZ", {COORD_X: 1}, {atom_x(u): 3})
                fb = form("YZ", {COORD_Y: 1}, {atom_x(u): 3})
                got = _pair(config, ledger, fa, fb, "linear-span",
                            ((COORD_X,), (COORD_Y,)), base)
                if got:
                    return got
        return None

    def unpaired_double_with_partner():
        for u in unpaired:
            if m[u] != 2:
                continue
            others = [k for k in order if k != u and m[k] >= 2]
            if not others:
                continue
            k = others[0]  # largest other multiplicity
            fa = form("YZ", {}, {atom_x(u): 2})
            if k in unpaired:
                fb = form("YZ", {}, {atom_x(u): 1, atom_x(k): 1})
                mult2 = atom_x(u)
            else:
                fb = form("YZ", {atom_y(tau[k]): 1}, {atom_x(u): 2, atom_x(k): 1})
                mult2 = atom_y(tau[k])
            got = _pair(config, ledger, fa, fb, "linear-span",
                        ((atom_x(k),), (mult2,)), base)
            if got:
                return got
        return None

    def two_unpaired_sum_three():
        for u in unpaired:
            for v in unpaired:
                if u != v and m[u] == 2 and m[v] == 1:
                    fa = form("YZ", {}, {atom_x(u): 2})
                    fb = form("YZ", {}, {atom_x(u): 1, atom_x(v): 1})
                    got = _pair(config, ledger, fa, fb, "linear-span",
                                ((atom_x(v),), (atom_x(u),)), base)
                    if got:
                        return got
        return None

    def two_unpaired_simple():
        if l < 3 or len(simple_unpaired) < 2:
            return None
        u, v = simple_unpaired[:2]
        rest = [k for k in order if k not in (u, v)]
        t = rest[0]  # largest remaining multiplicity
        fa = form("YZ", {}, {atom_x(u): 1, atom_x(v): 1})
        if t in unpaired:
            fb = form("YZ", {}, {atom_x(u): 1, atom_x(t): 1})
            mult2 = atom_x(v)
        else:
            fb = form("YZ", {atom_y(tau[t]): 1},
                      {atom_x(u): 1, atom_x(v): 1, atom_x(t): 1})
            mult2 = atom_y(tau[t])
        return _pair(config, ledger, fa, fb, "linear-span",
                     ((atom_x(t),), (mult2,)), base)

    def paired_mismatch_wide():
        for i, j in config.pairing:
            if abs(m[i] - m[j]) >= 3:
                w, num_line, den_line, big = _mismatch_orientation(m, i, j)
                fa = form(w, {COORD_X: 1, num_line: big - 3}, {den_line: big})
                fb = form(w, {COORD_Y: 1, num_line: big - 3}, {den_line: big})
                got = _pair(config, ledger, fa, fb, "linear-span",
                            ((COORD_X,), (COORD_Y,)), base)
                if got:
                    return got
        return None

    def top_pair_family():
        i1, i2 = order[0], order[1]
        if ms[1] < 2 or i1 not in dom or i2 not in dom:
            return None
        # [2, 2] with both indices paired is not granted brody
        link = atom_link(i1, i2)
        m1, m2 = m[i1], m[i2]
        w1 = form("YZ", {link: m1 + m2 - 2}, {atom_x(i1): m1, atom_x(i2): m2})
        if m2 >= 3:
            w2 = form("YZ", {link: m1 + m2 - 3}, {atom_x(i1): m1 - 1, atom_x(i2): m2})
            return _pair(config, ledger, w1, w2, "linear-span",
                         ((link,), (atom_x(i1),)), base)
        if 3 <= m1 <= 4:
            w2 = form("YZ", {link: m1 - 1}, {atom_x(i1): m1, atom_x(i2): 1})
            return _pair(config, ledger, w1, w2, "linear-span",
                         ((link,), (atom_x(i2),)), base)
        # left: m1 == 2, l >= 3; for m1 >= 5 paired_mismatch_wide has run
        third_paired = [k for k in dom if k not in (i1, i2)]
        if third_paired:
            k = third_paired[0]
            w2 = form("YZ", {link: 1, atom_link(i2, k): 1, atom_link(i1, k): 1},
                      {atom_x(i1): 2, atom_x(i2): 2, atom_x(k): 1})
            return _pair(config, ledger, w1, w2, "conic-exclusion",
                         ((link, atom_x(k)), (atom_link(i2, k), atom_link(i1, k))),
                         conic)
        u = next(k for k in range(l) if k not in (i1, i2))
        w2 = form("YZ", {link: 2}, {atom_x(i1): 2, atom_x(i2): 1, atom_x(u): 1})
        return _pair(config, ledger, w1, w2, "linear-span",
                     ((atom_x(u),), (atom_x(i2),)), base)

    def deep_anchor_family():
        if ms[1] != 1 or l < 3 or ms[0] < 2:
            return None
        i1 = order[0]
        if i1 in unpaired:
            # m[i1] == 2 and no other index is unpaired: unpaired_deep_pair
            # and two_unpaired_sum_three took the rest; tau is injective
            i = next(i for i in dom if tau[i] != i1)
            fa = form("YZ", {}, {atom_x(i1): 2})
            fb = form("YZ", {atom_y(tau[i]): 1}, {atom_x(i1): 2, atom_x(i): 1})
            return _pair(config, ledger, fa, fb, "linear-span",
                         ((atom_x(i),), (atom_y(tau[i]),)), base)
        # m[i1] is 2 or 3: its partner is simple, so paired_mismatch_wide took m[i1] >= 4
        others_unpaired = [k for k in unpaired if k != i1]
        if others_unpaired:
            u = others_unpaired[0]
            fa = form("YZ", {}, {atom_x(i1): 1, atom_x(u): 1})
            fb = form("YZ", {atom_y(tau[i1]): 1}, {atom_x(i1): 2, atom_x(u): 1})
            return _pair(config, ledger, fa, fb, "linear-span",
                         ((atom_x(i1),), (atom_y(tau[i1]),)), base)
        # everything paired: anchor a connector at the deep crossing
        i2 = next(i for i in dom if i != i1 and tau[i] != i1)  # tau is injective
        i3 = next(k for k in range(l) if k not in (i1, i2))
        fa = form("YZ", {atom_link(i1, i2): 1}, {atom_x(i1): 2, atom_x(i2): 1})
        fb = form("YZ", {atom_link(i1, i3): 1, atom_link(i2, i3): 1},
                  {atom_x(i1): 2, atom_x(i2): 1, atom_x(i3): 1})
        return _pair(config, ledger, fa, fb, "conic-exclusion",
                     ((atom_link(i1, i2), atom_x(i3)),
                      (atom_link(i1, i3), atom_link(i2, i3))), conic)

    def all_ones_family():
        # earlier routes took a multiple point, l <= 3 and two unpaired indices
        if not all_paired:
            u = unpaired[0]
            d1, d2, d3 = sorted(dom)[:3]
            fa = form("YZ", {atom_link(d1, d2): 1},
                      {atom_x(d1): 1, atom_x(d2): 1, atom_x(u): 1})
            fb = form("YZ", {atom_link(d1, d3): 1},
                      {atom_x(d1): 1, atom_x(d3): 1, atom_x(u): 1})
            return _pair(config, ledger, fa, fb, "conic-exclusion",
                         ((atom_link(d1, d2), atom_x(d3)),
                          (atom_link(d1, d3), atom_x(d2))), conic)
        d1, d2, d3, d4 = sorted(dom)[:4]
        den = {atom_x(d1): 1, atom_x(d2): 1, atom_x(d3): 1, atom_x(d4): 1}
        fa = form("YZ", {atom_link(d1, d2): 1, atom_link(d3, d4): 1}, den)
        fb = form("YZ", {atom_link(d1, d3): 1, atom_link(d2, d4): 1}, den)
        return _pair(config, ledger, fa, fb, "conic-exclusion",
                     ((atom_link(d1, d2), atom_link(d3, d4)),
                      (atom_link(d1, d3), atom_link(d2, d4))),
                     conic + (ASSUME_LINES_DISTINCT,))

    return [
        ("unpaired-deep-coordinate-pair", unpaired_deep_pair),
        ("unpaired-double-with-deep-partner", unpaired_double_with_partner),
        ("two-unpaired-sum-three", two_unpaired_sum_three),
        ("two-unpaired-simple", two_unpaired_simple),
        ("paired-mismatch-wide", paired_mismatch_wide),
        ("top-pair-connectors", top_pair_family),
        ("deep-anchor", deep_anchor_family),
        ("all-simple-connectors", all_ones_family),
    ]


def _scaled_alg_routes(config, ledger):
    m, _, _, dom, unpaired, _, order = _scaled_stats(config)
    ms = [m[i] for i in order]
    simple_unpaired = [i for i in unpaired if m[i] == 1]
    base = (ASSUME_SEPARATED, ASSUME_NO_LINEAR)

    def single(spec):
        v = check_form(config, ledger, spec, "single")
        return ((v,), None, base) if v.regular == "yes" else None

    def unpaired_deep():
        for u in unpaired:
            if m[u] >= 2:
                return single(form("YZ", {}, {atom_x(u): 2}))
        return None

    def two_unpaired_simple_form():
        if len(simple_unpaired) >= 2:
            u, v = simple_unpaired[:2]
            return single(form("YZ", {}, {atom_x(u): 1, atom_x(v): 1}))
        return None

    def paired_mismatch():
        for i, j in config.pairing:
            if abs(m[i] - m[j]) >= 2:
                w, num_line, den_line, big = _mismatch_orientation(m, i, j)
                got = single(form(w, {num_line: big - 2}, {den_line: big}))
                if got:
                    return got
        return None

    def top_pair_connector_power():
        i1, i2 = order[0], order[1]
        if ms[1] >= 2 and i1 in dom and i2 in dom:
            link = atom_link(i1, i2)
            return single(form("YZ", {link: m[i1] + m[i2] - 2},
                               {atom_x(i1): m[i1], atom_x(i2): m[i2]}))
        return None

    def all_ones_alg():
        # of the five granted algebraic but not brody, only (1,1,1) gets here
        u = unpaired[0]
        d1, d2 = sorted(dom)[:2]
        return single(form("YZ", {atom_link(d1, d2): 1},
                           {atom_x(d1): 1, atom_x(d2): 1, atom_x(u): 1}))

    return [
        ("unpaired-deep", unpaired_deep),
        ("two-unpaired-simple-form", two_unpaired_simple_form),
        ("paired-mismatch", paired_mismatch),
        ("top-pair-connector-power", top_pair_connector_power),
        ("all-simple-connector-form", all_ones_alg),
    ]


def _scaled_verdict(config: Configuration) -> HyperbolicityVerdict:
    m, l, tau, dom, unpaired, all_paired, order = _scaled_stats(config)
    alg, brody = statement_grants(config)
    if l < 2:
        return HyperbolicityVerdict("none", None, (), None,
                                    (ASSUME_SEPARATED,), "single-critical-point")
    if not alg:
        ms = [m[i] for i in order]
        if l == 3 and ms == [1, 1, 1] and all_paired:
            # the only pairing on three simple points is a cycle, which
            # forces the scaling constant to satisfy c^2 + c + 1 = 0;
            # no form construction applies and the curve can indeed
            # degenerate
            reason = "three-cycle-scaling"
        else:
            reason = "outside-granted-profiles"
        return HyperbolicityVerdict("none", None, (), None,
                                    (ASSUME_SEPARATED, ASSUME_NO_LINEAR), reason)
    ledger = build_ledger(config)
    if brody:
        for slug, builder in _scaled_brody_routes(config, ledger):
            got = builder()
            if got:
                vs, ind, asm = got
                return HyperbolicityVerdict("brody", slug, vs, ind, asm)
        raise RouteError(f"brody granted but unverified: {config}")
    for slug, builder in _scaled_alg_routes(config, ledger):
        got = builder()
        if got:
            vs, ind, asm = got
            return HyperbolicityVerdict("algebraic", slug, vs, ind, asm)
    raise RouteError(f"algebraic granted but unverified: {config}")


def hyperbolicity_verdict(config: Configuration) -> HyperbolicityVerdict:
    """Case dispatch from a critical-point configuration to a verdict.

    Every "algebraic" comes with one certified regular 1-form and every
    "brody" with two plus an independence certificate.  "none" means no
    construction in the dispatch applies; it is not a disproof, and for
    the handful of genuinely degenerate profiles the classifier supplies
    curve-level evidence instead.
    """
    if config.kind == "shared":
        return _shared_verdict(config)
    return _scaled_verdict(config)


def replay_verdict(hv: HyperbolicityVerdict, rng: random.Random | None = None) -> bool:
    rng = rng or random.Random(0)
    return all(replay_chain(v, rng) for v in hv.forms)


# ---------------------------------------------------------------------------
# configuration enumeration (for table tests, selftest, demos)
# ---------------------------------------------------------------------------

def _partitions(total: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(rest, mx, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, mx), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(total, total, [])
    return out


def _pairing_matrices(sizes: list[int]):
    """All edge-count matrices realizable as fixed-point-free partial
    injections between multiplicity classes."""
    r = len(sizes)
    cells = [(i, j) for i in range(r) for j in range(r)]
    mats: list[list[list[int]]] = []

    def rec(idx, mat, out_used, in_used):
        if idx == len(cells):
            mats.append([row[:] for row in mat])
            return
        i, j = cells[idx]
        cap = min(sizes[i] - out_used[i], sizes[j] - in_used[j])
        if i == j and sizes[i] == 1:
            cap = 0  # a single vertex cannot pair with itself
        for k in range(cap + 1):
            mat[i][j] = k
            out_used[i] += k
            in_used[j] += k
            rec(idx + 1, mat, out_used, in_used)
            out_used[i] -= k
            in_used[j] -= k
            mat[i][j] = 0

    rec(0, [[0] * r for _ in range(r)], [0] * r, [0] * r)
    return mats


def _realize_pairing(sizes, classes, mat):
    """Build one concrete pairing with the requested class edge counts.

    Within a class the edges form a path (or a full cycle when the class
    is saturated), which never creates a fixed point; cross-class edges
    match any out-free source with any in-free target.
    """
    out_free = [list(c) for c in classes]
    in_free = [list(c) for c in classes]
    edges: list[tuple[int, int]] = []
    r = len(sizes)
    for i in range(r):
        k = mat[i][i]
        if k == 0:
            continue
        verts = classes[i]
        if k == len(verts):
            cycle = verts
            for a in range(k):
                edges.append((cycle[a], cycle[(a + 1) % k]))
            out_free[i] = []
            in_free[i] = []
        else:
            path = verts[: k + 1]
            for a in range(k):
                edges.append((path[a], path[a + 1]))
            used_out = set(path[:k])
            used_in = set(path[1:])
            out_free[i] = [v for v in verts if v not in used_out]
            in_free[i] = [v for v in verts if v not in used_in]
    for i in range(r):
        for j in range(r):
            if i == j:
                continue
            for _ in range(mat[i][j]):
                edges.append((out_free[i].pop(), in_free[j].pop()))
    return tuple(sorted(edges))


def enumerate_configurations(max_n: int):
    """One representative configuration per combinatorial type, n <= max_n.

    Verdicts depend only on the multiplicity profile and the multiset of
    paired multiplicity values, so enumerating class-level edge matrices
    covers every case without walking the full space of pairings.
    """
    configs: list[Configuration] = []
    for n in range(3, max_n + 1):
        for mults in _partitions(n - 1):
            if len(mults) < 2:
                continue  # single critical point: handled upstream
            configs.append(Configuration("shared", mults))
            values = sorted(set(mults), reverse=True)
            classes = [[i for i, m in enumerate(mults) if m == v] for v in values]
            sizes = [len(c) for c in classes]
            for mat in _pairing_matrices(sizes):
                pairing = _realize_pairing(sizes, classes, mat)
                configs.append(Configuration("scaled", mults, pairing))
    return configs
