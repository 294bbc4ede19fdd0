"""Acceptance suites.

Each criterion below is an independent check of one advertised
capability, written against public entry points only.  The functions
take their case counts as arguments so the command-line runner can
offer a reduced fast mode, while the test suite runs the full sizes.

Oracles are deliberately redundant with the implementation: the witness
search solves coefficient equations instead of reading support gcds,
the table check recomputes verdicts from exponent arithmetic alone, and
the separation check uses floating point root-finding.  Agreement
between independent routes is the point.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Iterator, Optional

from .classify import (
    SLOTS,
    classify,
    corollary_classify,
    verify_witness,
    witness_search,
)
from .criteria import (
    critical_structure,
    index_data,
    linear_factor_scan,
    quartic_value_orbit,
)
from .curves import (
    Configuration,
    genus_ordinary,
    singular_census,
    verify_curve_identities,
)
from .orders import enumerate_configurations, hyperbolicity_verdict
from .parser import parse_poly
from .polynomials import Poly, X


@dataclass(frozen=True)
class CriterionResult:
    name: str
    ok: bool
    cases: int
    detail: str
    seconds: float


def _result(name: str, start: float, cases: int,
            failures: list) -> CriterionResult:
    ok = not failures
    detail = "all cases agree" if ok else "; ".join(
        str(f) for f in failures[:5])
    if not ok and len(failures) > 5:
        detail += f" (+{len(failures) - 5} more)"
    return CriterionResult(name, ok, cases, detail, time.time() - start)


def _one_gap_poly(n: int, m: int, a: Q, b: Q) -> Poly:
    return Poly.from_support({n: Q(1), m: a, 0: b})


def _grid(max_n: int) -> Iterator[tuple[int, int, Q, Q]]:
    vals = [Q(0), Q(1), Q(-1), Q(2), Q(-2)]
    for n in range(2, max_n + 1):
        for m in range(1, n):
            for a in vals:
                for b in vals:
                    yield n, m, a, b


def one_gap_table_agreement(max_n: int = 10) -> CriterionResult:
    """The exponent-arithmetic table matches the full classifier on the
    one-gap grid, including the pinned rows and the scaling witnesses
    on the b = 0 rows."""
    start = time.time()
    failures: list = []
    cases = 0
    for n, m, a, b in _grid(max_n):
        cases += 1
        table = corollary_classify(Q(0), n, m, a, b)
        p = _one_gap_poly(n, m, a, b)
        v = classify(p)
        got = tuple(v.slot(s) == "yes" for s in SLOTS)
        if got != table.as_tuple():
            failures.append((n, m, a, b, got, table.as_tuple()))
            continue
        if b == 0 and table.up_rational and not table.sup_rational:
            w = v.witnesses.get("sup_rational")
            if w is None or w.kind != "scaling-with-c":
                failures.append((n, m, a, b, "missing scaling-with-c"))
            elif not verify_witness(p, w):
                failures.append((n, m, a, b, "witness does not replay"))
    # pinned rows
    pins = [
        ((4, 1, Q(1), Q(1)), (True, True, False, False)),
        ((5, 2, Q(1), Q(1)), (True, True, True, True)),
    ]
    for (n, m, a, b), want in pins:
        cases += 1
        if corollary_classify(Q(0), n, m, a, b).as_tuple() != want:
            failures.append(("pin", n, m, a, b, want))
    return _result("one-gap-table-agreement", start, cases, failures)


def witness_oracle_agreement(max_n: int = 10) -> CriterionResult:
    """On the one-gap grid the direct map search finds a witness behind
    every plain negative verdict and nothing behind a positive one."""
    start = time.time()
    failures: list = []
    cases = 0
    for n, m, a, b in _grid(max_n):
        cases += 1
        p = _one_gap_poly(n, m, a, b)
        v = classify(p)
        found = {
            "c_equals_1": witness_search(p, mode="c_equals_1"),
            "any_c": witness_search(p, mode="any_c"),
        }
        for slot in SLOTS:
            mode = "c_equals_1" if slot.startswith("up") else "any_c"
            w = found[mode]
            verdict = v.slot(slot)
            if verdict == "yes":
                if w is not None:
                    failures.append((n, m, a, b, slot, "unexpected witness"))
            elif verdict == "no":
                attached = v.witnesses.get(slot)
                if attached is None:
                    failures.append((n, m, a, b, slot, "no witness attached"))
                elif attached.kind == "paper-exception":
                    continue
                elif w is None:
                    failures.append((n, m, a, b, slot, "oracle found nothing"))
                elif not verify_witness(p, w):
                    failures.append((n, m, a, b, slot, "no exact replay"))
    return _result("witness-oracle-agreement", start, cases, failures)


def _factor_divides(p: Poly, order: int, c_exponent: int) -> bool:
    # the line X = z * Y lies in the curve iff P(z t) = c P(t)
    # identically, i.e. a_i * z^i = a_i * z^e coefficientwise; for z of
    # exact order r that is i = e (mod r) on the support
    return all((i - c_exponent) % order == 0 for i in p.support())


def converse_factor_pins() -> CriterionResult:
    """High-gap polynomials built to admit a line in one of their
    value-sharing curves: the scan must find the line, with the order
    and multiplier exponent read off the support, and the line must
    divide the curve, checked as a congruence on the exponents."""
    start = time.time()
    failures: list = []
    # (polynomial, mode, order, multiplier exponent)
    pins = [
        (X**7 + X**3 + X, "F_c", 2, 1),
        (X**6 + X**3, "F", 3, 0),
        (X**8 + X**4 + X**2, "F", 2, 0),
    ]
    cases = 0
    for p, mode, order, c_exp in pins:
        cases += 1
        idx = index_data(p)
        scan = linear_factor_scan(idx, mode)
        if not scan.applicable:
            failures.append((str(p), "scan not applicable"))
            continue
        match = [f for f in scan.factors
                 if f.order == order and f.c_exponent % order == c_exp % order]
        if not match:
            failures.append((str(p), "expected factor not found"))
            continue
        if not _factor_divides(p, order, c_exp):
            failures.append((str(p), "factor fails cyclotomic division"))
        other = "F" if mode == "F_c" else "F_c"
        for f in linear_factor_scan(idx, other).factors:
            if not _factor_divides(p, f.order, f.c_exponent):
                failures.append((str(p), other, "stray factor does not divide"))
    return _result("converse-factor-pins", start, cases, failures)


def _random_poly(rng: random.Random, max_deg: int, min_deg: int = 2,
                 rational: bool = False) -> Poly:
    d = rng.randint(min_deg, max_deg)
    coeffs = {}
    for i in range(d):
        if rng.random() < 0.7:
            num = rng.randint(-9, 9)
            den = rng.randint(1, 5) if rational else 1
            if num:
                coeffs[i] = Q(num, den)
    lead = rng.randint(1, 5)
    if rational:
        coeffs[d] = Q(rng.choice([-lead, lead]), rng.randint(1, 3))
    else:
        coeffs[d] = Q(rng.choice([-lead, lead]))
    return Poly.from_support(coeffs)


def curve_identity_suite(cases: int = 100, seed: int = 0) -> CriterionResult:
    """Both value-sharing curves satisfy their defining identities, the
    Euler relation and the diagonal restrictions, for random input."""
    start = time.time()
    rng = random.Random(seed ^ 0x1D5)
    failures: list = []
    for _ in range(cases):
        p = _random_poly(rng, 10, rational=True)
        c = Q(0)
        while c in (0, 1):
            c = Q(rng.randint(-9, 9), rng.randint(1, 6))
        checks = verify_curve_identities(p, c)
        bad = [k for k, okay in checks.items() if not okay]
        if bad:
            failures.append((str(p), str(c), bad))
    return _result("curve-identity-suite", start, cases, failures)


def _horner(coeffs: list[float], x: complex) -> tuple[complex, complex]:
    """The value and the derivative at x, coefficients highest first."""
    value = slope = 0j
    for c in coeffs:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _float_roots(coeffs: list[float]) -> list[complex]:
    """Complex roots of a float polynomial, coefficients highest first,
    the first one nonzero.

    As ``numpy.roots`` does, each trailing zero is a root 0. The rest
    come from Aberth's iteration with Horner evaluation, started on a
    circle about the centroid of the roots.
    """
    n = max(i for i, c in enumerate(coeffs) if c)  # trailing zeros dropped
    a = [c / coeffs[0] for c in coeffs[:n + 1]]
    z = [cmath.rect(abs(a[n]) ** (1 / n), 2 * math.pi * k / n + 0.4)
         - a[1] / n for k in range(n)]
    for _ in range(500):
        worst = 0.0
        for k in range(n):
            pz, dz = _horner(a, z[k])
            denom = dz - pz * sum(1 / (z[k] - z[j])
                                  for j in range(n) if j != k)
            step = pz / denom if denom else 0j
            z[k] -= step
            worst = max(worst, abs(step) / max(1.0, abs(z[k])))
        if worst < 1e-15:
            break
    return z + [0j] * (len(coeffs) - 1 - n)


def separation_float_agreement(cases: int = 200,
                               seed: int = 0) -> CriterionResult:
    """The exact value-separation verdict agrees with a floating-point
    oracle built on Aberth root finding at tolerance 1e-9."""
    start = time.time()
    rng = random.Random(seed ^ 0x5E9)
    failures: list = []
    for _ in range(cases):
        p = _random_poly(rng, 10)
        exact = critical_structure(p).is_separated
        dp = p.derivative()
        coeffs = [float(dp.coeff(i)) for i in range(dp.degree, -1, -1)]
        roots = _float_roots(coeffs)
        # cluster equal critical points before comparing values
        centers: list[complex] = []
        for r in roots:
            if all(abs(r - c) > 1e-6 for c in centers):
                centers.append(complex(r))
        pc = [float(p.coeff(i)) for i in range(p.degree, -1, -1)]
        values = [_horner(pc, z)[0] for z in centers]
        approx = all(
            abs(values[i] - values[j]) > 1e-9
            for i in range(len(values))
            for j in range(i + 1, len(values))
        )
        if exact != approx:
            failures.append((str(p), exact, approx))
    return _result("separation-float-agreement", start, cases, failures)


def genus_pins() -> CriterionResult:
    """Genus values of the named curves, via census and degree alone."""
    start = time.time()
    failures: list = []
    cases = 0

    def check(label: str, got, want) -> None:
        nonlocal cases
        cases += 1
        if got != want:
            failures.append((label, got, want))

    smooth = Configuration("shared", (1, 1, 1))
    check("smooth-cubic-census", singular_census(smooth), ())
    check("smooth-cubic-genus",
          genus_ordinary(smooth.degree, singular_census(smooth)), 1)
    for m1 in range(1, 7):
        cfg = Configuration("shared", (m1, 1))
        check(f"two-point-({m1},1)",
              genus_ordinary(cfg.degree, singular_census(cfg)), 0)
    quintic = Configuration("shared", (2, 2))
    check("two-node-quintic",
          genus_ordinary(quintic.degree, singular_census(quintic)), 1)
    orbit = Configuration("scaled", (1, 1, 1), ((0, 1), (1, 2), (2, 0)))
    census = singular_census(orbit)
    check("orbit-quartic-census-size", len(census), 3)
    check("orbit-quartic-ordinary", all(pt.ordinary for pt in census), True)
    check("orbit-quartic-genus", genus_ordinary(orbit.degree, census), 0)
    return _result("genus-pins", start, cases, failures)


def _hand_shared(mults) -> str:
    ms = sorted(mults, reverse=True)
    l = len(ms)
    if l >= 4 or (l == 3 and ms[0] >= 2) or (l == 2 and ms[1] >= 2 and ms[0] >= 3):
        return "brody"
    if l >= 3 or (l == 2 and ms[1] >= 2):
        return "algebraic"
    return "none"


def _hand_scaled(mults, pairing) -> str:
    l = len(mults)
    if l < 2:
        return "none"
    paired_src = sorted(i for i, _ in pairing)
    unpaired = [i for i in range(l) if i not in paired_src]
    everyone_paired = len(paired_src) == l
    ms = sorted(mults, reverse=True)
    deltas = [abs(mults[i] - mults[j]) for i, j in pairing]
    simple_free = [i for i in unpaired if mults[i] == 1]
    heavy_free = [i for i in unpaired if mults[i] >= 2]
    all_simple = ms[0] == 1

    brody = False
    if everyone_paired and deltas and max(deltas) >= 3:
        brody = True
    if any(mults[i] >= 3 for i in unpaired):
        brody = True
    for i in unpaired:
        if mults[i] == 2 and any(mults[k] >= 2 for k in range(l) if k != i):
            brody = True
    for a in range(len(unpaired)):
        for b in range(a + 1, len(unpaired)):
            if mults[unpaired[a]] + mults[unpaired[b]] == 3:
                brody = True
    if l >= 3 and len(simple_free) >= 2:
        brody = True
    if ms[1] >= 2 and not (l == 2 and ms[0] == 2 and ms[1] == 2):
        brody = True
    if l >= 3 and ms[1] == 1 and not (l == 3 and all_simple):
        brody = True
    if brody:
        return "brody"

    alg = False
    if everyone_paired and deltas and max(deltas) >= 2:
        alg = True
    if heavy_free or len(simple_free) >= 2:
        alg = True
    if ms[1] >= 2:
        alg = True
    if l >= 3 and ms[1] == 1:
        if not (l == 3 and all_simple and everyone_paired):
            alg = True
    return "algebraic" if alg else "none"


def order_table_agreement(max_n: int = 12) -> CriterionResult:
    """The constructed-form verdicts match the hand-encoded statement
    table over every configuration type up to the degree bound."""
    start = time.time()
    failures: list = []
    cases = 0
    for cfg in enumerate_configurations(max_n):
        cases += 1
        hv = hyperbolicity_verdict(cfg)
        want = _hand_shared(cfg.mults) if cfg.kind == "shared" \
            else _hand_scaled(cfg.mults, cfg.pairing)
        if hv.verdict != want:
            failures.append((cfg.kind, cfg.mults, cfg.pairing,
                             hv.verdict, want))
    return _result("order-table-agreement", start, cases, failures)


def exceptional_quartic_flags() -> CriterionResult:
    """The value-orbit flag fires on the one quartic built for it and
    stays quiet across a grid of ordinary quartics."""
    start = time.time()
    failures: list = []
    cases = 0
    cs = critical_structure(X**4 - 4 * X)
    cases += 2
    if not quartic_value_orbit(cs):
        failures.append(("X^4 - 4X", "flag missing"))
    want_sep = Poly.from_support({3: Q(1), 0: Q(27)})
    if cs.separation_poly != want_sep:
        failures.append(("X^4 - 4X", "separation polynomial",
                         str(cs.separation_poly)))
    for a in (-3, -2, -1, 1, 2, 3):
        for b in (-3, -2, -1, 1, 2, 3):
            cases += 1
            if quartic_value_orbit(critical_structure(X**4 + a * X + b)):
                failures.append((f"X^4 + {a}X + {b}", "spurious flag"))
    return _result("exceptional-quartic-flags", start, cases, failures)


def _property_poly_core(rng: random.Random) -> Optional[str]:
    p = _random_poly(rng, 6, min_deg=0, rational=True)
    q = _random_poly(rng, 6, min_deg=1, rational=True)
    if (p + q) - q != p:
        return "additive round trip"
    if p * q != q * p:
        return "commutativity"
    if not p.is_zero and (p * q).degree != p.degree + q.degree:
        return "degree of product"
    if (p * q).exact_div(q) != p:
        return "division round trip"
    s = Q(rng.randint(-4, 4), rng.randint(1, 3))
    if p.taylor_shift(s).taylor_shift(-s) != p:
        return "shift round trip"
    t = Q(rng.randint(-5, 5), rng.randint(1, 4))
    if (p * q).evaluate(t) != p.evaluate(t) * q.evaluate(t):
        return "evaluation is multiplicative"
    if (p + q).evaluate(t) != p.evaluate(t) + q.evaluate(t):
        return "evaluation is additive"
    return None


def _property_lattice(rng: random.Random) -> Optional[str]:
    p = _random_poly(rng, 7)
    v = classify(p)
    implications = [
        ("sup_rational", "up_rational"),
        ("sup_meromorphic", "up_meromorphic"),
        ("up_meromorphic", "up_rational"),
        ("sup_meromorphic", "sup_rational"),
    ]
    for strong, weak in implications:
        if v.slot(strong) == "yes" and v.slot(weak) != "yes":
            return f"{strong} yes above {weak} {v.slot(weak)}"
    for slot in SLOTS:
        if v.slot(slot) == "no" and slot not in v.witnesses:
            return f"{slot} negative without witness"
        if v.slot(slot) == "out_of_scope" and \
                slot not in v.out_of_scope_reasons:
            return f"{slot} out of scope without reason"
    if not v.rule_trace:
        return "empty rule trace"
    return None


def _property_invariance(rng: random.Random) -> Optional[str]:
    p = _random_poly(rng, 5)
    s = Q(rng.randint(-3, 3), rng.randint(1, 2))
    lam = Q(rng.choice([1, -1, 2, -2, 3]), rng.choice([1, 2]))
    moved = (p.taylor_shift(s)) * lam
    v0 = classify(p)
    v1 = classify(moved)
    for slot in SLOTS:
        if v0.slot(slot) != v1.slot(slot):
            return f"{slot} changed under shift/scale"
    return None


def _property_parser(rng: random.Random) -> Optional[str]:
    p = _random_poly(rng, 9, min_deg=0, rational=True)
    text = str(p)
    back = parse_poly(text)
    if back != p:
        return f"round trip failed for {text}"
    return None


def property_suites(cases: int = 10_000, seed: int = 0) -> CriterionResult:
    """Four randomized invariant suites at a fixed seed: core
    arithmetic, verdict lattice shape, shift/scale invariance of the
    classifier, and parser round trips."""
    start = time.time()
    failures: list = []
    suites: list[tuple[str, Callable[[random.Random], Optional[str]], int]] = [
        ("poly-core", _property_poly_core, cases),
        ("verdict-lattice", _property_lattice, cases),
        ("shift-scale-invariance", _property_invariance, cases),
        ("parser-round-trip", _property_parser, cases),
    ]
    total = 0
    for name, prop, count in suites:
        # string seeding is stable across processes, unlike tuple hashes
        rng = random.Random(f"{seed}:{name}")
        for i in range(count):
            total += 1
            try:
                problem = prop(rng)
            except Exception as exc:
                problem = f"raised {type(exc).__name__}: {exc}"
            if problem:
                failures.append((name, i, problem))
                break
    return _result("property-suites", start, total, failures)


def run_all(seed: int = 0, fast: bool = False) -> list[CriterionResult]:
    if fast:
        return [
            one_gap_table_agreement(max_n=6),
            witness_oracle_agreement(max_n=6),
            converse_factor_pins(),
            curve_identity_suite(cases=20, seed=seed),
            separation_float_agreement(cases=30, seed=seed),
            genus_pins(),
            order_table_agreement(max_n=9),
            exceptional_quartic_flags(),
            property_suites(cases=400, seed=seed),
        ]
    return [
        one_gap_table_agreement(),
        witness_oracle_agreement(),
        converse_factor_pins(),
        curve_identity_suite(cases=100, seed=seed),
        separation_float_agreement(cases=200, seed=seed),
        genus_pins(),
        order_table_agreement(),
        exceptional_quartic_flags(),
        property_suites(cases=10_000, seed=seed),
    ]
