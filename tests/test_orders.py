"""Order-calculus engine: ledgers, form checks, verdict dispatch."""

import hashlib
import json
import random
from fractions import Fraction
from math import gcd

import pytest

from uniqpoly.criteria import critical_structure
from uniqpoly.curves import Configuration
from uniqpoly.orders import (
    ASSUME_NO_CONIC,
    ASSUME_NO_LINEAR,
    ASSUME_SCALE_RIGID,
    ASSUME_SEPARATED,
    FormSpec,
    OrderExpr,
    RouteError,
    _scaled_alg_routes,
    _scaled_brody_routes,
    atom_link,
    atom_x,
    atom_y,
    build_ledger,
    check_form,
    enumerate_configurations,
    form,
    hyperbolicity_verdict,
    replay_chain,
    replay_verdict,
    statement_grants,
)
from uniqpoly.polynomials import Poly, X
from uniqpoly.report import jsonable

DIAG = ("diag",)

VERDICT_RANK = {"none": 0, "algebraic": 1, "brody": 2}


def order_at(ledger, atom, label):
    """The ledger's order of atom at the point named label (0 if untouched)."""
    p = ledger.labels.index(label)
    return dict(ledger.touches(atom)).get(p, OrderExpr())


def _of_kind(max_n: int, kind: str) -> list:
    """The enumerated configurations of one curve kind."""
    return [c for c in enumerate_configurations(max_n) if c.kind == kind]


# ---------------------------------------------------------------------------
# ledger construction
# ---------------------------------------------------------------------------

def test_scaled_crossing_locks_contact_ratio():
    # multiplicities 3 and 1: (3+1)*ord(x) = (1+1)*ord(y) forces
    # ord(x) = t, ord(y) = 2t
    cfg = Configuration("scaled", (3, 1), ((0, 1),))
    led = build_ledger(cfg)
    ox = order_at(led, atom_x(0), "crossing:0")
    oy = order_at(led, atom_y(1), "crossing:0")
    assert (ox.g_coef, ox.const) == (1, 0)
    assert (oy.g_coef, oy.const) == (2, 0)
    # the Wronskian W(Y,Z) drops one from the y-contact
    ow = led.wronskian["YZ"][led.labels.index("crossing:0")]
    assert (ow.g_coef, ow.const) == (2, -1)
    # a connector through the crossing has at least the smaller contact
    assert led.connectors[0] == (led.labels.index("crossing:0"),
                                 OrderExpr(g_coef=1))


def test_scaled_crossing_equal_multiplicities():
    led = build_ledger(Configuration("scaled", (2, 2), ((0, 1),)))
    assert order_at(led, atom_x(0), "crossing:0").g_coef == 1
    assert order_at(led, atom_y(1), "crossing:0").g_coef == 1


def test_scaled_crossing_coprime_contact_orders():
    # multiplicities 3 and 2: 4*ord(x) = 3*ord(y) with gcd(4,3)=1 forces
    # ord(x) divisible by 3
    led = build_ledger(Configuration("scaled", (3, 2), ((0, 1),)))
    assert order_at(led, atom_x(0), "crossing:0").g_coef == 3
    assert order_at(led, atom_y(1), "crossing:0").g_coef == 4


def test_shared_crossing_and_fibers():
    cfg = Configuration("shared", (2, 2))
    led = build_ledger(cfg)
    assert order_at(led, atom_x(1), "crossing:1").g_coef == 1
    assert order_at(led, atom_y(1), "crossing:1").g_coef == 1
    od = order_at(led, DIAG, "crossing:1")
    assert (od.g_coef, od.e_coef) == (1, 1)
    # off-index atoms are units at the crossing
    assert order_at(led, atom_x(0), "crossing:1").g_coef == 0
    assert [lb for lb in led.labels if lb.startswith("x-fiber")] == ["x-fiber:0", "x-fiber:1"]
    assert order_at(led, atom_x(0), "x-fiber:0").const == 1
    f = led.labels.index("x-fiber:0")
    assert led.wronskian["YZ"][f].const == 2  # multiplicity of the branch
    assert led.wronskian["XZ"][f].const == 0


def test_ledger_needs_two_critical_points():
    with pytest.raises(ValueError):
        build_ledger(Configuration("shared", (4,)))


# ---------------------------------------------------------------------------
# form specification sanity
# ---------------------------------------------------------------------------

def test_form_degree_bookkeeping_enforced():
    with pytest.raises(ValueError):
        form("YZ", {}, {atom_x(0): 1})  # den = num + 1, not + 2
    with pytest.raises(ValueError):
        form("YZ", {DIAG: 2}, {atom_x(0): 2})


def test_form_denominator_restricted_to_coordinate_lines():
    with pytest.raises(ValueError):
        FormSpec("YZ", (), ((atom_link(0, 1), 2),))
    with pytest.raises(ValueError):
        FormSpec("YZ", (), ((DIAG, 2),))


def test_form_shared_atoms_must_cancel():
    with pytest.raises(ValueError):
        FormSpec("YZ", ((atom_x(0), 1),), ((atom_x(0), 3),))


def test_form_display():
    f = form("YZ", {atom_link(0, 1): 2}, {atom_x(0): 2, atom_x(1): 2})
    assert f.describe() == "L[0,1]^2*W(Y,Z) / x0^2*x1^2"


def test_check_form_rejects_unrepresentable_atoms():
    cfg = Configuration("scaled", (2, 2), ((0, 1),))
    led = build_ledger(cfg)
    # connector needs both endpoints to be crossings; index 1 is not
    bad = form("YZ", {atom_link(0, 1): 2}, {atom_x(0): 2, atom_x(1): 2})
    with pytest.raises(ValueError):
        check_form(cfg, led, bad, "single")
    # the diagonal lives on the shared curve only
    with pytest.raises(ValueError):
        check_form(cfg, led, form("YZ", {DIAG: 1}, {atom_x(0): 3}),
                   "single")


# ---------------------------------------------------------------------------
# form checking against the ledger
# ---------------------------------------------------------------------------

def test_balanced_diagonal_form_on_three_simple_points():
    # n = 4, all multiplicities 1: (X-Y) * W / (x0*x1*x2) has bound
    # g + e - 1 >= 0 at each crossing, and 0 at fibers and infinity
    cfg = Configuration("shared", (1, 1, 1))
    led = build_ledger(cfg)
    spec = form("YZ", {DIAG: 1}, {atom_x(0): 1, atom_x(1): 1, atom_x(2): 1})
    v = check_form(cfg, led, spec, "single")
    assert v.regular == "yes"
    at = {c.point: c for c in v.chain}
    assert at["crossing:0"].expr.display() == "1g + 1e - 1"
    assert at["x-fiber:0"].expr.value(1, 0) == 0
    assert at["infinity"].expr.value(1, 0) == 0


def test_balanced_diagonal_form_fails_on_thin_profile():
    # l = 2 with a simple point: at the deep crossing the bound drops to
    # e - 1, which is negative for transversal diagonal contact
    cfg = Configuration("shared", (2, 1))
    led = build_ledger(cfg)
    spec = form("YZ", {DIAG: 1}, {atom_x(0): 2, atom_x(1): 1})
    v = check_form(cfg, led, spec, "single")
    assert v.regular == "unknown"
    bad = {c.point: c for c in v.chain}["crossing:0"]
    assert not bad.ok
    assert bad.expr.display() == "1e - 1"


def test_wide_mismatch_pair_is_regular():
    # paired multiplicities (4, 1): contact orders lock to 2t and 5t, so
    # X*y1*W/x0^4 and Y*y1*W/x0^4 clear the denominator with room
    cfg = Configuration("scaled", (4, 1), ((0, 1), (1, 0)))
    led = build_ledger(cfg)
    for coord in ("X", "Y"):
        spec = form("YZ", {("coord", coord): 1, atom_y(1): 1}, {atom_x(0): 4})
        assert check_form(cfg, led, spec, "single").regular == "yes"


def test_replay_chain_matches_symbolic_check():
    cfg = Configuration("shared", (1, 1, 1, 1))
    led = build_ledger(cfg)
    spec = form("YZ", {DIAG: 2}, {atom_x(i): 1 for i in range(4)})
    v = check_form(cfg, led, spec, "single")
    assert v.regular == "yes"
    # eight draws per call, so seven calls on one generator take the 50
    # draws a single call used to take, and six more
    rng = random.Random(123)
    assert all(replay_chain(v, rng) for _ in range(7))


# ---------------------------------------------------------------------------
# verdict pins
# ---------------------------------------------------------------------------

def test_shared_three_simple_points_algebraic_only():
    hv = hyperbolicity_verdict(Configuration("shared", (1, 1, 1)))
    assert hv.verdict == "algebraic"
    assert hv.route == "balanced-diagonal"
    assert len(hv.forms) == 1
    assert hv.assumptions == (ASSUME_SEPARATED,)


def test_shared_two_double_points_algebraic_only():
    hv = hyperbolicity_verdict(Configuration("shared", (2, 2)))
    assert hv.verdict == "algebraic"


def test_shared_four_points_brody():
    hv = hyperbolicity_verdict(Configuration("shared", (1, 1, 1, 1)))
    assert hv.verdict == "brody"
    assert hv.route == "split-diagonal-pair"
    assert len(hv.forms) == 2
    assert hv.independence.kind == "linear-span"
    assert not hv.needs_coefficient_check


def test_shared_fallback_pencil_flags_coefficient_check():
    # profile (3, 2): the second basis form swaps a diagonal power for
    # the deep coordinate line, and independence leans on the absence of
    # a rescaling symmetry
    hv = hyperbolicity_verdict(Configuration("shared", (3, 2)))
    assert hv.verdict == "brody"
    assert hv.route == "balanced-plus-split"
    assert hv.needs_coefficient_check
    assert ASSUME_SCALE_RIGID in hv.independence.assumptions


def test_shared_thin_profiles_get_none():
    assert hyperbolicity_verdict(Configuration("shared", (5, 1))).verdict == "none"
    hv = hyperbolicity_verdict(Configuration("shared", (3,)))
    assert hv.verdict == "none" and hv.reason == "single-critical-point"


def test_scaled_three_cycle_is_the_degenerate_case():
    cfg = Configuration("scaled", (1, 1, 1), ((0, 1), (1, 2), (2, 0)))
    hv = hyperbolicity_verdict(cfg)
    assert hv.verdict == "none"
    assert hv.reason == "three-cycle-scaling"


def test_scaled_unpaired_deep_point_gives_brody():
    cfg = Configuration("scaled", (3, 1), ())
    hv = hyperbolicity_verdict(cfg)
    assert hv.verdict == "brody"
    assert hv.route == "unpaired-deep-coordinate-pair"


def test_scaled_two_double_points_fully_paired_algebraic_only():
    cfg = Configuration("scaled", (2, 2), ((0, 1), (1, 0)))
    hv = hyperbolicity_verdict(cfg)
    assert hv.verdict == "algebraic"
    assert hv.route == "top-pair-connector-power"
    # but breaking one pairing frees a double point and upgrades it
    hv2 = hyperbolicity_verdict(Configuration("scaled", (2, 2), ((0, 1),)))
    assert hv2.verdict == "brody"


def test_scaled_wide_mismatch_brody():
    cfg = Configuration("scaled", (4, 1), ((0, 1), (1, 0)))
    hv = hyperbolicity_verdict(cfg)
    assert hv.verdict == "brody"
    assert hv.route == "paired-mismatch-wide"
    assert ASSUME_NO_LINEAR in hv.assumptions


def test_scaled_narrow_mismatch_algebraic():
    cfg = Configuration("scaled", (3, 1), ((0, 1), (1, 0)))
    hv = hyperbolicity_verdict(cfg)
    assert hv.verdict == "algebraic"
    assert hv.route == "paired-mismatch"


def test_scaled_silent_profiles():
    # one critical point: nothing to anchor a form on
    assert hyperbolicity_verdict(Configuration("scaled", (4,))).verdict == "none"
    # simple point paired into a deep one, nothing unpaired of weight
    assert hyperbolicity_verdict(
        Configuration("scaled", (3, 1), ((0, 1),))).verdict == "none"


def test_scaled_triangle_of_double_points():
    cfg = Configuration("scaled", (2, 2, 2), ((0, 1), (1, 2), (2, 0)))
    hv = hyperbolicity_verdict(cfg)
    assert hv.verdict == "brody"
    assert hv.independence.kind == "conic-exclusion"
    assert ASSUME_NO_CONIC in hv.independence.assumptions


def test_brody_certificates_carry_two_forms_and_independence():
    for cfg in enumerate_configurations(8):
        hv = hyperbolicity_verdict(cfg)
        if hv.verdict == "brody":
            assert len(hv.forms) == 2 and hv.independence is not None
            labels = {f.independence_class for f in hv.forms}
            assert len(labels) == 2 and all(
                s.startswith("pencil-basis-") for s in labels)
        elif hv.verdict == "algebraic":
            assert len(hv.forms) >= 1
        else:
            assert hv.forms == () and hv.reason


# ---------------------------------------------------------------------------
# the statement table, encoded independently
# ---------------------------------------------------------------------------

def _expected_shared(mults):
    ms = sorted(mults, reverse=True)
    l = len(ms)
    if l >= 4 or (l == 3 and ms[0] >= 2) or (l == 2 and ms[1] >= 2 and ms[0] >= 3):
        return "brody"
    if l >= 3 or (l == 2 and ms[1] >= 2):
        return "algebraic"
    return "none"


def _expected_scaled(mults, pairing):
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
    # fully paired with a big multiplicity gap somewhere
    if everyone_paired and deltas and max(deltas) >= 3:
        brody = True
    # a free point of weight 3, or of weight 2 next to any other heavy
    # point, or two free points of combined weight 3, or (for at least
    # three points) two free simple points
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
    # profile-level grants: two heavy points (except the pair of bare
    # doubles), or at least three points with a single heavy one (except
    # three simple points, where a cycle can genuinely degenerate)
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
        # three simple points, all chained into a cycle: the one shape
        # with no grant at all
        if not (l == 3 and all_simple and everyone_paired):
            alg = True
    return "algebraic" if alg else "none"


def test_machine_matches_hand_table():
    mismatches = []
    for cfg in enumerate_configurations(10):
        hv = hyperbolicity_verdict(cfg)
        want = _expected_shared(cfg.mults) if cfg.kind == "shared" \
            else _expected_scaled(cfg.mults, cfg.pairing)
        if hv.verdict != want:
            mismatches.append((cfg, hv.verdict, want))
    assert not mismatches, mismatches[:5]


def test_grant_helper_agrees_with_hand_table():
    single = [Configuration(kind, (4,)) for kind in ("shared", "scaled")]
    for cfg in enumerate_configurations(9) + single:
        alg, brody = statement_grants(cfg)
        want = _expected_shared(cfg.mults) if cfg.kind == "shared" \
            else _expected_scaled(cfg.mults, cfg.pairing)
        got = "brody" if brody else ("algebraic" if alg else "none")
        assert got == want, cfg


def test_pairings_never_upgrade_unpaired_verdicts():
    # dropping one pairing edge re-frees a critical point; when the
    # smaller configuration wins through a free-point route, the bigger
    # one may not beat it
    free_routes = {
        "unpaired-deep-coordinate-pair", "unpaired-double-with-deep-partner",
        "two-unpaired-sum-three", "two-unpaired-simple",
        "unpaired-deep", "two-unpaired-simple-form",
    }
    for cfg in _of_kind(9, "scaled"):
        if not cfg.pairing:
            continue
        hv = hyperbolicity_verdict(cfg)
        for drop in range(len(cfg.pairing)):
            sub = Configuration(
                "scaled", cfg.mults,
                cfg.pairing[:drop] + cfg.pairing[drop + 1:])
            hv_sub = hyperbolicity_verdict(sub)
            if hv_sub.route in free_routes:
                assert VERDICT_RANK[hv.verdict] <= VERDICT_RANK[hv_sub.verdict], \
                    (cfg, sub)


def test_every_certificate_replays_at_random_orders():
    rng = random.Random(2024)
    for cfg in enumerate_configurations(9):
        hv = hyperbolicity_verdict(cfg)
        assert replay_verdict(hv, rng), cfg


# ---------------------------------------------------------------------------
# enumeration helper
# ---------------------------------------------------------------------------

def test_enumeration_small_counts():
    cfgs = enumerate_configurations(4)
    shared = [c for c in cfgs if c.kind == "shared"]
    assert {c.mults for c in shared} == {(1, 1), (2, 1), (1, 1, 1)}
    # (1,1) admits empty, single-edge, and double-edge pairings
    pair11 = [c for c in cfgs if c.kind == "scaled" and c.mults == (1, 1)]
    assert sorted(len(c.pairing) for c in pair11) == [0, 1, 2]
    # (2,1) has two distinguishable single edges (deep->simple, simple->deep)
    pair21 = [c for c in cfgs if c.kind == "scaled" and c.mults == (2, 1)]
    assert sorted(len(c.pairing) for c in pair21) == [0, 1, 1, 2]


def test_enumeration_pairings_are_valid_injections():
    for cfg in _of_kind(8, "scaled"):
        srcs = [i for i, _ in cfg.pairing]
        dsts = [j for _, j in cfg.pairing]
        assert len(set(srcs)) == len(srcs)
        assert len(set(dsts)) == len(dsts)
        assert all(i != j for i, j in cfg.pairing)


# the route names _shared_verdict can return
SHARED_ROUTES = ("split-diagonal-pair", "balanced-plus-split", "balanced-diagonal")


def test_every_dispatch_route_is_reached():
    # a route no configuration reaches is dead code in the dispatch
    cfg = Configuration("scaled", (1, 1))
    ledger = build_ledger(cfg)
    slugs = {slug for slug, _ in _scaled_brody_routes(cfg, ledger)}
    slugs |= {slug for slug, _ in _scaled_alg_routes(cfg, ledger)}
    slugs |= set(SHARED_ROUTES)
    reached = {hyperbolicity_verdict(c).route for c in enumerate_configurations(12)}
    assert slugs - reached == set()


def test_certificates_are_pinned_through_degree_twelve():
    # sha256 over every serialized certificate for n <= 10 and n <= 12, in
    # enumeration order; a refactor of the dispatch must not move a byte
    h = hashlib.sha256()
    cfgs = enumerate_configurations(12)
    for k, cfg in enumerate(cfgs):
        if k == 1858:  # the configurations with n <= 10 come first
            assert cfg.n == 11
            assert h.hexdigest() == (
                "a03c618482d0e35aa7e21d3acb2098c375ffbf6859be4a64aed9be07d95c6783")
        h.update(json.dumps(jsonable(hyperbolicity_verdict(cfg).as_dict())).encode())
    assert len(cfgs) == 7393
    assert h.hexdigest() == (
        "e94865968d8467f206585f36be763f2f82c8ffd1f439bb88673f7644f226fdf9")


def test_forms_check_is_linear_in_the_critical_points(monkeypatch):
    # each atom adds its order only at the points it touches: the three
    # shared forms on l simple points take about 9l additions, not 9l^2
    calls = 0
    plus = OrderExpr.plus

    def counted(self, other, times=1):
        nonlocal calls
        calls += 1
        return plus(self, other, times)

    monkeypatch.setattr(OrderExpr, "plus", counted)
    l = 400
    assert hyperbolicity_verdict(Configuration("shared", (1,) * l)).verdict == "brody"
    assert calls < 10 * l


# ---------------------------------------------------------------------------
# the balanced-plus-split route: ASSUME_SCALE_RIGID follows from separation
# ---------------------------------------------------------------------------

def _split_route_profile(mults):
    ms = sorted(mults, reverse=True)
    return ((len(ms) == 3 and ms[0] >= 2 and ms[1:] == [1, 1])
            or (len(ms) == 2 and ms[0] >= 3 and ms[1] == 2))


def test_balanced_plus_split_serves_only_its_two_profile_families():
    # the proof at the route covers (m, 1, 1), m >= 2, and (m, 2), m >= 3
    served = 0
    for cfg in _of_kind(15, "shared"):
        on_route = hyperbolicity_verdict(cfg).route == "balanced-plus-split"
        assert on_route == _split_route_profile(cfg.mults), cfg
        served += on_route
    assert served == 11 + 10  # (2..12, 1, 1) and (3..12, 2)


def _integral(dp: Poly) -> Poly:
    """The antiderivative of dp with constant term 1."""
    return Poly.from_support({0: 1, **{k + 1: c / (k + 1)
                                       for k, c in enumerate(dp.coeffs)}})


def test_scale_rigidity_holds_on_every_separated_realisation():
    # with the deep critical point at 0, a line Y = lam*X (lam != 0, 1)
    # lies on the shared curve iff lam^k = 1 on the support of P - P(0);
    # so a support gcd above 1 must come with colliding critical values
    grid = sorted({Fraction(a, b) for a in range(-3, 4) if a for b in (1, 2)})
    cases = non_rigid = 0
    for m in range(2, 8):
        derivs = [((m, 1, 1), b1 + b2 == 0 and m % 2 == 1,
                   X**m * (X - b1) * (X - b2))
                  for k, b1 in enumerate(grid) for b2 in grid[k + 1:]]
        if m >= 3:
            derivs += [((m, 2), False, X**m * (X - b)**2) for b in grid]
        for profile, odd_pair, dp in derivs:
            p = _integral(dp)
            cs = critical_structure(p)
            assert tuple(sorted(cs.profile, reverse=True)) == profile
            g = gcd(*p.support())  # exponent 0, from P(0) = 1, adds nothing
            assert (g > 1) == odd_pair, (profile, dp)
            assert g == 1 or not cs.is_separated, (profile, dp)
            cases += 1
            non_rigid += g > 1
    assert non_rigid == 3 * 5  # m = 3, 5, 7 with b2 = -b1
    assert cases == 6 * 45 + 5 * 10
