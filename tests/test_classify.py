import importlib

import pytest
from fractions import Fraction as Q

from uniqpoly.classify import (
    SLOTS,
    classify,
    consistency_audit,
    corollary_classify,
    corollary_shape,
    verify_witness,
    witness_search,
)
from uniqpoly.parser import DegreeCapError
from uniqpoly.polynomials import Poly, X

# the package re-exports the function classify under the module's name
classify_mod = importlib.import_module("uniqpoly.classify")


def verdicts(p):
    v = classify(p)
    return tuple(v.slot(s) for s in SLOTS)


def rules(v):
    return [step.rule for step in v.rule_trace]


def test_classify_guards():
    with pytest.raises(ValueError):
        classify(X + 1)
    with pytest.raises(DegreeCapError, match="degree 9 exceeds the cap 8"):
        classify(X**9, degree_cap=8)


def test_headline_verdicts():
    # (up_rational, sup_rational, up_meromorphic, sup_meromorphic)
    assert verdicts(X**5 + X**3 + 1) == ("yes", "yes", "yes", "yes")
    assert verdicts(X**4 + X**2 + 1) == ("no", "no", "no", "no")
    assert verdicts((X - 1)**7 + 2) == ("no", "no", "no", "no")
    assert verdicts(X**4 - 4 * X) == ("yes", "no", "no", "no")
    assert verdicts(X**4 + X + 1) == ("yes", "yes", "no", "no")
    assert verdicts(X**7 + X**3 + X) == ("yes", "no", "yes", "no")
    assert verdicts(X**8 + X**4 + X**2) == ("no", "no", "no", "no")
    # degree five with zero constant term: plain meromorphic uniqueness
    # survives the floppy zero set, only the strong verdicts drop
    assert verdicts(X**5 + X**2) == ("yes", "no", "yes", "no")


def test_rotation_witness_replays():
    for p, order, center in [
        (X**4 + X**2 + 1, 2, Q(0)),
        ((X - 1)**7 + 2, 7, Q(1)),
        (X**6 + X**3, 3, Q(0)),
        (X**2 + 3 * X + 5, 2, Q(-3, 2)),
    ]:
        v = classify(p)
        assert all(v.slot(s) == "no" for s in SLOTS)
        w = v.witnesses["up_rational"]
        assert w.kind == "scaling"
        assert w.order == order
        assert w.center == center
        assert verify_witness(p, w)
        # same justification flows down the lattice
        assert v.witnesses["sup_meromorphic"] is w


def test_multiplier_witness_replays():
    v = classify(X**7 + X**3 + X)
    w = v.witnesses["sup_rational"]
    assert w.kind == "scaling-with-c"
    assert (w.order, w.beta, w.c) == (2, Q(-1), Q(-1))
    assert verify_witness(X**7 + X**3 + X, w)

    v = classify(X**4 - 4 * X)
    w = v.witnesses["sup_rational"]
    assert w.kind == "scaling-with-c"
    assert w.order == 3 and w.beta is None and w.c_exponent == 1
    assert verify_witness(X**4 - 4 * X, w)
    # a wrong exponent must not replay
    from dataclasses import replace
    assert not verify_witness(X**4 - 4 * X, replace(w, c_exponent=2))


def test_wide_gap_route():
    v = classify(X**5 + X + 1)
    assert verdicts(X**5 + X + 1) == ("yes", "yes", "yes", "yes")
    assert "wide-gap-strong-rational" in rules(v)
    assert "wide-gap-strong-meromorphic" in rules(v)
    # the profile route runs afterwards and corroborates
    sup_steps = [s for s in v.rule_trace
                 if s.conclusion.startswith("sup_rational")]
    assert sup_steps[0].rule == "wide-gap-strong-rational"
    assert "corroborates" in sup_steps[1].conclusion

    # gap three only settles the rational side by itself, but the
    # profile route still decides the meromorphic slots here
    v = classify(X**5 + X**2 + 1)
    assert verdicts(X**5 + X**2 + 1) == ("yes", "yes", "yes", "yes")

    # no wide gap: the rule must not appear
    v = classify(X**5 + X**3 + 1)
    assert "wide-gap-strong-rational" not in rules(v)
    assert "separated-profile-strong-rational" in rules(v)


def test_genus_zero_exception():
    # two critical points, one simple: the shared curve is rational
    p = X**3 - 3 * X
    v = classify(p)
    assert verdicts(p) == ("no", "no", "no", "no")
    w = v.witnesses["up_rational"]
    assert w.kind == "paper-exception"
    assert w.case == "genus-zero-shared-curve"
    assert w.certificates["genus"] == 0
    assert w.certificates["degree"] == 2
    assert verify_witness(p, w)

    p = X**5 - 5 * X**4 + X - 12  # profile (3, 1)
    v = classify(p)
    if v.slot("up_rational") == "no":
        assert v.witnesses["up_rational"].case == "genus-zero-shared-curve"


def test_genus_one_exceptions():
    # smooth quartic profile: meromorphic pairs exist on the cubic
    p = X**4 + X + 1
    v = classify(p)
    w = v.witnesses["up_meromorphic"]
    assert w.case == "genus-one-smooth-shared-curve"
    assert w.certificates["genus"] == 1
    assert w.certificates["census"] == []
    assert verify_witness(p, w)

    # double-pair quintic: two nodes on the shared quartic
    p = 6 * X**5 - 15 * X**4 + 10 * X**3 + 1
    v = classify(p)
    assert verdicts(p) == ("yes", "yes", "no", "no")
    w = v.witnesses["up_meromorphic"]
    assert w.case == "genus-one-two-node-shared-curve"
    assert w.certificates["genus"] == 1
    assert len(w.certificates["census"]) == 2
    assert verify_witness(p, w)


def test_value_orbit_exception():
    # rigid quartic on the orbit variety: no linear witness exists, the
    # strong verdict falls to the genus-zero scaled curve alone
    p = 2 * X**4 + 6 * X**2 + 2 * X + 3
    v = classify(p)
    assert verdicts(p) == ("yes", "no", "no", "no")
    w = v.witnesses["sup_rational"]
    assert w.kind == "paper-exception"
    assert w.case == "genus-zero-orbit-scaled-curve"
    assert w.certificates["genus"] == 0
    assert len(w.certificates["census"]) == 3
    assert verify_witness(p, w)
    # and the oracle really finds no linear map
    assert witness_search(p, "any_c") is None

    # same variety with the multiplier rule available: the cheap linear
    # witness wins and the verdict agrees
    v = classify(X**4 - 4 * X)
    assert v.witnesses["sup_rational"].kind == "scaling-with-c"


def test_zero_set_symmetry_exception():
    # zero set {-1, 0, 1} with mismatched multiplicities: the rotation
    # permutes the roots but no linear identity exists
    p = X * (X - 1)**2 * (X + 1)
    v = classify(p)
    assert v.slot("up_rational") == "yes"
    assert v.slot("sup_rational") == "no"
    w = v.witnesses["sup_rational"]
    assert w.kind == "paper-exception"
    assert w.case == "zero-set-symmetry"
    assert w.order == 2 and w.center == Q(0)
    assert verify_witness(p, w)
    assert witness_search(p, "any_c") is None


def test_out_of_scope_reporting():
    # critical values 0 and 0 collide, the profile route is closed, and
    # only the multiplier rule appiles
    p = 2 * X**5 - 5 * X**4 + 4 * X**3 - X**2
    v = classify(p)
    assert v.slot("sup_rational") == "no"
    assert v.slot("sup_meromorphic") == "no"
    assert v.slot("up_rational") == "out_of_scope"
    assert v.slot("up_meromorphic") == "out_of_scope"
    assert "up_rational" in v.out_of_scope_reasons
    assert "undecided" in rules(v)
    assert "up_rational" not in v.witnesses


def test_shift_scale_invariance():
    samples = [
        X**5 + X**3 + 1,
        X**4 - 4 * X,
        X**7 + X**3 + X,
        6 * X**5 - 15 * X**4 + 10 * X**3 + 1,
        X * (X - 1)**2 * (X + 1),
    ]
    for p in samples:
        base = verdicts(p)
        moved = 3 * p.taylor_shift(-2)  # 3 p(X - 2)
        assert verdicts(moved) == base
        v = classify(moved)
        for w in v.witnesses.values():
            assert verify_witness(moved, w)


def test_witness_search_pins():
    w = witness_search(X**4 + X**2 + 1, "c_equals_1")
    assert (w.beta, w.gamma, w.c) == (Q(-1), Q(0), Q(1))
    w = witness_search(X**7 + X**3 + X, "any_c")
    assert (w.beta, w.gamma, w.c) == (Q(-1), Q(0), Q(-1))
    assert witness_search(X**5 + X**3 + 1, "any_c") is None
    # shifted input: gamma follows the center
    w = witness_search((X - 1)**4 + (X - 1)**2, "c_equals_1")
    assert w.beta == Q(-1) and w.gamma == Q(2) and w.c == Q(1)
    # cyclotomic solution: order 3 map for the pure cube
    w = witness_search(X**3, "c_equals_1")
    assert w.order == 3 and w.beta is None and w.c_exponent == 0
    # a line maps onto itself with c = 1 only by the identity
    assert witness_search(X + 1, "c_equals_1") is None
    assert witness_search(3 * X - 2, "c_equals_1") is None
    with pytest.raises(ValueError):
        witness_search(X**4, "shared")


def test_corollary_table():
    assert corollary_classify(Q(0), 4, 1, Q(1), Q(1)).as_tuple() == \
        (True, True, False, False)
    assert corollary_classify(Q(0), 5, 2, Q(1), Q(1)).as_tuple() == \
        (True, True, True, True)
    assert corollary_classify(Q(0), 6, 4, Q(1), Q(1)).as_tuple() == \
        (False, False, False, False)
    # b = 0 keeps plain uniqueness but never the strong form
    assert corollary_classify(Q(2), 5, 2, Q(3), Q(0)).as_tuple() == \
        (True, False, True, False)
    # a = 0 loses everything
    assert corollary_classify(Q(0), 7, 3, Q(0), Q(1)).as_tuple() == \
        (False, False, False, False)
    with pytest.raises(ValueError):
        corollary_classify(Q(0), 5, 5, Q(1), Q(1))


def test_corollary_shape_recognition():
    shape = corollary_shape(X**5 + 2 * X**2 - 3)
    assert shape == (Q(0), 5, 2, Q(2), Q(-3))
    p = 3 * ((X - 1)**6 + 5 * (X - 1) + 2)
    shape = corollary_shape(p)
    assert shape == (Q(1), 6, 1, Q(5), Q(2))
    assert corollary_shape(X**5 + X**3 + X + 1) is None
    assert corollary_shape(X**4 + 7) is None


def test_consistency_audit():
    for p in [
        X**5 + X**3 + 1,
        X**4 - 4 * X,
        X**4 + X + 1,
        X**7 + X**3 + X,
        2 * X**4 + 6 * X**2 + 2 * X + 3,
        X * (X - 1)**2 * (X + 1),
        2 * X**5 - 5 * X**4 + 4 * X**3 - X**2,
    ]:
        rep = consistency_audit(p, classify(p))
        assert rep["ok"], rep["failures"]

    # a doctored verdict must be caught
    from dataclasses import replace
    v = classify(X**4 - 4 * X)
    bad = replace(v, sup_rational="yes")
    rep = consistency_audit(X**4 - 4 * X, bad)
    assert not rep["ok"]


def _count_calls(monkeypatch, module, name, calls=None) -> list:
    calls = [] if calls is None else calls
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_and_audit_normalize_once(monkeypatch):
    # the audit's corollary_shape reuses the normal form index_data built;
    # this input has no symmetry, so no witness replay shifts it either
    from uniqpoly.criteria import normalize
    normalize.cache_clear()
    calls = _count_calls(monkeypatch, Poly, "taylor_shift")
    p = X**7 + 3 * X**5 - 2 * X**4 + X**3 + 5 * X + 1
    v = classify(p)
    assert consistency_audit(p, v)["ok"]
    assert len(calls) == 1


def test_classify_computes_index_data_once(monkeypatch):
    from uniqpoly import criteria

    calls = _count_calls(monkeypatch, classify_mod, "index_data")
    _count_calls(monkeypatch, criteria, "index_data", calls)
    for p in [X**4 + X + 1, X**7 + X**3 + X, X**8 + X**4 + X**2]:
        calls.clear()
        classify(p)
        assert len(calls) == 1
    # a separated P with a zero critical value has a repeated root, so the
    # zero-set symmetry needs the index data of its radical as well
    p = X * (X - 1) ** 2 * (X + 1)
    calls.clear()
    classify(p)
    assert calls == [(p,), (X**3 - X,)]


def test_audit_builds_constraint_gcd_once():
    gcd = classify_mod._constraint_gcd
    for p in [X**4 + X + 1, X**6 + X**3, X**7 + X**3 + X]:
        v = classify(p)
        gcd.cache_clear()
        rep = consistency_audit(p, v)
        assert rep["ok"], rep["failures"]
        assert gcd.cache_info().misses == 1
    # each mode still searches on its own when called alone
    gcd.cache_clear()
    assert witness_search(X**6 + X**3, "c_equals_1").order == 3
    assert gcd.cache_info().misses == 1


def test_audit_replays_a_shared_witness_once(monkeypatch):
    # both meromorphic slots of X^4 + X + 1 hold one paper-exception
    # witness; classify and its single replay each need the structure once
    calls = _count_calls(monkeypatch, classify_mod, "critical_structure")
    p = X**4 + X + 1
    v = classify(p)
    assert v.witnesses["up_meromorphic"] is v.witnesses["sup_meromorphic"]
    rep = consistency_audit(p, v)
    assert rep["ok"], rep["failures"]
    assert len(calls) <= 2


def test_trace_is_json_friendly():
    import json

    from uniqpoly.report import classify_report
    p = X**4 - 4 * X
    v = classify(p)
    for step in v.rule_trace:
        json.dumps(step.inputs, default=str)
    rep = classify_report(str(p), p, v, consistency_audit(p, v))
    json.dumps(rep)
