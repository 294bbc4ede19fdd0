"""The modular critical structure against the exact one, and the centered
normal form against a Fraction Horner shift, on the inputs the benchmark
runs.

``perfbench/gen.py`` and ``perfbench/spans.py`` are loaded from their
files and only read: the first draws the seed-0 inputs of the workloads,
the second names the functions the traced run wraps, each of which must
exist. On every batch_small and degree_ladder input that parses,
``critical_structure`` must give the same separation verdict, zero-value
answer, profile and radical when the modular helper answers as when it
is forced off and the exact value polynomial decides. On every parseable
input of all three workloads, the value polynomial modulo a prime must
equal the one from l + 1 resultants in F_q, and ``normalize`` must give
the centered form that Horner's rule over Fraction coefficients gives.
Every field of ``critical_structure`` must also equal what splitting P'
and P first gives (``_reference_structure``). Count tests pin the work:
``classify`` takes no radical on an input with no zero critical value,
the seed-0 batch_small lines take no exact resultant through ``classify``
and the audit, and the zero-valued degree-64 input -3/7 P(X + 4/5) gets
``has_zero_value`` without an exact resultant.
"""

from __future__ import annotations

import importlib
import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

from test_criteria import _check_modular_image
from test_modular_certificates import _fields, _reference_structure
from uniqpoly import criteria
from uniqpoly.parser import DegreeCapError, ParseError, parse_poly
from uniqpoly.polynomials import Poly

# the package re-exports the function classify under the module's name
classify_mod = importlib.import_module("uniqpoly.classify")

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is being built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _gen():
    return _load("gen")


def test_every_span_target_exists():
    # the tracer rebinds these names; a missing one breaks the traced run
    for module, attr, _, _ in _load("spans").WRAPS:
        assert hasattr(importlib.import_module(f"uniqpoly.{module}"),
                       attr), (module, attr)


def _benchmark_inputs(*workloads: str) -> list:
    gen = _gen()
    out = []
    items = [item for name in workloads for item in getattr(gen, name)(0)]
    for item in items:
        try:
            p = parse_poly(item.text, degree_cap=64)
        except (ParseError, DegreeCapError):
            continue
        out.append(p)
    return out


def _answers(p) -> tuple:
    cs = criteria.critical_structure(p)
    return cs.is_separated, cs.has_zero_value, cs.profile, cs.radical


def test_modular_and_exact_critical_structure_agree(monkeypatch):
    inputs = _benchmark_inputs("batch_small", "degree_ladder")
    assert len(inputs) == 96 + 21  # every well-formed line under the cap
    modular = [_answers(p) for p in inputs]
    monkeypatch.setattr(criteria, "separation_mod_p", lambda rad, p: None)
    exact = criteria.poly_gcd
    separation_gcds = []

    def counted(f, g):
        separation_gcds.append(1)
        return exact(f, g)

    monkeypatch.setattr(criteria, "poly_gcd", counted)
    assert [_answers(p) for p in inputs] == modular
    assert len(separation_gcds) == len(inputs)  # the exact path decided each


def test_critical_structure_matches_the_split_reference():
    for p in _benchmark_inputs("batch_small", "degree_ladder", "curve_census"):
        assert (_fields(criteria.critical_structure(p))
                == _reference_structure(p)), p


def test_modular_image_matches_the_resultant_route():
    inputs = _benchmark_inputs("batch_small", "degree_ladder", "curve_census")
    assert len(inputs) == 96 + 21 + 9
    for p in inputs:
        _check_modular_image(p)


def _horner_centered(p) -> tuple:
    """Coefficients of p(X + s) / lc(p), s = -a_(n-1) / (n lc(p)), by
    Horner's rule on Fraction lists."""
    n, lc = p.degree, p.coeffs[-1]
    s = -p.coeffs[n - 1] / (n * lc)
    acc: list = []
    for c in reversed(p.coeffs):
        # acc := acc * (X + s) + c
        nxt = [Fraction(0)] + acc
        for i, b in enumerate(acc):
            nxt[i] += s * b
        nxt[0] += c
        acc = nxt
    return tuple(c / lc for c in acc)


def test_centered_form_matches_a_horner_shift():
    inputs = _benchmark_inputs("batch_small", "degree_ladder", "curve_census")
    assert len(inputs) == 96 + 21 + 9
    for p in inputs:
        assert criteria.normalize(p).centered.coeffs == _horner_centered(p), p


def _count_calls(monkeypatch, module, name: str) -> list:
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_classify_without_a_zero_value_takes_no_radical(monkeypatch):
    # with no zero critical value P is squarefree, so its zero-set symmetry
    # is read off index_data(P) and no radical is taken
    inputs = _benchmark_inputs("batch_small", "degree_ladder", "curve_census")
    inputs = [p for p in inputs
              if not criteria.critical_structure(p).has_zero_value]
    assert len(inputs) >= 100
    calls = _count_calls(monkeypatch, criteria, "radical")
    calls += _count_calls(monkeypatch, classify_mod, "radical")
    for p in inputs:
        classify_mod.classify(p)
    assert calls == []


def test_batch_small_takes_no_exact_resultant(monkeypatch):
    # the quartic flags read traces over Q, not the value polynomial
    inputs = _benchmark_inputs("batch_small")
    assert sum(criteria.critical_structure(p).profile == (1, 1, 1)
               and p.degree == 4 for p in inputs) >= 10
    calls = _count_calls(monkeypatch, criteria, "resultant")
    for p in inputs:
        classify_mod.consistency_audit(p, classify_mod.classify(p))
    assert calls == []


def test_zero_valued_degree_64_takes_no_exact_resultant(monkeypatch):
    gen = _gen()
    p = Poly([Fraction(c) for c in gen.random_dense(random.Random(0), 64,
                                                    False)])
    assert p.coeff(0) == p.coeff(1) == 0  # X^2 divides P: 0 is a value
    p = p.taylor_shift(Fraction(4, 5)) * Fraction(-3, 7)
    calls = _count_calls(monkeypatch, criteria, "resultant")
    cs = criteria.critical_structure(p)
    assert cs.is_separated and cs.has_zero_value
    assert calls == []  # the exact Res(rad P', P) took 1.6 s here


def test_witness_search_takes_no_gcd_root_or_cyclotomic(monkeypatch):
    # the oracle reads its answer off the closed-form constraint gcd
    inputs = _benchmark_inputs("batch_small", "degree_ladder")
    verdicts = [classify_mod.classify(p) for p in inputs]
    searches = _count_calls(monkeypatch, classify_mod, "witness_search")
    calls = [_count_calls(monkeypatch, classify_mod, name)
             for name in ("poly_gcd", "rational_roots", "cyclotomic")]
    found = 0
    for p, v in zip(inputs, verdicts):
        oracle = classify_mod.consistency_audit(p, v)["oracle"]
        found += sum(w is not None for w in oracle.values())
    assert len(searches) == 2 * len(inputs)
    assert found > 0  # some searches find a map
    assert calls == [[], [], []]
