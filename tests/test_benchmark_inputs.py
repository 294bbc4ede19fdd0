"""The modular critical structure against the exact one, and the centered
normal form against a Fraction Horner shift, on the inputs the benchmark
runs.

``perfbench/gen.py`` is loaded from its file and only read: it draws the
seed-0 inputs of the workloads. On every batch_small and degree_ladder
input that parses, ``critical_structure`` must give the same separation
verdict, zero-value answer, profile and radical when the modular helper
answers as when it is forced off and the exact value polynomial decides.
On every parseable input of all three workloads, ``normalize`` must give
the centered form that Horner's rule over Fraction coefficients gives.
"""

from __future__ import annotations

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from uniqpoly import criteria
from uniqpoly.parser import DegreeCapError, ParseError, parse_poly

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _benchmark_inputs(*workloads: str) -> list:
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is being built
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
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
