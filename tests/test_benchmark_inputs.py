"""The modular critical structure against the exact one, on the inputs the
benchmark runs.

``perfbench/gen.py`` is loaded from its file and only read: it draws the
seed-0 inputs of the batch_small and degree_ladder workloads. On every
input that parses, ``critical_structure`` must give the same separation
verdict, zero-value answer, profile and radical when the modular helper
answers as when it is forced off and the exact value polynomial decides.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from uniqpoly import criteria
from uniqpoly.parser import DegreeCapError, ParseError, parse_poly

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def _benchmark_inputs() -> list:
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is being built
    sys.modules[spec.name] = gen
    try:
        spec.loader.exec_module(gen)
    finally:
        del sys.modules[spec.name]
    out = []
    for item in gen.batch_small(0) + gen.degree_ladder(0):
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
    inputs = _benchmark_inputs()
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
