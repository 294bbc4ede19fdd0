"""Output checks, run after the timed region.

A report is wrong when it does not validate against the package's
report schema, when its exit code is not one its input may produce,
when the audit inside it failed, when a curve identity failed, when a
later pass over the same input wrote different bytes, or, for the
default seed, when its digest differs from the committed one. On
degree_ladder the critical-point profile and the separation verdict in
the report are also recomputed with sympy.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Optional

from gen import Item

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests(workload: str) -> Optional[list]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


def exit_code(rep: dict) -> int:
    """The exit code the command line gives this report."""
    if "error" in rep:
        return 2 if rep["error"]["kind"] == "parse" else 4
    if rep["command"] == "curve":
        return 0 if rep["identities_pass"] else 4
    if not rep["audit"]["ok"]:
        return 4
    if "out_of_scope" in rep["verdict"].values():
        return 3
    return 0


class Checker:
    def __init__(self, src: str):
        import jsonschema

        path = os.path.join(src, "uniqpoly", "schema", "report.schema.json")
        with open(path, encoding="utf-8") as fh:
            self.validator = jsonschema.Draft7Validator(json.load(fh))

    def report(self, item: Item, text: str) -> tuple[Optional[str], dict]:
        """(problem or None, parsed report) for one report text."""
        try:
            rep = json.loads(text)
        except ValueError as exc:
            return f"not JSON: {exc}", {}
        err = next(iter(self.validator.iter_errors(rep)), None)
        if err is not None:
            return f"schema: {err.message}", rep
        code = exit_code(rep)
        if code not in item.classes:
            return f"exit code {code}, expected one of {sorted(item.classes)}", rep
        if "audit" in rep and not rep["audit"]["ok"]:
            return f"audit failed: {rep['audit']['failures']}", rep
        if code == 2 and rep["error"]["kind"] != "parse":
            return "error report is not a parse error", rep
        return None, rep


def sympy_profile(item: Item, rep: dict) -> Optional[str]:
    """Compare the report's profile of P' and separation verdict with
    sympy: squarefree factorization of P', and squarefreeness of
    Res_x(rad P'(x), t - P(x)), whose roots are the critical values."""
    import sympy

    x, t = sympy.symbols("x t")
    p = sympy.Poly(sympy.sympify(item.text.replace("^", "**").replace("X", "x")), x)
    _, factors = p.diff(x).sqf_list()
    profile = sorted((m for f, m in factors for _ in range(f.degree())),
                     reverse=True)
    rad = sympy.prod([f.as_expr() for f, _ in factors])
    sep = sympy.Poly(sympy.resultant(rad, t - p.as_expr(), x), t)
    separated = sep.gcd(sep.diff(t)).degree() == 0
    step = rep["rule_trace"][0]["inputs"]
    if step["profile"] != profile:
        return f"profile {step['profile']}, sympy says {profile}"
    if step["separated"] != separated:
        return f"separated={step['separated']}, sympy says {separated}"
    return None
