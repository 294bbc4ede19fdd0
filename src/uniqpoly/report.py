"""Stable report structures for the command-line tools.

Every subcommand emits one JSON object per input.  The contract is strict:
field order is fixed, every rational is rendered as a "p/q" string (floats
never appear), and two runs over the same input with the same seed produce
byte-identical output.  The timing block therefore counts deterministic
work units instead of reading a clock.

``render_text`` prints the same tree as indented key/value lines, so the
two output modes carry identical information.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Optional

from .classify import SLOTS, Verdict
from .parser import format_rational
from .polynomials import Poly

SCHEMA = "uniqpoly-report/1"
TOOL_NAME = "uniqpoly"


def jsonable(value: Any) -> Any:
    """Convert nested data to JSON-safe types.

    None, bools, ints and strings pass through; Fractions become "p/q"
    strings (bare "p" for integers); dicts get string keys; tuples become
    lists. Any other type raises TypeError, floats included: an exact
    tool has no business reporting one, and a value of a type no report
    expects must fail loudly rather than print as its str.
    """
    # the cheap concrete checks first, bools among the ints; Fraction
    # is a numbers.Rational, whose isinstance goes through the ABC
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, Fraction):
        return format_rational(value)
    raise TypeError(f"reports carry no {type(value).__name__} values")


def base_report(command: str) -> dict:
    from . import __version__

    return {
        "schema": SCHEMA,
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
    }


def input_block(text: str, p: Poly) -> dict:
    return {"text": text, "canonical": str(p), "degree": p.degree}


def collect_assumptions(verdict: Verdict) -> list[str]:
    seen: list[str] = []
    for slot in verdict.witnesses.values():
        for a in slot.assumptions:
            if a not in seen:
                seen.append(a)
    return seen


def classify_report(
    text: str,
    p: Poly,
    verdict: Verdict,
    audit: dict,
    seed: Optional[int] = None,
) -> dict:
    rep = base_report("classify")
    rep["input"] = input_block(text, p)
    if seed is not None:
        rep["seed"] = seed
    rep["verdict"] = {s: verdict.slot(s) for s in SLOTS}
    rep["rule_trace"] = jsonable([step.as_dict() for step in verdict.rule_trace])
    rep["witnesses"] = jsonable(
        {slot: w.as_dict() for slot, w in verdict.witnesses.items()}
    )
    rep["out_of_scope_reasons"] = jsonable(dict(verdict.out_of_scope_reasons))
    rep["audit"] = jsonable(
        {
            "ok": audit["ok"],
            "failures": audit["failures"],
            "oracle": audit["oracle"],
            "corollary_table": audit["table"],
        }
    )
    rep["assumptions"] = collect_assumptions(verdict)
    rep["timing"] = {"mode": "deterministic", "rule_steps": len(verdict.rule_trace)}
    return rep


def dumps(report: dict) -> str:
    """Serialize with fixed field order; the caller adds the newline."""
    return json.dumps(report, indent=2, ensure_ascii=False)


def dumps_line(report: dict) -> str:
    """Single-line form for batch mode."""
    return json.dumps(report, separators=(", ", ": "), ensure_ascii=False)


def render_text(report: dict) -> str:
    lines: list[str] = []
    for key, value in report.items():
        _render(value, 0, key, lines)
    return "\n".join(lines)


def _render(node: Any, depth: int, label: Optional[str], lines: list[str]) -> None:
    pad = "  " * depth
    if isinstance(node, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
        if not node:
            lines.append(f"{pad}  (none)")
        for k, v in node.items():
            _render(v, depth + 1, k, lines)
    elif isinstance(node, list):
        if label is not None:
            lines.append(f"{pad}{label}:")
        if not node:
            lines.append(f"{pad}  (none)")
        for item in node:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}  -")
                _render(item, depth + 2, None, lines)
            else:
                lines.append(f"{pad}  - {item}")
    else:
        text = "null" if node is None else node
        if label is None:
            lines.append(f"{pad}{text}")
        else:
            lines.append(f"{pad}{label}: {text}")
