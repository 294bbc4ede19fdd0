"""Per-layer spans recorded from outside the program.

The tracer rebinds module-level names in the modules that call a layer,
so no source file of the program changes. Wrapping one function under
several importing modules tells its callers apart: ``criteria.poly_gcd``
is the separation test, ``classify.poly_gcd`` the witness constraint
gcd, ``polynomials.poly_gcd`` the calls from ``radical`` and
``squarefree_parts``.

Each call records a span (label, start, end, parent) in memory. A span
opened in a worker thread with nothing open in that thread hangs under
the innermost span open in the main thread, so the spans of
``cli.main``'s thread pool count as its children. Self time is a span's
duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Any, Callable, Optional


class Span:
    __slots__ = ("label", "parent", "nested", "start", "end", "raised",
                 "value")

    def __init__(self, label: str, parent: Optional["Span"], nested: bool):
        self.label = label
        self.parent = parent
        self.nested = nested  # an enclosing span has the same label
        self.start = self.end = 0.0
        self.raised = False
        self.value: Optional[float] = None


def _coeff_bits(p) -> float:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in p.coeffs), default=0)


def _utf8_len(text: str) -> float:
    return len(text.encode("utf-8")) + 1  # the caller writes a newline


# (module under uniqpoly, attribute, label, measure of the return value)
WRAPS: tuple[tuple[str, str, str, Optional[Callable[[Any], float]]], ...] = (
    ("parser", "parse_poly", "parser.parse", None),
    ("cli", "parse_poly", "parser.parse", None),
    ("criteria", "index_data", "criteria.index_data", None),
    ("classify", "index_data", "criteria.index_data", None),
    ("classify", "critical_structure", "criteria.critical_structure", None),
    ("cli", "critical_structure", "criteria.critical_structure", None),
    ("classify", "linear_factor_scan", "criteria.linear_factor_scan", None),
    ("cli", "linear_factor_scan", "criteria.linear_factor_scan", None),
    ("classify", "affine_symmetry", "criteria.affine_symmetry", None),
    ("criteria", "poly_gcd", "polynomials.separation_gcd", None),
    ("polynomials", "poly_gcd", "polynomials.poly_gcd", None),
    ("criteria", "resultant", "polynomials.resultant", None),
    ("criteria", "lagrange_interpolate", "polynomials.lagrange", _coeff_bits),
    ("criteria", "radical", "polynomials.radical", None),
    ("classify", "radical", "polynomials.radical", None),
    ("criteria", "squarefree_parts", "polynomials.squarefree_parts", None),
    ("polynomials", "squarefree_parts", "polynomials.squarefree_parts", None),
    ("classify", "rational_roots", "polynomials.rational_roots", None),
    ("cli", "rational_roots", "polynomials.rational_roots", None),
    ("classify", "classify", "classify.classify", None),
    ("cli", "classify", "classify.classify", None),
    ("classify", "consistency_audit", "classify.audit", None),
    ("cli", "consistency_audit", "classify.audit", None),
    ("classify", "witness_search", "classify.witness_search", None),
    ("cli", "witness_search", "classify.witness_search", None),
    ("classify", "verify_witness", "classify.verify_witness", None),
    ("classify", "poly_gcd", "classify.constraint_gcd", None),
    ("classify", "cyclotomic", "cyclotomic.cyclotomic", None),
    ("report", "classify_report", "report.classify_report", None),
    ("report", "dumps_line", "report.dumps", _utf8_len),
    ("report", "dumps", "report.dumps", _utf8_len),
    ("cli", "main", "cli.main", None),
    ("cli", "verify_curve_identities", "curves.verify_curve_identities", None),
    ("cli", "singular_census", "curves.census", None),
    ("cli", "bezout_irreducibility", "curves.census", None),
    ("cli", "genus_ordinary", "curves.census", None),
    ("classify", "singular_census", "curves.census", None),
    ("classify", "bezout_irreducibility", "curves.census", None),
    ("classify", "genus_ordinary", "curves.census", None),
)


class Tracer:
    """Install with ``install()``, take the spans, then ``restore()``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._main_stack: list[Span] = []
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, label: str,
             measure: Optional[Callable[[Any], float]] = None) -> None:
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            outer = stack or tracer._main_stack
            span = Span(label, outer[-1] if outer else None,
                        any(s.label == label for s in stack))
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if measure is not None:
                span.value = measure(result)
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    def install(self) -> "Tracer":
        for mod, attr, label, measure in WRAPS:
            self.wrap(importlib.import_module(f"uniqpoly.{mod}"), attr,
                      label, measure)
        return self

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


class Summary:
    """Totals per label over a finished list of spans."""

    def __init__(self, spans: list[Span]):
        self._by_label: dict[str, list[Span]] = {}
        self._children: dict[int, list[Span]] = {}
        for s in spans:
            self._by_label.setdefault(s.label, []).append(s)
            if s.parent is not None:
                self._children.setdefault(id(s.parent), []).append(s)

    def _of(self, label: str) -> list[Span]:
        return self._by_label.get(label, [])

    def count(self, label: str) -> int:
        return len(self._of(label))

    def total(self, label: str, raised_only: bool = False) -> float:
        """Wall time inside the label, counting nested calls once."""
        return sum(s.end - s.start for s in self._of(label)
                   if not s.nested and (s.raised or not raised_only))

    def self_time(self, label: str) -> float:
        out = 0.0
        for s in self._of(label):
            if s.nested:
                continue
            covered = 0.0
            reach = s.start
            kids = sorted(self._children.get(id(s), ()),
                          key=lambda k: k.start)
            for k in kids:
                lo, hi = max(k.start, reach), min(k.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out += (s.end - s.start) - covered
        return out

    def max_value(self, label: str) -> float:
        return max((s.value for s in self._of(label) if s.value is not None),
                   default=0.0)

    def sum_value(self, label: str) -> float:
        return sum(s.value for s in self._of(label) if s.value is not None)


def layer_metrics(summary: Summary, inputs: int, slots_decided_share: float,
                  throughput: float) -> dict[str, float]:
    """Every per-layer metric of the benchmark, keyed by name."""
    n = max(inputs, 1)
    s = summary
    classify_total = s.total("classify.classify")
    classify_self = s.self_time("classify.classify")
    out = {
        "parser.parse_s": s.total("parser.parse") / n,
        "parser.calls": s.count("parser.parse") / n,
        "parser.reject_s": s.total("parser.parse", raised_only=True) / n,
        "criteria.index_data_calls": s.count("criteria.index_data") / n,
        "criteria.index_data_s": s.total("criteria.index_data") / n,
        "criteria.critical_structure_s":
            s.total("criteria.critical_structure") / n,
        "criteria.linear_factor_scan_s":
            s.total("criteria.linear_factor_scan") / n,
        "criteria.affine_symmetry_s": s.total("criteria.affine_symmetry") / n,
        "polynomials.separation_gcd_s":
            s.total("polynomials.separation_gcd") / n,
        "polynomials.poly_gcd_calls": s.count("polynomials.poly_gcd") / n,
        "polynomials.poly_gcd_s": s.total("polynomials.poly_gcd") / n,
        "polynomials.resultant_calls": s.count("polynomials.resultant") / n,
        "polynomials.resultant_s": s.total("polynomials.resultant") / n,
        "polynomials.lagrange_s": s.total("polynomials.lagrange") / n,
        "polynomials.radical_s": s.total("polynomials.radical") / n,
        "polynomials.squarefree_parts_s":
            s.total("polynomials.squarefree_parts") / n,
        "polynomials.sep_coeff_bits": s.max_value("polynomials.lagrange"),
        "polynomials.rational_roots_calls":
            s.count("polynomials.rational_roots") / n,
        "polynomials.rational_roots_s":
            s.total("polynomials.rational_roots") / n,
        "classify.classify_s": classify_total / n,
        "classify.rules_self_s": classify_self / n,
        "classify.child_cover_share":
            1 - classify_self / classify_total if classify_total else 0.0,
        "classify.audit_s": s.total("classify.audit") / n,
        "classify.witness_search_calls":
            s.count("classify.witness_search") / n,
        "classify.witness_search_s": s.total("classify.witness_search") / n,
        "classify.constraint_gcd_s": s.total("classify.constraint_gcd") / n,
        "classify.verify_witness_calls":
            s.count("classify.verify_witness") / n,
        "classify.slots_decided_share": slots_decided_share,
        "cyclotomic.cyclotomic_calls": s.count("cyclotomic.cyclotomic") / n,
        "cyclotomic.cyclotomic_s": s.total("cyclotomic.cyclotomic") / n,
        "report.classify_report_s": s.total("report.classify_report") / n,
        "report.dumps_s": s.total("report.dumps") / n,
        "report.bytes_out": s.sum_value("report.dumps") / n,
        "cli.self_s": s.self_time("cli.main") / n,
        "curves.verify_curve_identities_s":
            s.total("curves.verify_curve_identities") / n,
        "curves.census_s": s.total("curves.census") / n,
        "traced_throughput_per_s": throughput,
    }
    return out
