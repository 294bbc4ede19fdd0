"""Command-line front end.

Subcommands
    classify   four-way verdict for one polynomial, with audit
    curve      value-sharing curves: identities, census, genus
    forms      hyperbolicity certificate for a named configuration
    witness    direct search for value-preserving affine maps
    corollary  the one-gap family table row, cross-checked
    selftest   run the acceptance suites

Exit codes: 0 success, 1 usage error, 2 parse error, 3 verdict contains
an out-of-scope slot (the report is still printed), 4 internal
inconsistency (audit failure or a certificate that does not replay).

Reports are deterministic: same input and seed give byte-identical
output, so timing is reported as rule-step counts, never wall clock.
"""

from __future__ import annotations

import argparse
import functools
import random
import re
import sys
import traceback
from fractions import Fraction
from typing import Callable, Optional

from .classify import (
    SLOTS,
    classify,
    consistency_audit,
    corollary_classify,
    witness_search,
)
from .criteria import (
    CriticalStructure,
    IndexData,
    critical_structure,
    index_data,
    linear_factor_scan,
)
from .curves import (
    Configuration,
    bezout_irreducibility,
    genus_ordinary,
    singular_census,
    verify_curve_identities,
)
from .orders import hyperbolicity_verdict, replay_verdict
from .parser import (DEFAULT_DEGREE_CAP, MAX_COEFF_BITS, DegreeCapError,
                     _bits, parse_poly)
from .polynomials import Poly, rational_roots
from . import report as rpt

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_SCOPE = 3
EXIT_INTERNAL = 4


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; the contract reserves 2 for
    # polynomial parse errors, so usage problems must exit 1 instead
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def _rational(text: str) -> Fraction:
    """A rational argument, held to the parser's coefficient bound.

    ``Fraction`` expands a decimal exponent in full, so it is read first.
    The mantissa has fewer than len(text) digits and decimal places, so
    past |exponent| > MAX_COEFF_BITS + len(text) a nonzero value has a
    numerator or a denominator above 10^MAX_COEFF_BITS: only the mantissa
    is read then, and only zero passes.
    """
    try:
        m = _EXPONENT.search(text)
        huge = (m is not None
                and abs(int(m.group(1))) > MAX_COEFF_BITS + len(text))
        value = Fraction(text[:m.start()] + "e0") if huge else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    if (huge and value) or _bits(value) > MAX_COEFF_BITS:
        raise argparse.ArgumentTypeError(
            f"rational exceeds {MAX_COEFF_BITS} bits")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was, so every call of ``main`` can share it."""
    top = _ArgumentParser(
        prog="uniqpoly",
        description="exact classification of value-sharing polynomials",
    )
    sub = top.add_subparsers(dest="subcommand", parser_class=_ArgumentParser)

    def output_mode(p: argparse.ArgumentParser) -> None:
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--json", dest="text_mode", action="store_false",
                          default=False, help="JSON output (default)")
        mode.add_argument("--text", dest="text_mode", action="store_true",
                          help="indented text output")

    def degree_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument("--degree-cap", type=int, default=DEFAULT_DEGREE_CAP,
                       metavar="K", help="reject inputs of degree above K"
                                         " (default %(default)s)")

    def seed(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=None, metavar="N",
                       help="seed for randomized replay checks")

    def per_poly(p: argparse.ArgumentParser) -> None:
        output_mode(p)
        degree_cap(p)
        seed(p)
        p.add_argument("--batch", metavar="FILE",
                       help="read one polynomial per line, emit one"
                            " JSON report per line in input order")

    c = sub.add_parser("classify", help="four-way verdict for a polynomial")
    c.add_argument("poly", nargs="?", help="polynomial in X, e.g. 'X^4+X+1'")
    per_poly(c)

    c = sub.add_parser("curve", help="value-sharing curve certificates")
    c.add_argument("poly", nargs="?")
    c.add_argument("--c", type=_rational, default=None, metavar="Q",
                   help="multiplier for the scaled curve (not 0 or 1)")
    per_poly(c)

    c = sub.add_parser("forms", help="hyperbolicity certificate for a"
                                     " critical-point configuration")
    c.add_argument("kind", choices=("shared", "scaled"))
    c.add_argument("mults", help="comma-separated multiplicities, e.g. 2,1,1")
    c.add_argument("--pairing", default="", metavar="I:J,...",
                   help="value pairs i:j meaning value_i = c * value_j")
    output_mode(c)
    seed(c)

    c = sub.add_parser("witness", help="search for value-preserving maps")
    c.add_argument("poly", nargs="?")
    per_poly(c)

    c = sub.add_parser("corollary", help="table row for the one-gap family"
                                         " (X-alpha)^n + a (X-alpha)^m + b")
    c.add_argument("alpha", type=_rational)
    c.add_argument("n", type=int)
    c.add_argument("m", type=int)
    c.add_argument("a", type=_rational)
    c.add_argument("b", type=_rational)
    output_mode(c)
    degree_cap(c)

    c = sub.add_parser("selftest", help="run the acceptance suites")
    c.add_argument("--fast", action="store_true",
                   help="reduced case counts for a quick check")
    output_mode(c)
    seed(c)
    return top


# per-polynomial commands; each returns (exit_code, report_dict)

def _run_classify(text: str, args) -> tuple[int, dict]:
    p = parse_poly(text, degree_cap=args.degree_cap)
    verdict = classify(p, degree_cap=args.degree_cap)
    audit = consistency_audit(p, verdict)
    rep = rpt.classify_report(text, p, verdict, audit, seed=args.seed)
    if not audit["ok"]:
        return EXIT_INTERNAL, rep
    if any(verdict.slot(s) == "out_of_scope" for s in SLOTS):
        return EXIT_SCOPE, rep
    return EXIT_OK, rep


def _run_witness(text: str, args) -> tuple[int, dict]:
    p = parse_poly(text, degree_cap=args.degree_cap)
    rep = rpt.base_report("witness")
    rep["input"] = rpt.input_block(text, p)
    if args.seed is not None:
        rep["seed"] = args.seed
    results = {}
    for mode in ("any_c", "c_equals_1"):
        w = witness_search(p, mode)
        results[mode] = None if w is None else rpt.jsonable(w.as_dict())
        if w is not None:
            # witness_search replays before returning; record that
            results[mode]["replayed"] = True
    rep["witnesses"] = results
    rep["timing"] = {"mode": "deterministic", "rule_steps": len(results)}
    return EXIT_OK, rep


def _census_block(config: Configuration, no_linear: bool,
                  head: dict) -> dict:
    """Census, irreducibility and genus of a curve, after ``head``."""
    census = singular_census(config)
    irr = bezout_irreducibility(config.degree, census, no_linear)
    block = {
        "available": True,
        "multiplicities": list(config.mults),
        **head,
        "census": [
            {"label": pt.label, "multiplicity": pt.multiplicity,
             "ordinary": pt.ordinary}
            for pt in census
        ],
        "irreducible": irr.irreducible,
        "irreducibility_reason": irr.reason,
    }
    if irr.irreducible and all(pt.ordinary for pt in census):
        block["genus"] = genus_ordinary(config.degree, census)
    return block


def _scaled_census_block(p: Poly, c: Fraction, cs: CriticalStructure,
                         idx: IndexData) -> dict:
    """Census of the scaled curve from rational critical data.

    Complete only when every critical value is rational (conjugate
    irrational values cannot be paired exactly), so the block says when
    it must abstain.
    """
    if not cs.is_separated:
        return {"available": False,
                "reason": "critical values are not separated"}
    if cs.has_zero_value:
        # 0 = c * 0 puts a diagonal singular point on the scaled curve
        # that the pairing model cannot carry, so the census abstains
        return {"available": False,
                "reason": "a critical value is zero; the pairing census"
                          " does not model the diagonal point"}
    # under separation Galois-conjugate critical points would share a
    # value, so every critical value is rational exactly when every
    # critical point is; their multiplicities as roots of P' are the
    # profile, read off the squarefree factors of P'
    points = sorted((x, mult) for factor, mult in cs.derivative_parts
                    for x, _ in rational_roots(factor))
    if sum(m for _, m in points) != cs.derivative.degree:
        return {"available": False,
                "reason": "some critical value is irrational"}
    mults = tuple(m for _, m in points)
    values = [p.evaluate(x) for x, _ in points]
    pairing = tuple(
        (i, j)
        for i in range(len(values))
        for j in range(len(values))
        if i != j and values[i] == c * values[j]
    )
    scan = linear_factor_scan(idx, "F_c")
    no_linear = not any(
        f.c_rational is None or f.c_rational == c for f in scan.factors
    )
    return _census_block(Configuration("scaled", mults, pairing), no_linear, {
        "critical_points": [x for x, _ in points],
        "critical_values": values,
        "pairing": [list(e) for e in pairing],
    })


def _shared_census_block(cs: CriticalStructure, idx: IndexData) -> dict:
    if not cs.is_separated:
        return {"available": False,
                "reason": "critical values are not separated"}
    no_linear = not linear_factor_scan(idx, "F").factors
    return _census_block(Configuration("shared", cs.profile), no_linear, {})


def _run_curve(text: str, args) -> tuple[int, dict]:
    p = parse_poly(text, degree_cap=args.degree_cap)
    if p.degree < 2:
        raise ValueError("curve construction needs degree at least 2")
    c: Optional[Fraction] = args.c
    rep = rpt.base_report("curve")
    rep["input"] = rpt.input_block(text, p)
    if args.seed is not None:
        rep["seed"] = args.seed
    if c is not None and c in (0, 1):
        raise ValueError("the multiplier c must avoid 0 and 1")
    identities = verify_curve_identities(p, c if c is not None else Fraction(2))
    cs = critical_structure(p)
    idx = index_data(p)
    shared_keys = [k for k in identities if k.startswith("shared")]
    rep["shared_curve"] = {
        "defining": str(identities.shared),
        "identities": {k: identities[k] for k in shared_keys},
        "census": rpt.jsonable(_shared_census_block(cs, idx)),
    }
    steps = 1 + len(identities)
    if c is not None:
        scaled_keys = [k for k in identities if k.startswith("scaled")]
        rep["scaled_curve"] = {
            "c": rpt.jsonable(c),
            "defining": str(identities.scaled),
            "identities": {k: identities[k] for k in scaled_keys},
            "census": rpt.jsonable(_scaled_census_block(p, c, cs, idx)),
        }
        steps += 1
    ok = all(identities[k] for k in shared_keys) if c is None \
        else all(identities.values())
    rep["identities_pass"] = ok
    rep["timing"] = {"mode": "deterministic", "rule_steps": steps}
    return (EXIT_OK if ok else EXIT_INTERNAL), rep


def _run_forms(args) -> tuple[int, dict]:
    try:
        mults = tuple(int(part) for part in args.mults.split(","))
        pairing = tuple(
            tuple(int(x) for x in edge.split(":"))
            for edge in args.pairing.split(",")
            if edge
        )
        config = Configuration(args.kind, mults, pairing)
        # the report grows with P's degree n = 1 + sum(mults)
        if config.n > DEFAULT_DEGREE_CAP:
            raise DegreeCapError(config.n, DEFAULT_DEGREE_CAP)
    except ValueError as exc:
        raise UsageError(str(exc))
    hv = hyperbolicity_verdict(config)
    rng = random.Random(args.seed if args.seed is not None else 0)
    replay_ok = replay_verdict(hv, rng)
    rep = rpt.base_report("forms")
    rep["configuration"] = {
        "kind": config.kind,
        "multiplicities": list(config.mults),
        "pairing": [list(e) for e in config.pairing],
        "curve_degree": config.degree,
    }
    if args.seed is not None:
        rep["seed"] = args.seed
    rep["certificate"] = rpt.jsonable(hv.as_dict())
    rep["replayed"] = replay_ok
    rep["timing"] = {
        "mode": "deterministic",
        "rule_steps": 1 + len(hv.forms),
    }
    return (EXIT_OK if replay_ok else EXIT_INTERNAL), rep


def _run_corollary(args) -> tuple[int, dict]:
    try:
        table = corollary_classify(args.alpha, args.n, args.m, args.a, args.b)
    except ValueError as exc:
        raise UsageError(str(exc))
    # before (X - alpha)^n is built: its shift costs about n^3
    if args.n > args.degree_cap:
        raise UsageError(str(DegreeCapError(args.n, args.degree_cap)))
    base = Poly.from_support({args.n: 1, args.m: args.a, 0: args.b})
    p = base.taylor_shift(-args.alpha)
    verdict = classify(p, degree_cap=args.degree_cap)
    got = tuple(verdict.slot(s) == "yes" for s in SLOTS)
    match = got == table.as_tuple()
    rep = rpt.base_report("corollary")
    rep["parameters"] = rpt.jsonable(
        {"alpha": args.alpha, "n": args.n, "m": args.m,
         "a": args.a, "b": args.b}
    )
    rep["polynomial"] = str(p)
    rep["table"] = {s: v for s, v in zip(SLOTS, table.as_tuple())}
    rep["classifier"] = {s: verdict.slot(s) for s in SLOTS}
    rep["match"] = match
    rep["timing"] = {
        "mode": "deterministic",
        "rule_steps": len(verdict.rule_trace),
    }
    return (EXIT_OK if match else EXIT_INTERNAL), rep


def _run_selftest(args) -> tuple[int, dict]:
    from . import selftest

    seed = args.seed if args.seed is not None else 0
    results = selftest.run_all(seed=seed, fast=args.fast)
    rep = rpt.base_report("selftest")
    rep["seed"] = seed
    rep["fast"] = bool(args.fast)
    rep["criteria"] = [
        {"name": r.name, "ok": r.ok, "cases": r.cases, "detail": r.detail}
        for r in results
    ]
    rep["all_ok"] = all(r.ok for r in results)
    rep["timing"] = {
        "mode": "deterministic",
        "rule_steps": sum(r.cases for r in results),
    }
    return (EXIT_OK if rep["all_ok"] else EXIT_INTERNAL), rep


class UsageError(Exception):
    pass


def _error_report(command: str, code: int, message: str) -> dict:
    rep = rpt.base_report(command)
    kind = {EXIT_PARSE: "parse", EXIT_INTERNAL: "internal"}.get(code, "usage")
    rep["error"] = {"kind": kind, "message": message}
    return rep


def _emit(rep: dict, args, stream) -> None:
    if getattr(args, "text_mode", False):
        stream.write(rpt.render_text(rep) + "\n")
    else:
        stream.write(rpt.dumps(rep) + "\n")


def _run_one_guarded(
    runner: Callable[[str], tuple[int, dict]], text: str, command: str
) -> tuple[int, dict]:
    try:
        return runner(text)
    except ValueError as exc:  # ParseError and DegreeCapError included
        return EXIT_PARSE, _error_report(command, EXIT_PARSE, str(exc))
    except RuntimeError as exc:
        return EXIT_INTERNAL, _error_report(command, EXIT_INTERNAL, str(exc))
    except Exception as exc:  # a defect on one input must not end a batch
        sys.stderr.write(traceback.format_exc())
        return EXIT_INTERNAL, _error_report(
            command, EXIT_INTERNAL, f"{type(exc).__name__}: {exc}")


def _batch(runner, args, command: str) -> int:
    try:
        # bytes that are not UTF-8 decode as Python decodes argv, so such
        # a line gets the parse error it would get as an argument
        with open(args.batch, "r", encoding="utf-8",
                  errors="surrogateescape") as fh:
            texts = [t for t in (line.strip() for line in fh) if t]
    except OSError as exc:
        sys.stderr.write(f"uniqpoly: cannot read batch file: {exc}\n")
        return EXIT_USAGE
    code = EXIT_OK
    for text in texts:
        item_code, rep = _run_one_guarded(runner, text, command)
        # one report per line, written as soon as its line is done
        sys.stdout.write(rpt.dumps_line(rep) + "\n")
        sys.stdout.flush()
        code = max(code, item_code)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    # the parser bounds every input coefficient, but exact values derived
    # from them (the critical values of a degree-64 curve census, say) can
    # pass CPython's 4300-digit limit on int-to-str conversion, which
    # exists to stop unbounded input; reports print them in full
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _dispatch(args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _dispatch(args) -> int:
    poly_runners = {
        "classify": _run_classify,
        "witness": _run_witness,
        "curve": _run_curve,
    }
    try:
        if args.subcommand in poly_runners:
            runner = lambda text: poly_runners[args.subcommand](text, args)
            if getattr(args, "batch", None):
                if args.poly is not None:
                    sys.stderr.write(
                        "uniqpoly: give a polynomial or --batch, not both\n")
                    return EXIT_USAGE
                if args.text_mode:
                    sys.stderr.write(
                        "uniqpoly: batch mode emits JSON lines; --text is"
                        " not available\n")
                    return EXIT_USAGE
                return _batch(runner, args, args.subcommand)
            if args.poly is None:
                sys.stderr.write("uniqpoly: a polynomial is required\n")
                return EXIT_USAGE
            code, rep = _run_one_guarded(runner, args.poly, args.subcommand)
        elif args.subcommand == "forms":
            code, rep = _run_forms(args)
        elif args.subcommand == "corollary":
            code, rep = _run_corollary(args)
        else:
            code, rep = _run_selftest(args)
    except UsageError as exc:
        sys.stderr.write(f"uniqpoly: {exc}\n")
        return EXIT_USAGE
    except RuntimeError as exc:
        rep = _error_report(args.subcommand, EXIT_INTERNAL, str(exc))
        _emit(rep, args, sys.stdout)
        return EXIT_INTERNAL
    _emit(rep, args, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
