"""Golden corpus: every listed command line replays byte for byte.

``tests/golden/runs.jsonl`` holds one run per line: the argument vector
given to ``cli.main``, the exit code it returned and the sha256 of what
it wrote to stdout. A path after ``--batch`` is relative to
``tests/golden``. The corpus covers ``classify`` (JSON and text),
``witness``, ``curve`` with and without ``--c``, both batch commands,
``forms`` for every configuration up to n = 10, a few ``corollary``
rows and ``selftest --fast``, on malformed, over-cap, rational,
non-separated and out-of-scope inputs among others, some with
``--seed``, and the usage errors of ``cli.main``.

The digests pin the behaviour of the code they were recorded from, so a
change meant to keep every report as it is must replay them unchanged.
Regenerating them is a deliberate act, for a change of report content:

    PYTHONPATH=src python tests/test_golden.py --regenerate

rewrites each line's exit code and digest from the current code and
keeps the argument vectors.

    PYTHONPATH=src python tests/test_golden.py --trace

replays the corpus under ``sys.settrace``, the package imported afresh
inside the trace, and writes ``golden/unreached_lines.txt``: one
``module:line: source`` entry for each statement of ``src/uniqpoly`` that
no run reaches. A statement counts as reached when any line of its span
runs. Docstrings, other constant expressions, ``def``, ``class``,
``import`` and ``global`` lines are left out. It then checks the list
and prints what fails: an unreached statement that is not a ``raise``
must be named in ``EXEMPT``, by module, enclosing scope and first line
of source, with a reason, and every exemption must name an unreached
statement. It exits 1 on any failure, or when a run differs from its
digest. ``test_every_unreached_statement_is_a_raise_or_exempt`` runs the
same trace and check in a child process.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from uniqpoly import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = GOLDEN / "runs.jsonl"
UNREACHED = GOLDEN / "unreached_lines.txt"


def load_runs() -> list[dict]:
    with open(RUNS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def replay(argv: list[str]) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of one run through ``cli.main``."""
    argv = [str(GOLDEN / a) if i and argv[i - 1] == "--batch" else a
            for i, a in enumerate(argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def test_golden_corpus_replays():
    runs = load_runs()
    assert len(runs) > 1900
    start = time.perf_counter()
    bad = []
    for run in runs:
        code, digest = replay(run["argv"])
        if (code, digest) != (run["exit"], run["sha256"]):
            bad.append(run["argv"])
    elapsed = time.perf_counter() - start
    assert not bad, f"{len(bad)} runs differ, first {bad[:5]}"
    assert elapsed < 15.0, f"replay took {elapsed:.1f} s"


def _regenerate() -> None:
    runs = load_runs()
    with open(RUNS, "w", encoding="utf-8") as fh:
        for run in runs:
            code, digest = replay(run["argv"])
            fh.write(json.dumps({"argv": run["argv"], "exit": code,
                                 "sha256": digest}) + "\n")
    print(f"rewrote {len(runs)} runs in {RUNS}")


# statements that run no code of their own, or whose line is no evidence
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import,
            ast.ImportFrom, ast.Global, ast.Nonlocal)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _statements(tree: ast.Module) -> list[tuple[int, int, str, bool]]:
    """(first line, last line, enclosing scope, whether it is a raise) of
    each statement the trace should reach; the scope is a dotted name,
    ``<module>`` at the top level."""
    out = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, _SCOPES):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)
            if not isinstance(child, ast.stmt) or isinstance(child, _SKIPPED):
                continue
            if isinstance(child, ast.Expr) and isinstance(child.value,
                                                          ast.Constant):
                continue  # docstrings and "...": the compiler drops them
            out.append((child.lineno, child.end_lineno, scope or "<module>",
                        isinstance(child, ast.Raise)))

    visit(tree, "")
    return out


def unreached() -> tuple[int, list[list]]:
    """Replay the corpus under a line trace: the number of runs that
    differ from their digests, and [module, line, scope, first line of
    source, whether it is a raise] for each statement no run reaches.

    The package is imported afresh inside the trace, so that module and
    class bodies count as reached; the caller's class objects go stale,
    which is why the gate runs this in a child process.
    """
    global cli
    src = Path(cli.__file__).parent
    for name in [m for m in sys.modules if m.split(".")[0] == "uniqpoly"]:
        del sys.modules[name]
    reached: set[tuple[str, int]] = set()

    def lines(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(str(src)) else None

    runs = load_runs()
    sys.settrace(calls)
    try:
        from uniqpoly import cli
        differ = sum(replay(run["argv"]) != (run["exit"], run["sha256"])
                     for run in runs)
    finally:
        sys.settrace(None)
    entries = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        hit = {n for f, n in reached if f == str(path)}
        for first, last, scope, is_raise in sorted(set(_statements(
                ast.parse(text)))):
            if hit.isdisjoint(range(first, last + 1)):
                entries.append([path.stem, first, scope,
                                source[first - 1].strip(), is_raise])
    return differ, entries


def _exempt(module: str, scope: str, reason: str,
            *texts: str) -> dict[tuple[str, str, str], str]:
    return {(module, scope, text): reason for text in texts}


# reached only on a defect
_REPLAY = "a witness that does not replay"
_AUDIT = "the audit contradicts the verdict"
_INTERNAL = "an internal error, reported with exit 4"
_SELFTEST = "a selftest criterion fails"
_IDENTITY = "a curve identity fails"
_CHAIN = "a certified chain goes negative"
# goes whole once perfbench/spans.py stops wrapping it (ROADMAP items 3, 5)
_WRAPS = "kept only for the wrap table of perfbench/spans.py"

# unreached statements that stay, keyed by (module, enclosing scope, first
# line of the statement), each with its reason
EXEMPT: dict[tuple[str, str, str], str] = {
    **_exempt("classify", "verify_witness", _REPLAY, "return False"),
    **_exempt("classify", "_verify_linear", _REPLAY, "return False"),
    **_exempt("classify", "_verify_exception", _REPLAY, "return False"),
    **_exempt("classify", "consistency_audit", _AUDIT,
              "failures.append(",
              'failures.append(f"{slot} is no without a witness")',
              'failures.append(f"{slot} witness does not replay")'),
    **_exempt("cli", "_run_classify", _INTERNAL, "return EXIT_INTERNAL, rep"),
    **_exempt("cli", "_run_one_guarded", _INTERNAL,
              "return EXIT_INTERNAL, _error_report(command, EXIT_INTERNAL,"
              " str(exc))",
              "sys.stderr.write(traceback.format_exc())",
              "return EXIT_INTERNAL, _error_report("),
    **_exempt("cli", "_dispatch", _INTERNAL,
              "rep = _error_report(args.subcommand, EXIT_INTERNAL, str(exc))",
              "_emit(rep, args, sys.stdout)", "return EXIT_INTERNAL"),
    **_exempt("cli", "<module>", "runs only as python -m uniqpoly.cli",
              "sys.exit(main())"),
    **_exempt("curves", "_dz_order", _IDENTITY, "return False"),
    **_exempt("orders", "replay_chain", _CHAIN, "return False"),
    **_exempt("orders", "_pair",
              "keeps a form that is not regular out of a certificate; no"
              " configuration with n <= 16, nor any of a random sample up"
              " to the cap, builds one", "return None"),
    **_exempt("polynomials", "Poly.monic",
              "Poly is public and monic() total: zero maps to itself",
              "return self"),
    **_exempt("polynomials", "resultant", _WRAPS,
              "return Q(0)", "return Q(1)", "return q.lc**dp",
              "return p.lc**dq"),
    **_exempt("polynomials", "cyclotomic", _WRAPS,
              "if r < 1:", "if r == 1:", "return X - 1",
              "q = Poly.from_support({r: 1, 0: -1})",
              "for d in range(1, r):", "if r % d == 0:",
              "q = q.exact_div(cyclotomic(d))", "return q"),
    **_exempt("selftest", "_result", _SELFTEST,
              'detail += f" (+{len(failures) - 5} more)"'),
    **_exempt("selftest", "one_gap_table_agreement", _SELFTEST,
              "failures.append((n, m, a, b, got, table.as_tuple()))",
              "continue",
              'failures.append((n, m, a, b, "missing scaling-with-c"))',
              'failures.append((n, m, a, b, "witness does not replay"))',
              'failures.append(("pin", n, m, a, b, want))'),
    **_exempt("selftest", "witness_oracle_agreement", _SELFTEST,
              'failures.append((n, m, a, b, audit["failures"]))'),
    **_exempt("selftest", "converse_factor_pins", _SELFTEST,
              'failures.append((str(p), "scan not applicable"))',
              "continue",
              'failures.append((str(p), "expected factor not found"))',
              'failures.append((str(p), f, "factor does not divide"))'),
    **_exempt("selftest", "curve_identity_suite", _SELFTEST,
              "failures.append((str(p), str(c), bad))"),
    **_exempt("selftest", "separation_float_agreement", _SELFTEST,
              "failures.append((str(p), exact, approx))"),
    **_exempt("selftest", "genus_pins.check", _SELFTEST,
              "failures.append((label, got, want))"),
    **_exempt("selftest", "order_table_agreement", _SELFTEST,
              "failures.append((cfg.kind, cfg.mults, cfg.pairing,"),
    **_exempt("selftest", "exceptional_quartic_flags", _SELFTEST,
              'failures.append(("X^4 - 4X", "flag missing"))',
              'failures.append(("X^4 - 4X", "separation polynomial",',
              'failures.append((f"X^4 + {a}X + {b}", "spurious flag"))'),
    **_exempt("selftest", "_property_poly_core", _SELFTEST,
              'return "additive round trip"', 'return "commutativity"',
              'return "degree of product"', 'return "division round trip"',
              'return "shift round trip"',
              'return "evaluation is multiplicative"',
              'return "evaluation is additive"'),
    **_exempt("selftest", "_property_lattice", _SELFTEST,
              'return f"{strong} yes above {weak} {v.slot(weak)}"',
              'return f"{slot} negative without witness"',
              'return f"{slot} out of scope without reason"',
              'return "empty rule trace"'),
    **_exempt("selftest", "_property_invariance", _SELFTEST,
              'return f"{slot} changed under shift/scale"'),
    **_exempt("selftest", "_property_parser", _SELFTEST,
              'return f"round trip failed for {text}"'),
    **_exempt("selftest", "property_suites", _SELFTEST,
              'problem = f"raised {type(exc).__name__}: {exc}"',
              "failures.append((name, i, problem))", "break"),
    **_exempt("selftest", "run_all",
              "the full-size suites, which tests/test_acceptance.py runs",
              "return ["),
    **_exempt("selftest", "_hand_scaled",
              "the oracle mirrors the engine's one-critical-point case,"
              " which enumerate_configurations never yields",
              'return "none"'),
    **_exempt("trivariate", "TriPoly.__add__",
              "addition stays total: a zero left operand", "return other"),
    **_exempt("trivariate", "TriPoly.__mul__",
              "Python's protocol for an operand of another type",
              "return NotImplemented"),
}


def gate_failures(entries: list[list],
                  exempt: dict[tuple[str, str, str], str] = EXEMPT) -> list[str]:
    """The unreached statements that are neither a raise nor named by an
    exemption, then the exemptions that name no unreached statement."""
    used = set()
    out = []
    for module, line, scope, text, is_raise in entries:
        key = (module, scope, text)
        if key in exempt:
            used.add(key)
        elif not is_raise:
            out.append(f"{module}:{line}: {text}  (in {scope})")
    out += [f"stale exemption: {module}:{scope}: {text}"
            for module, scope, text in exempt
            if (module, scope, text) not in used]
    return out


def test_the_gate_names_unexempt_statements_and_stale_exemptions():
    entries = [["m", 3, "f", "return False", False],
               ["m", 5, "f", "raise ValueError(x)", True],
               ["m", 9, "g", "return None", False],
               ["m", 11, "g", "return None", False],
               ["m", 12, "h", "return None", False]]
    exempt = {("m", "g", "return None"): "why", ("m", "k", "x = 1"): "gone"}
    assert gate_failures(entries, exempt) == [
        "m:3: return False  (in f)", "m:12: return None  (in h)",
        "stale exemption: m:k: x = 1"]
    assert gate_failures(entries[1:4], {("m", "g", "return None"): "why"}) == []


def test_every_unreached_statement_is_a_raise_or_exempt():
    # a child process, because the replay imports the package afresh
    # and would swap the class objects that later tests hold
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here),
                            os.environ.get("PYTHONPATH", "")])
    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-c", "import json, test_golden;"
         " print(json.dumps(test_golden.unreached()))"],
        cwd=here, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    assert child.returncode == 0, child.stderr
    differ, entries = json.loads(child.stdout)
    assert differ == 0
    assert gate_failures(entries) == []
    assert elapsed < 30.0, f"traced replay took {elapsed:.1f} s"


def _trace() -> int:
    differ, entries = unreached()
    with open(UNREACHED, "w", encoding="utf-8") as fh:
        fh.write("# statements of src/uniqpoly that no golden run reaches;\n"
                 "# written by: python tests/test_golden.py --trace\n")
        fh.writelines(f"{module}:{line}: {text}\n"
                      for module, line, _, text, _ in entries)
    failures = gate_failures(entries)
    print(f"{len(entries)} unreached statements in {UNREACHED};"
          f" {differ} of {len(load_runs())} runs differ from their digests;"
          f" {len(failures)} gate failures")
    for failure in failures:
        print(failure)
    return 1 if failures or differ else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--regenerate", action="store_true",
                      help="rewrite every exit code and digest from the"
                           " current code")
    mode.add_argument("--trace", action="store_true",
                      help="list the statements of src/uniqpoly that no"
                           " run reaches in golden/unreached_lines.txt and"
                           " check them against EXEMPT")
    args = ap.parse_args()
    if args.regenerate:
        _regenerate()
    elif args.trace:
        sys.exit(_trace())
    else:
        ap.print_usage()
