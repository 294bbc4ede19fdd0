"""Golden corpus: every listed command line replays byte for byte.

``tests/golden/runs.jsonl`` holds one run per line: the argument vector
given to ``cli.main``, the exit code it returned and the sha256 of what
it wrote to stdout. A path after ``--batch`` is relative to
``tests/golden``. The corpus covers ``classify`` (JSON and text),
``witness``, ``curve`` with and without ``--c``, both batch commands,
``forms`` for every configuration up to n = 10, a few ``corollary``
rows and ``selftest --fast``, on malformed, over-cap, rational,
non-separated and out-of-scope inputs among others.

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
``import`` and ``global`` lines are left out. The list is a report for
finding dead code, not a gate: a deletion still needs a proof.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
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


def _statements(path: Path) -> list[tuple[int, int]]:
    """(first line, last line) of each statement the trace should reach."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue  # docstrings and "...": the compiler drops them
        out.append((node.lineno, node.end_lineno))
    return out


def _trace() -> None:
    global cli
    src = Path(cli.__file__).parent
    # import the package again under the trace, so that module and class
    # bodies count as reached
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
        bad = sum(replay(run["argv"]) != (run["exit"], run["sha256"])
                  for run in runs)
    finally:
        sys.settrace(None)
    entries = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        hit = {n for f, n in reached if f == str(path)}
        for first, last in sorted(set(_statements(path))):
            if hit.isdisjoint(range(first, last + 1)):
                source = text[first - 1].strip()
                entries.append(f"{path.stem}:{first}: {source}")
    with open(UNREACHED, "w", encoding="utf-8") as fh:
        fh.write("# statements of src/uniqpoly that no golden run reaches;\n"
                 "# written by: python tests/test_golden.py --trace\n")
        fh.writelines(e + "\n" for e in entries)
    print(f"{len(entries)} unreached statements in {UNREACHED};"
          f" {bad} of {len(runs)} runs differ from their digests")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--regenerate", action="store_true",
                      help="rewrite every exit code and digest from the"
                           " current code")
    mode.add_argument("--trace", action="store_true",
                      help="list the statements of src/uniqpoly that no"
                           " run reaches in golden/unreached_lines.txt")
    args = ap.parse_args()
    if args.regenerate:
        _regenerate()
    elif args.trace:
        _trace()
    else:
        ap.print_usage()
