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
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import time
from pathlib import Path

from uniqpoly import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = GOLDEN / "runs.jsonl"


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


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--regenerate", action="store_true",
                    help="rewrite every exit code and digest from the"
                         " current code")
    if ap.parse_args().regenerate:
        _regenerate()
    else:
        ap.print_usage()
