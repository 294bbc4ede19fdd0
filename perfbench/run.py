"""Benchmark of the uniqpoly package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                  # every workload, untraced and traced
    python3 perfbench/run.py --write-digests  # regenerate digests.json

Run from the root of a checkout; the package is imported from ``src/``
there and nowhere else. Workload and metric names and units come from
``BENCHMARK.json`` beside it. One process drives one input at a time (a
closed loop with one client), over whole passes of the workload's
inputs, as many as end within ``--seconds``. batch_small hands a whole
file to ``cli.main``, whose own thread pool runs as it does for users.

The speed of a shared virtual machine changes by a factor of up to two,
in stretches from a fraction of a second to minutes, so every time is
divided by the speed factor of ``speed.py``: for an input handed over
alone, the geometric mean of the readings just before and just after
it; for a set-up, the reading just before it; for batch_small, whose
batches run on a thread pool and are long enough for the speed to
change within them, the mean of all the run's readings of
``speed.threaded_factor``. Times are thus those of the machine
``speed.NOMINAL`` was taken on, in a fast stretch. Each input's time is
the median of its times over the run's passes (for batch_small, each
line's time from the start of its batch). ``throughput_per_s`` is the inputs per second of
those times, ``latency_p50_ms`` and ``latency_tail_ms`` are their median
and 90th percentile over the inputs, and ``setup_s`` is the median of
several set-ups. The uncorrected figures are printed beside them.

A single run prints its figures by name and unit, then, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of ``spans.py`` with ``--trace 1``. An input
fails when it raises, exceeds the curve_census time limit, or fails a
check of ``checks.py``; ``correct`` is false when any output is wrong.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import checks
import gen
import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
BATCH_FILE = os.path.join(WORK, "batch_small.txt")


DEFAULT_SEED = 0
SETUP_REPEATS = 7
DEGREE_CAP = 64
# per-input limit on curve_census; at the commit that defined the
# benchmark every input of its corpus finished within 0.2 s or ran past
# 1.5 s, whatever the seed, so the limit sits about a factor of 2.5
# clear of both
CURVE_LIMIT_S = 0.6
# the percentile of the inputs' best times reported as latency_tail_ms
TAIL_PERCENT = 90
LADDER_MARKS = (16, 24, 32)
WARMUP_TEXT = "X^5 - 3*X^2 + X + 1"
# threaded speed readings before each batch of batch_small
BATCH_READINGS = 2


@functools.cache
def manifest() -> dict:
    """``BENCHMARK.json``, which names the workloads and the metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def units(kind: str) -> dict[str, str]:
    """Unit of each ``end_to_end`` or ``per_layer`` metric, by name."""
    return {m["name"]: m["unit"] for m in manifest()[kind]}


class Timeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program
    mistakes it for a failed polynomial."""


def _alarm(signum, frame):
    raise Timeout()


class Api:
    """The package's modules, imported afresh from ``src/``.

    The workloads look functions up on these modules at call time, so
    the tracer's rebinding is seen.
    """

    def __init__(self) -> None:
        for name in [m for m in sys.modules
                     if m == "uniqpoly" or m.startswith("uniqpoly.")]:
            del sys.modules[name]
        load = importlib.import_module
        self.cli = load("uniqpoly.cli")
        self.parser = load("uniqpoly.parser")
        self.classify = load("uniqpoly.classify")
        self.report = load("uniqpoly.report")
        if not self.cli.__file__.startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: uniqpoly imported from "
                             f"{self.cli.__file__}, not from {SRC}")


@dataclass
class Outcome:
    index: int  # position of the input in the workload's list
    seconds: float  # handed over until the report is written
    text: Optional[str]  # the report, None when the input raised
    problem: Optional[str] = None  # set by a failed check or a raise
    timed_out: bool = False
    # speed factor while it ran: the geometric mean of speed.factor()
    # read just before and just after it
    factor: float = 1.0


@dataclass
class Measured:
    outcomes: list[Outcome] = field(default_factory=list)
    elapsed: float = 0.0
    passes: int = 0
    waited: float = 0.0  # seconds spent on inputs that hit a time limit
    batch_codes: list[int] = field(default_factory=list)  # batch_small
    readings: list[float] = field(default_factory=list)  # batch_small


# a pass hands every input of the workload to the program once and
# appends one Outcome per input


def _stamp_speed(o: Outcome, f_before: float) -> float:
    """Give ``o`` the speed factor of its interval from the reading
    taken before it and one taken now; returns the latter, which is
    also the reading before the next input."""
    f_after = speed.factor()
    o.factor = math.sqrt(f_before * f_after)
    return f_after


def _library_pass(api: Api, items: list, m: Measured) -> None:
    """parse_poly -> classify -> consistency_audit -> classify_report ->
    dumps_line, one input at a time."""
    out = m.outcomes
    f = speed.factor()
    for i, item in enumerate(items):
        t0 = time.perf_counter()
        try:
            p = api.parser.parse_poly(item.text, degree_cap=DEGREE_CAP)
            verdict = api.classify.classify(p, degree_cap=DEGREE_CAP)
            audit = api.classify.consistency_audit(p, verdict)
            rep = api.report.classify_report(item.text, p, verdict, audit)
            line = api.report.dumps_line(rep)
        except Exception as exc:
            out.append(Outcome(i, time.perf_counter() - t0, None,
                               f"raised {type(exc).__name__}: {exc}"))
        else:
            out.append(Outcome(i, time.perf_counter() - t0, line))
        f = _stamp_speed(out[-1], f)


def _curve_pass(api: Api, items: list, m: Measured) -> None:
    """``uniqpoly curve P --c C`` in-process, under a time limit."""
    out = m.outcomes
    f = speed.factor()
    for i, item in enumerate(items):
        buf = io.StringIO()
        argv = ["curve", f"--c={item.c}", "--", item.text]
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, CURVE_LIMIT_S)
            try:
                with contextlib.redirect_stdout(buf):
                    code = api.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Timeout:
            out.append(Outcome(i, time.perf_counter() - t0, None,
                               f"no report within {CURVE_LIMIT_S} s",
                               timed_out=True))
        except Exception as exc:
            out.append(Outcome(i, time.perf_counter() - t0, None,
                               f"raised {type(exc).__name__}: {exc}"))
        else:
            seconds = time.perf_counter() - t0
            problem = None if code == 0 else f"exit code {code}"
            out.append(Outcome(i, seconds, buf.getvalue().removesuffix("\n"),
                               problem))
        f = _stamp_speed(out[-1], f)


class _LineSink:
    """Stands in for stdout and stamps each line as it is written."""

    def __init__(self) -> None:
        self.lines: list[tuple[float, str]] = []
        self._part = ""

    def write(self, s: str) -> int:
        self._part += s
        while "\n" in self._part:
            line, self._part = self._part.split("\n", 1)
            self.lines.append((time.perf_counter(), line))
        return len(s)

    def flush(self) -> None:
        pass


def _write_batch(items: list, path: str) -> str:
    os.makedirs(WORK, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(item.text + "\n" for item in items)
    return path


def _batch_run(api: Api, path: str) -> tuple[float, int, list]:
    sink = _LineSink()
    saved = sys.stdout
    t0 = time.perf_counter()
    sys.stdout = sink
    try:
        code = api.cli.main(["classify", "--batch", path])
    finally:
        sys.stdout = saved
    return t0, code, sink.lines


def _batch_pass(api: Api, items: list, m: Measured) -> None:
    """``uniqpoly classify --batch FILE`` in-process; every line counts
    from the start of the batch."""
    m.readings += [speed.threaded_factor() for _ in range(BATCH_READINGS)]
    t0, code, lines = _batch_run(api, BATCH_FILE)
    m.batch_codes.append(code)
    if len(lines) != len(items):
        m.outcomes += [
            Outcome(i, time.perf_counter() - t0, None,
                    f"batch wrote {len(lines)} lines for {len(items)}")
            for i in range(len(items))]
        return
    m.outcomes += [Outcome(i, stamp - t0, text)
                   for i, (stamp, text) in enumerate(lines)]


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], list]
    one_pass: Callable[[Api, list, Measured], None]
    warm_up: Callable[[Api], None]
    # the inputs run concurrently, on a thread pool, inside one call of a
    # second or more: their times overlap, so throughput is taken from
    # the slowest line's; the speed of the machine changes several times
    # within the call, so the times are divided by the mean of all the
    # run's speed readings rather than by readings next to them; and
    # those readings are speed.threaded_factor()'s
    concurrent: bool = False


def _warm_library(api: Api) -> None:
    _library_pass(api, [gen.Item(WARMUP_TEXT, "warmup", 5, frozenset())],
                  Measured())


def _warm_curve(api: Api) -> None:
    item = gen.Item(WARMUP_TEXT, "warmup", 5, frozenset(), "2")
    _curve_pass(api, [item], Measured())


def _warm_batch(api: Api) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        api.cli.main(["classify", "--batch", _write_batch(
            [gen.Item(WARMUP_TEXT, "warmup", 5, frozenset())],
            os.path.join(WORK, "warmup.txt"))])


WORKLOADS = {
    "batch_small": Workload(gen.batch_small, _batch_pass, _warm_batch,
                            concurrent=True),
    "degree_ladder": Workload(gen.degree_ladder, _library_pass,
                              _warm_library),
    "curve_census": Workload(gen.curve_census, _curve_pass, _warm_curve),
}


def set_up(name: str, seed: int) -> tuple[float, Api, list]:
    """Import the package, make the inputs, warm up; returns the time,
    divided by the speed factor."""
    f = speed.factor()
    t0 = time.perf_counter()
    api = Api()
    items = WORKLOADS[name].inputs(seed)
    if name == "batch_small":
        _write_batch(items, BATCH_FILE)
    WORKLOADS[name].warm_up(api)
    return (time.perf_counter() - t0) / f, api, items


def measure(name: str, api: Api, items: list, seconds: float) -> Measured:
    """Whole passes for ``seconds``: a pass starts only when one as long
    as the longest so far still ends in time, and at least one runs."""
    w = WORKLOADS[name]
    m = Measured()
    t0 = time.perf_counter()
    longest = 0.0
    while m.passes == 0 or time.perf_counter() + longest <= t0 + seconds:
        start = time.perf_counter()
        w.one_pass(api, items, m)
        longest = max(longest, time.perf_counter() - start)
        m.passes += 1
    m.elapsed = time.perf_counter() - t0
    m.waited = sum(o.seconds for o in m.outcomes if o.timed_out)
    if w.concurrent:
        f = statistics.fmean(m.readings)
        for o in m.outcomes:
            o.factor = f
    return m


def check(name: str, seed: int, items: list, m: Measured) -> tuple[bool, dict]:
    """Check every report; returns (correct, parsed first-pass reports).

    Each input is checked once, on its first report; later passes must
    repeat that report byte for byte.
    """
    checker = checks.Checker(SRC)
    digests = checks.load_digests(name) if seed == DEFAULT_SEED else None
    first: dict[int, Outcome] = {}
    reports: dict[int, dict] = {}
    correct = True
    for o in m.outcomes:
        if o.text is None:
            if not o.timed_out:
                correct = False
            continue
        seen = first.setdefault(o.index, o)
        if seen is not o:
            if o.text != seen.text:
                o.problem = o.problem or "report differs from the first pass"
            continue
        problem, rep = checker.report(items[o.index], o.text)
        reports[o.index] = rep
        if problem is None and digests is not None:
            want = digests[o.index]
            if want is not None and checks.digest(o.text) != want:
                problem = "report digest differs from digests.json"
        if problem is None and name == "degree_ladder":
            problem = checks.sympy_profile(items[o.index], rep)
        o.problem = o.problem or problem
    # the batch's exit code is the worst of its lines'
    for k, code in enumerate(m.batch_codes):
        lines = m.outcomes[k * len(items):(k + 1) * len(items)]
        if any(o.text is None for o in lines):
            continue
        want = max(checks.exit_code(json.loads(o.text)) for o in lines)
        if code != want:
            for o in lines:
                o.problem = f"batch exit code {code}, its lines imply {want}"
    # an input whose first report failed fails on every pass
    bad = {i for i, o in first.items() if o.problem}
    for o in m.outcomes:
        if o.index in bad and not o.problem:
            o.problem = first[o.index].problem
        if o.problem and not o.timed_out:
            correct = False
    return correct, reports


def per_input(m: Measured, corrected: bool = True) -> dict[int, float]:
    """Each input's median time over the passes, divided by the speed
    factor unless ``corrected`` is false, for the inputs whose reports
    all passed their checks."""
    times: dict[int, list[float]] = {}
    bad = {o.index for o in m.outcomes if o.problem}
    for o in m.outcomes:
        if o.index not in bad:
            times.setdefault(o.index, []).append(
                o.seconds / o.factor if corrected else o.seconds)
    if not times:
        raise SystemExit("perfbench: no input passed its checks")
    return {i: statistics.median(ts) for i, ts in times.items()}


def input_times(m: Measured, corrected: bool = True) -> list[float]:
    """``per_input``'s times, sorted."""
    return sorted(per_input(m, corrected).values())


def throughput(m: Measured, concurrent: bool, corrected: bool = True) -> float:
    """Inputs per second at their median times.

    Inputs that hit a time limit count in ``failed`` and are left out,
    so their fixed wait does not dilute the time of the inputs that
    finish. On a concurrent workload the times run from the start of
    the batch, and the slowest line's is the time for all of them.
    """
    times = input_times(m, corrected)
    return len(times) / (times[-1] if concurrent else sum(times))


def _percentile(ordered: list[float], percent: float) -> float:
    """Nearest-rank percentile of sorted values."""
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def end_to_end(setup_s: float, m: Measured, rss_kib: int,
               concurrent: bool) -> tuple[dict, list]:
    times = input_times(m)
    values = {
        "setup_s": setup_s,
        "throughput_per_s": throughput(m, concurrent),
        "latency_p50_ms": 1000 * statistics.median(times),
        "latency_tail_ms": 1000 * _percentile(times, TAIL_PERCENT),
        "peak_rss_mib": rss_kib / 1024,
    }
    beyond = len(times) - math.ceil(TAIL_PERCENT / 100 * len(times))
    raw = input_times(m, corrected=False)
    notes = [f"latency_* are over the median times of {len(times)} inputs;"
             f" latency_tail_ms is their p{TAIL_PERCENT}, {beyond} beyond it",
             f"speed factor {statistics.median(o.factor for o in m.outcomes):.3f}"
             f" (median); uncorrected: throughput_per_s"
             f" {throughput(m, concurrent, False):.4g},"
             f" latency_p50_ms {1000 * statistics.median(raw):.4g},"
             f" latency_tail_ms {1000 * _percentile(raw, TAIL_PERCENT):.4g}"]
    if concurrent and 0 in per_input(m):
        notes.append(f"first_line_s {per_input(m)[0]:.4f} s")
    return values, notes


def ladder_marks(items: list, m: Measured) -> list[str]:
    """Median corrected latency at the marked degrees of degree_ladder."""
    notes = []
    for deg in LADDER_MARKS:
        lat = [o.seconds / o.factor for o in m.outcomes
               if items[o.index].degree == deg and not o.problem]
        if lat:
            notes.append(f"deg{deg}_ms {1000 * statistics.median(lat):.4f}"
                         f" ms (median of {len(lat)})")
    return notes


def slots_decided_share(reports: dict) -> float:
    verdicts = [r["verdict"] for r in reports.values() if "verdict" in r]
    if not verdicts:
        return 0.0
    decided = sum(v != "out_of_scope" for vs in verdicts for v in vs.values())
    return decided / (4 * len(verdicts))


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    signal.signal(signal.SIGALRM, _alarm)
    concurrent = WORKLOADS[name].concurrent
    if traced:
        _, api, items = set_up(name, seed)
        tracer = spans.Tracer().install()
        try:
            m = measure(name, api, items, seconds)
        finally:
            tracer.restore()
    else:
        setups = []
        for _ in range(SETUP_REPEATS):
            setup_s, api, items = set_up(name, seed)
            setups.append(setup_s)
        setup_s = statistics.median(setups)
        m = measure(name, api, items, seconds)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    correct, reports = check(name, seed, items, m)
    failed = sum(1 for o in m.outcomes if o.problem)
    print(f"{name} seed {seed} trace {int(traced)}: {len(m.outcomes)} inputs"
          f" in {m.passes} passes, {m.elapsed:.2f} s")
    notes = [f"failed_share {failed / len(m.outcomes):.4f}"
             f" ({failed} of {len(m.outcomes)})"]
    if m.waited:
        notes.append(f"{m.waited:.2f} s of the run waited for the"
                     f" {CURVE_LIMIT_S} s limit")
    if traced:
        summary = spans.Summary(tracer.spans)
        values = spans.layer_metrics(summary, len(m.outcomes),
                                     slots_decided_share(reports),
                                     throughput(m, concurrent))
        unit_of = units("per_layer")
        calls = summary.count("classify.classify")
        if calls:
            notes.append(f"index_data calls per classify call"
                         f" {summary.count('criteria.index_data') / calls:.3f}")
    else:
        values, more = end_to_end(setup_s, m, rss_kib, concurrent)
        notes += more
        if name == "degree_ladder":
            notes += ladder_marks(items, m)
        unit_of = units("end_to_end")
    for n, v in values.items():
        print(f"  {n:36s} {v:.6g} {unit_of[n]}")
    for note in notes:
        print(f"  {note}")
    problems = sorted({o.problem for o in m.outcomes if o.problem})
    for problem in problems[:5]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(m.outcomes),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit_of[n]}
                    for n, v in values.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced, then traced, each in its own process."""
    status = 0
    results: dict[tuple[str, int], dict] = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not proc.stdout.strip():
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results[(name, trace)] = result
            status |= not result["correct"]
    print("tracing overhead (traced / untraced throughput_per_s):")
    for name in WORKLOADS:
        if (name, 0) in results and (name, 1) in results:
            plain = results[(name, 0)]["metrics"]["throughput_per_s"]["value"]
            traced = results[(name, 1)]["metrics"]["traced_throughput_per_s"]
            print(f"  {name:18s} {traced['value'] / plain:.3f}")
    ladder = results.get(("degree_ladder", 1))
    if ladder:
        cover = ladder["metrics"]["classify.child_cover_share"]["value"]
        verdict = "ok" if cover >= 0.5 else "FAILED"
        print(f"child spans cover {cover:.3f} of classify.classify_s on"
              f" degree_ladder: {verdict}")
        status |= cover < 0.5
    return int(status)


def write_digests() -> int:
    """One pass of every workload at the default seed; a timed-out
    input gets no digest."""
    signal.signal(signal.SIGALRM, _alarm)
    out = {}
    for name in WORKLOADS:
        _, api, items = set_up(name, DEFAULT_SEED)
        m = Measured()
        WORKLOADS[name].one_pass(api, items, m)
        out[name] = [None if o.text is None else checks.digest(o.text)
                     for o in m.outcomes]
    with open(checks.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=0)
        fh.write("\n")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"],
                    default="all")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=manifest()["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "uniqpoly", "__init__.py")):
        sys.stderr.write(f"perfbench: no package at {SRC}/uniqpoly; run"
                         " from the root of a uniqpoly checkout\n")
        return 2
    sys.path.insert(0, SRC)
    if args.write_digests:
        return write_digests()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
