"""Self-checks of the benchmark harness.

    python3 perfbench/selfcheck.py

Checks that the tracer puts every function it wraps back, that inputs
depend on the seed and only on it, that times are taken per input and
divided by the speed factor, and that the workload and metric names the
harness prints are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import unittest

import gen
import run
import spans


def setUpModule() -> None:
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)


class TracerRestores(unittest.TestCase):
    def test_wrappers_restore_the_originals(self):
        api = run.Api()
        originals = [
            (importlib.import_module(f"uniqpoly.{mod}"), attr)
            for mod, attr, _, _ in spans.WRAPS
        ]
        before = [getattr(m, a) for m, a in originals]
        tracer = spans.Tracer().install()
        try:
            for (m, a), f in zip(originals, before):
                self.assertIsNot(getattr(m, a), f, f"{m.__name__}.{a}")
            run._library_pass(api, [gen.Item("X^5 + X^2 + 1", "t", 5,
                                             frozenset())], run.Measured())
        finally:
            tracer.restore()
        for (m, a), f in zip(originals, before):
            self.assertIs(getattr(m, a), f, f"{m.__name__}.{a}")
        labels = {s.label for s in tracer.spans}
        self.assertIn("classify.classify", labels)
        self.assertIn("polynomials.separation_gcd", labels)

    def test_self_time_counts_overlapping_children_once(self):
        parent = spans.Span("p", None, False)
        parent.start, parent.end = 0.0, 10.0
        kids = []
        for lo, hi in ((1.0, 4.0), (2.0, 5.0), (8.0, 9.0)):
            k = spans.Span("k", parent, False)
            k.start, k.end = lo, hi
            kids.append(k)
        summary = spans.Summary([parent, *kids])
        self.assertAlmostEqual(summary.self_time("p"), 10.0 - 4.0 - 1.0)


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for name, w in run.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(w.inputs(7), w.inputs(7))
                self.assertNotEqual([i.text for i in w.inputs(7)],
                                    [i.text for i in w.inputs(8)])


class Times(unittest.TestCase):
    def test_each_input_takes_its_median_corrected_time(self):
        m = run.Measured([run.Outcome(0, 0.2, "{}", factor=2.0),
                          run.Outcome(0, 0.9, "{}", factor=3.0),
                          run.Outcome(0, 0.15, "{}", factor=0.5),
                          run.Outcome(1, 0.4, "{}", factor=1.0),
                          run.Outcome(2, 0.6, None, "raised", factor=1.0)])
        for got, want in ((run.input_times(m), [0.3, 0.4]),
                          (run.input_times(m, corrected=False), [0.2, 0.4])):
            for g, w in zip(got, want, strict=True):
                self.assertAlmostEqual(g, w)
        self.assertAlmostEqual(run.throughput(m, concurrent=False), 2 / 0.7)
        self.assertAlmostEqual(run.throughput(m, concurrent=True), 2 / 0.4)


class Names(unittest.TestCase):
    def test_workloads_are_the_declared_ones(self):
        self.assertEqual([w["name"] for w in run.manifest()["workloads"]],
                         list(run.WORKLOADS))

    def test_printed_metrics_are_the_declared_ones(self):
        m = run.Measured(
            [run.Outcome(i, 0.001 * (i + 1), "{}") for i in range(20)],
            elapsed=1.0, passes=1)
        e2e, _ = run.end_to_end(0.1, m, 1024, False)
        self.assertEqual(list(e2e), list(run.units("end_to_end")))
        layers = spans.layer_metrics(spans.Summary([]), 1, 0.0, 1.0)
        self.assertEqual(list(layers), list(run.units("per_layer")))


if __name__ == "__main__":
    unittest.main()
