"""The benchmark's tracer rebinds module-level names of the package; every
name it wraps must still exist, or a traced run fails on a deletion."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPS
    for module, attr, _label, _measure in spans.WRAPS:
        mod = importlib.import_module(f"uniqpoly.{module}")
        assert callable(getattr(mod, attr, None)), f"uniqpoly.{module}.{attr}"
