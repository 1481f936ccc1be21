"""The benchmark traces package functions by (module, attribute); a name it
cannot resolve is skipped silently and its per-layer metric disappears."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = {**tracing.SPANS, **tracing.COUNTERS}
    assert names
    missing = [
        name for name, (home, attr) in names.items()
        if not callable(getattr(importlib.import_module(f"dgml.{home}"), attr, None))
    ]
    assert missing == []
