"""The benchmark's tracer (``perfbench/spans.py``) reads its per-layer
metrics from named prtrack functions.  Entering it here makes a rename or a
deletion of one of them fail the unit tests, not only a traced benchmark
run."""

import importlib.util
import sys
from pathlib import Path

import prtrack.cli  # noqa: F401  (loads every prtrack module)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return {name: dict(vars(m)) for name, m in sys.modules.items()
            if name == "prtrack" or name.startswith("prtrack.")}


def test_tracer_finds_every_traced_function():
    spans = _load_spans()
    before = _namespaces()
    with spans.Tracer() as tracer:     # raises TracerError on a missing name
        pass
    assert tracer.spans == []
    assert _namespaces() == before     # every wrapper was taken out again
