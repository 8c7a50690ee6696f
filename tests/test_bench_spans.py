"""Every name the benchmark's tracer wraps exists in the library."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _tracer_tables():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FUNCTION_LAYERS, module.METHOD_LAYERS


def test_traced_names_exist():
    functions, methods = _tracer_tables()
    assert functions and methods
    for module_name, attr, _ in functions:
        module = importlib.import_module(f"yanglab.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    for class_name, attr, _ in methods:
        # the tracer patches the class's own attribute, not an inherited one
        cls = getattr(importlib.import_module("yanglab.exact"), class_name)
        assert attr in vars(cls), f"{class_name}.{attr}"
