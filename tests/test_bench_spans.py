"""Every name the benchmark's tracer wraps exists in the library, and a
traced pass runs and reports the declared per-layer metrics."""

import importlib
import importlib.util
import json
import subprocess
import sys
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


def _traced_pass(workload):
    """One traced pass of `workload`: exit 0, graded correct, and every
    declared per-layer metric reported."""
    root = SPANS.parents[1]
    run = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seconds", "0", "--trace", "1"],
                         cwd=root, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)


def test_traced_benchmark_smoke():
    # one traced pass of quadratic-rll: the tracer wraps VectorSpan.add and
    # forwards (p, q, r) into Scalar.__new__, so a change to either shows here
    _traced_pass("quadratic-rll")


def test_traced_invariants_smoke():
    # quadratic-invariants reaches opmat_mul and opmat_mul_tt through verify's
    # from-imports, which the tracer wraps with the arguments the checks pass
    _traced_pass("quadratic-invariants")
