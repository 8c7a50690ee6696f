"""One pass of each benchmark workload, graded by the benchmark's oracle."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import yanglab
import yanglab.cli  # noqa: F401  (imports every module the workloads call)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_run():
    """bench/run.py as a module; it imports oracle, spans and workloads from bench/."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


RUN = _bench_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_workload_pass_graded_correct(name):
    # graded after the whole pass: center's decomposition predicate reads the
    # constraints job of the same pass; known defects are allowed, as in error_rate
    workload = RUN.WORKLOADS[name]
    state = None if workload.setup_in_cli else workload.setup(yanglab)
    jobs = workload.jobs(yanglab, state, random.Random(1))
    _, _, outcomes = RUN.run_pass(jobs, None, None)
    assert RUN.grade(jobs, outcomes)[0] == 0
