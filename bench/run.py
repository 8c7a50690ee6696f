"""yanglab benchmark: time to an exact verdict, per workload.

Usage (from the root of a checkout):

    python3 bench/run.py --workload quadratic-rll --seed 1 --seconds 20 --trace 0

One client in one process, no threads: jobs run back to back (a closed
loop).  The run builds every operator and R-matrix first (set-up), then
repeats full passes over the workload's jobs until --seconds have gone,
checks every verdict against the oracle and prints a summary followed by
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 wraps the library's
public functions in spans, reports the per-layer metrics and writes the
spans to bench/out/.  The library is imported from src/ of the checkout
and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle as O
from spans import Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, report_bytes

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_REPEATS = 9
IMPORT_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import yanglab, yanglab.cli\n"
    "print(time.perf_counter() - t)\n"
)


def load_library():
    """Import yanglab from this checkout's src/, or exit with a message (code 1)."""
    if not (SRC / "yanglab" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {SRC / 'yanglab'}")
    sys.path.insert(0, str(SRC))
    import yanglab
    import yanglab.cli  # noqa: F401  (imports every module)

    if Path(yanglab.__file__).resolve().parent != (SRC / "yanglab").resolve():
        sys.exit(f"bench: yanglab was imported from {yanglab.__file__}, not {SRC}")
    return yanglab


def import_seconds() -> float:
    """Median time to import the whole library in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(done.stdout.strip()))
    return statistics.median(samples)


def describe(samples) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    data = sorted(samples)
    n = len(data)
    text = f"median {statistics.median(data):.4f} s"
    for p in (99.9, 99, 95, 90, 75):
        value = data[max(0, math.ceil(p / 100 * n) - 1)]
        if sum(1 for x in data if x > value) >= 10:
            return f"{text}, p{p:g} {value:.4f} s, n={n}"
    return f"{text}, n={n} (too few for a tail percentile)"


def run_pass(jobs, tracer, round_key):
    """Run every job once; returns (wall seconds, job seconds, outcomes)."""
    times, outcomes = [], []
    started = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.start_job(round_key, job.name)
        t0 = time.perf_counter()
        try:
            outcome = job.run()
        except Exception as exc:  # a crash is a verdict too; the oracle grades it
            outcome = {"raised": type(exc).__name__, "message": str(exc)}
        times.append(time.perf_counter() - t0)
        outcomes.append(outcome)
    return time.perf_counter() - started, times, outcomes


def grade(jobs, outcomes):
    """Returns (failed, known defects shown) for one pass."""
    failed, known = 0, []
    for job, outcome in zip(jobs, outcomes):
        if job.shows_defect is not None and job.shows_defect(outcome):
            known.append(job.defect)
            continue
        problems = O.mismatches(job.expect, outcome)
        if "raised" in outcome:
            problems.insert(0, f"raised {outcome['raised']}: {outcome['message']}")
        if problems:
            failed += 1
            print(f"WRONG {job.name}: " + "; ".join(problems))
    return failed, known


@dataclass
class Passes:
    """What the measured passes of one run saw."""

    walls: list = field(default_factory=list)
    slowest: list = field(default_factory=list)
    job_times: dict = field(default_factory=dict)
    construct: list = field(default_factory=list)  # cli construct seconds per pass
    attempted: int = 0
    failed: int = 0
    known: list = field(default_factory=list)      # names of known defects shown


def set_up(workload, yl, tracer):
    """Build every operator and R-matrix several times; returns (seconds, state)."""
    samples, state = [], None
    if workload.setup_in_cli:
        return samples, state
    if tracer is not None:
        tracer.install(yl)
    for k in range(SETUP_REPEATS):
        if tracer is not None:
            tracer.start_job(("setup", k), "setup")
        t0 = time.perf_counter()
        state = workload.setup(yl)
        samples.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    return samples, state


def measure(jobs, seconds, tracer) -> Passes:
    """Full passes over the jobs until `seconds` have gone, at least one."""
    seen = Passes()
    started = time.perf_counter()
    while not seen.walls or time.perf_counter() - started < seconds:
        wall, times, outcomes = run_pass(jobs, tracer, ("pass", len(seen.walls)))
        seen.walls.append(wall)
        seen.slowest.append(max(times))
        for job, t in zip(jobs, times):
            seen.job_times.setdefault(job.name, []).append(t)
        seen.construct.append(sum(o.get("construct_s", 0.0) for o in outcomes))
        if tracer is not None:
            tracer.add("cli.report_bytes", sum(report_bytes(o) for o in outcomes))
        bad, shown = grade(jobs, outcomes)
        seen.attempted += len(jobs)
        seen.failed += bad
        seen.known.extend(shown)
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    yl = load_library()
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    import_s = import_seconds()
    build_samples, state = set_up(workload, yl, tracer)
    jobs = workload.jobs(yl, state, random.Random(args.seed))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {len(jobs)} jobs per pass")

    if tracer is None:
        seen = measure(jobs, args.seconds, None)
    else:
        untraced, _, outcomes = run_pass(jobs, None, None)  # for the tracing overhead
        grade(jobs, outcomes)
        tracer.install(yl)
        try:
            seen = measure(jobs, args.seconds, tracer)
        finally:
            tracer.uninstall()

    builds = seen.construct if workload.setup_in_cli else build_samples
    setup_s = import_s + statistics.median(builds)
    error_rate = (seen.failed + len(seen.known)) / seen.attempted
    print(f"setup_s: import {import_s:.4f} s (median of {SETUP_REPEATS} interpreters) + "
          f"build {statistics.median(builds):.4f} s (median of {len(builds)})")
    print(f"wall_s per pass: {describe(seen.walls)}; passes "
          + ", ".join(f"{w:.3f}" for w in seen.walls))
    print(f"job latency: {describe([t for ts in seen.job_times.values() for t in ts])}")
    ranked = sorted(seen.job_times.items(), key=lambda kv: -statistics.median(kv[1]))
    print("slowest jobs: " + ", ".join(f"{name} {statistics.median(ts):.3f} s"
                                      for name, ts in ranked[:5]))
    print(f"known defects shown: {len(seen.known)} in {seen.attempted} jobs "
          f"(error_rate {error_rate:.4f})")
    for name in sorted(set(seen.known)):
        print(f"  {name}: {KNOWN_DEFECTS[name]}")
    print(f"correct: {seen.failed == 0}, attempted {seen.attempted}, failed {seen.failed}")

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(seen.walls), "s"),
            "setup_s": (setup_s, "s"),
            "slowest_job_s": (statistics.median(seen.slowest), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, len(build_samples), len(seen.walls))
        traced = statistics.median(seen.walls)
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        metrics["error_rate"] = (error_rate, "ratio")
        print(f"tracing overhead: {traced - untraced:.4f} s per pass (traced median "
              f"{traced:.4f} s - untraced {untraced:.4f} s)")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": workload.name, "seed": args.seed,
                            "metrics": {k: v for k, (v, _) in metrics.items()}})
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": seen.failed == 0,
        "attempted": seen.attempted,
        "failed": seen.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def layer_metrics(tracer, setups, passes) -> dict:
    """Median set-up round plus median pass, for every per-layer metric."""
    per_round = [tracer.round_metrics(("setup", k)) for k in range(setups)]
    per_pass = [tracer.round_metrics(("pass", k)) for k in range(passes)]
    out = {}
    for name in per_pass[0]:
        # counts repeat exactly from round to round; median_low keeps them whole
        median = statistics.median if name.endswith("_s") else statistics.median_low
        value = median([r[name] for r in per_pass])
        if per_round:
            value += median([r[name] for r in per_round])
        out[name] = value
    attempts = out.pop("exact.span_add_calls")
    accepted = out.pop("exact.span_accepted")
    out["exact.span_add_calls"] = attempts
    out["exact.span_accept_ratio"] = accepted / attempts if attempts else 0.0
    units = {}
    for name in out:
        units[name] = "s" if name.endswith("_s") else "count"
    units["exact.span_accept_ratio"] = "ratio"
    units["cli.report_bytes"] = "bytes"
    return {name: (value, units[name]) for name, value in out.items()}


if __name__ == "__main__":
    sys.exit(main())
