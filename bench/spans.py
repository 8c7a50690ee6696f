"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own code, around calls into the
library's public functions: each wrapped name is patched in the module
that defines it and in every yanglab module that imported it by name
(``cli`` and ``weights`` use from-imports).  A span records its layer
name, start, end, parent span and job id; spans are kept in memory and
written out once, when the run ends.

A layer's self time is its span duration minus the part covered by its
child spans.  Work done by the tracer itself (counting multiply-adds,
for example) is charged to no layer and excluded from the parent's self
time.

Self times and counts are accumulated per "round" (one set-up or one
pass), so the run can report the median round; counts repeat exactly
from round to round.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

# (module, attribute, layer) for plain functions; every yanglab module that
# bound the same object under the same name is patched too.
FUNCTION_LAYERS = [
    ("exact", "nullspace", "exact.nullspace"),
    ("exact", "rational_roots", "exact.rational_roots"),
    ("spaces", "spinor_space", "spaces.build"),
    ("spaces", "heisenberg_space", "spaces.build"),
    ("spaces", "homogeneous_space", "spaces.build"),
    ("spaces", "gl2_chain_space", "spaces.build"),
    ("structure", "fundamental_r", "structure.r_build"),
    ("structure", "check_ybe", "structure.ybe"),
    ("lops", "opmat_mul", "lops.opmat_mul"),
    ("lops", "opmat_mul_tt", "lops.opmat_mul"),
    ("lops", "build_spinorial_linear", "lops.build"),
    ("lops", "build_heisenberg_linear", "lops.build"),
    ("lops", "build_js_quadratic", "lops.build"),
    ("lops", "build_product", "lops.build"),
    ("lops", "build_gl2_js_chain", "lops.build"),
    ("lops", "fuse_so3_from_gl2", "lops.build"),
    ("lops", "cyclic_span", "lops.cyclic_span"),
    ("lops", "restrict_to_submodule", "lops.restrict"),
    ("verify", "check_rll", "verify.rll"),
    ("verify", "check_lie", "verify.lie"),
    ("verify", "check_adjoint", "verify.adjoint"),
    ("verify", "check_symmetric_constraints", "verify.constraints"),
    ("verify", "check_linear_constraint", "verify.linear"),
    ("verify", "check_w_tensor", "verify.w"),
    ("verify", "check_chi3", "verify.chi3"),
    ("verify", "center_function", "verify.center"),
    ("weights", "weight_report", "weights.report"),
    ("weights", "find_highest_weight", "weights.find_hw"),
    ("weights", "drinfeld_test", "weights.drinfeld"),
    ("cli", "run", "cli"),
]

# (class, method, layer) in yanglab.exact
METHOD_LAYERS = [
    ("SparseOp", "__matmul__", "exact.matmul"),
    ("SparseOp", "__add__", "exact.add"),
    ("SparseOp", "scale", "exact.scale"),
    ("VectorSpan", "add", "exact.span_add"),
]

MODULES = ("exact", "structure", "spaces", "lops", "verify", "weights", "cli")

# layer -> per_layer metric names derived from it
TIME_METRICS = {
    "exact.matmul": "exact.matmul_s",
    "exact.add": "exact.add_s",
    "exact.scale": "exact.scale_s",
    "exact.nullspace": "exact.nullspace_s",
    "exact.rational_roots": "exact.rational_roots_s",
    "lops.opmat_mul": "lops.opmat_mul_s",
    "lops.build": "lops.build_s",
    "lops.cyclic_span": "lops.cyclic_span_s",
    "lops.restrict": "lops.restrict_s",
    "spaces.build": "spaces.build_s",
    "structure.r_build": "structure.r_build_s",
    "structure.ybe": "structure.ybe_s",
    "verify.rll": "verify.rll_s",
    "verify.lie": "verify.lie_s",
    "verify.adjoint": "verify.adjoint_s",
    "verify.constraints": "verify.constraints_s",
    "verify.linear": "verify.linear_s",
    "verify.w": "verify.w_s",
    "verify.chi3": "verify.chi3_s",
    "verify.center": "verify.center_s",
    "weights.report": "weights.report_s",
    "weights.find_hw": "weights.find_hw_s",
    "weights.drinfeld": "weights.drinfeld_s",
    "cli": "cli.self_s",
}
CALL_METRICS = {
    "exact.matmul": "exact.matmul_calls",
    "exact.add": "exact.add_calls",
    "exact.scale": "exact.scale_calls",
    "exact.span_add": "exact.span_add_calls",
    "lops.opmat_mul": "lops.opmat_mul_calls",
    "structure.ybe": "structure.ybe_calls",
    "verify.rll": "verify.rll_calls",
}
COUNT_METRICS = ("exact.matmul_madds", "exact.matmul_out_nnz", "exact.scalar_new",
                 "exact.span_accepted", "lops.coeff_nnz", "spaces.dim_sum",
                 "verify.safe_columns", "verify.checks_failed", "cli.report_bytes")


def _count_result(tracer, layer, result):
    """Counts read off a layer's return value (outside the timed span)."""
    if layer.startswith("verify.") and layer != "verify.center":
        report = result
    elif layer == "verify.center":
        report = result[1]
    else:
        report = None
    if report is not None:
        tracer.add("verify.safe_columns", report.details.get("safe_columns", 0))
        tracer.add("verify.checks_failed", 0 if report.passed else 1)
    elif layer == "spaces.build":
        tracer.add("spaces.dim_sum", result[0].dim)
    elif layer == "lops.build":
        lop = result[0] if isinstance(result, tuple) else result
        tracer.add("lops.coeff_nnz",
                   sum(op.nnz() for mat in lop.coeffs for op in mat.values()))
    elif layer == "exact.matmul":
        tracer.add("exact.matmul_out_nnz", result.nnz())
    elif layer == "exact.span_add":
        tracer.add("exact.span_accepted", 1 if result else 0)


def _madds(a, b):
    """Multiply-adds a sparse product a @ b computes."""
    row_len = Counter(i for i, _ in b.data)
    return sum(row_len.get(k, 0) for _, k in a.data)


class Tracer:
    """Span stack, per-round accumulators and the recorded spans."""

    def __init__(self):
        self.spans = []           # (layer, start, end, parent index, job id)
        self.stack = []           # open frames: [layer, start, child time, index]
        self.rounds = defaultdict(lambda: defaultdict(float))
        self.round = None
        self.job = -1
        self.jobs = []            # job id -> (round, job name)
        self._patched = []

    # -- bookkeeping -------------------------------------------------------

    def start_job(self, round_key, name):
        self.round = round_key
        self.jobs.append((list(round_key), name))
        self.job = len(self.jobs) - 1

    def add(self, metric, amount):
        self.rounds[self.round][metric] += amount

    def _exclude(self, seconds):
        """Charge tracer work to no layer: the open span treats it as a child's."""
        if self.stack:
            self.stack[-1][2] += seconds

    def call(self, layer, fn, args, kwargs):
        if layer == "exact.matmul":
            t0 = time.perf_counter()
            self.add("exact.matmul_madds", _madds(args[0], args[1]))
            self._exclude(time.perf_counter() - t0)
        parent = self.stack[-1][3] if self.stack else -1
        index = len(self.spans)
        self.spans.append(None)  # reserve the slot so children point at it
        frame = [layer, time.perf_counter(), 0.0, index]
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            self.spans[index] = (layer, frame[1], end, parent, self.job)
            if self.stack:
                self.stack[-1][2] += duration
            acc = self.rounds[self.round]
            acc["self:" + layer] += duration - frame[2]
            acc["calls:" + layer] += 1
        t0 = time.perf_counter()
        _count_result(self, layer, result)
        self._exclude(time.perf_counter() - t0)
        return result

    # -- patching ----------------------------------------------------------

    def install(self, package):
        """Wrap every traced function and method of the yanglab package."""
        mods = {name: getattr(package, name) for name in MODULES}
        targets = [package] + list(mods.values())
        for mod_name, attr, layer in FUNCTION_LAYERS:
            original = getattr(mods[mod_name], attr)
            wrapper = self._wrapper(layer, original)
            for mod in targets:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapper)
        exact = mods["exact"]
        for cls_name, attr, layer in METHOD_LAYERS:
            cls = getattr(exact, cls_name)
            self._set(cls, attr, self._wrapper(layer, cls.__dict__[attr]))
        scalar = exact.Scalar
        original_new = scalar.__dict__["__new__"]
        new_fn = original_new.__func__ if isinstance(original_new, staticmethod) else original_new
        tracer = self

        def counting_new(cls, p=0, q=0, r=1):
            tracer.rounds[tracer.round]["exact.scalar_new"] += 1
            return new_fn(cls, p, q, r)

        self._set(scalar, "__new__", staticmethod(counting_new))

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    def _set(self, owner, name, value):
        self._patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrapper(self, layer, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(layer, fn, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- results -----------------------------------------------------------

    def round_metrics(self, round_key) -> dict:
        """Per-layer metrics of one round."""
        acc = self.rounds.get(round_key, {})
        out = {}
        for layer, metric in TIME_METRICS.items():
            out[metric] = acc.get("self:" + layer, 0.0)
        for layer, metric in CALL_METRICS.items():
            out[metric] = int(acc.get("calls:" + layer, 0))
        for metric in COUNT_METRICS:
            out[metric] = int(acc.get(metric, 0))
        return out

    def write(self, path, header):
        """Write the header and every span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "jobs": self.jobs,
                                     "span_fields": ["layer", "start", "end",
                                                     "parent", "job"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, separators=(",", ":")) + "\n")
