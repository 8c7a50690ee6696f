"""The benchmark's three workloads, their jobs and each job's expected verdict.

A job is one verdict: a callable returning an outcome (a JSON-like dict),
the expectations the oracle holds it to, and, for the jobs that show a
known defect of the program, the defect's name and a test that tells
whether the defect showed.  Jobs only call the library's public
functions; the paper sweep goes through ``cli.run`` with ``jobs=1``.

The seed picks the job order and, in the paper sweep, the rational
parameters (Heisenberg l, product delta, gl(2) and fused chain points).
Every pool holds only values on which each identity and verdict holds,
so another seed gives the same verdicts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle as O

# Known defects of the program, kept in the workloads on purpose and counted
# in error_rate rather than in `failed`.
KNOWN_DEFECTS = {
    "vacuous-pass-trunc1":
        "a corrupted sp(4) spinor operator (G scaled by 3) passes lie and rll "
        "at trunc=1, where the safe subspace is empty (safe_columns 0)",
    "so3-js-2l3-keyerror":
        "`yanglab all --family so --m 1 --odd --op js --twoL 3` raises KeyError "
        "at cli.py:146: the hw vector is looked up in the layer from before the "
        "restriction to the cyclic module; the quadratic workloads therefore "
        "build JS 2l=3 with build_js_quadratic and use lop.hw_vector",
}


@dataclass
class Job:
    name: str
    run: Callable[[], dict]
    expect: dict
    defect: str | None = None
    shows_defect: Callable[[dict], bool] | None = None


@dataclass
class Workload:
    name: str
    setup: Callable[[object], object]          # yanglab modules -> built state
    jobs: Callable[[object, object, random.Random], list]
    setup_in_cli: bool = False                 # set-up is cli's construct stage


# ---------------------------------------------------------------------------
# shared pieces


def _no_h(yl, lop):
    """The JS operator with H dropped: the quadratic truncation breaks."""
    return yl.lops.LOperator(lop.case, lop.space, [{}, lop.g_mat, lop.coeffs[2]],
                             entry_budget=0, kind="js_no_h")


def _corrupted_spinor(yl, trunc):
    """sp(4) spinor operator with G scaled by 3: every identity must fail."""
    lop = yl.lops.build_spinorial_linear(yl.structure.make_case("sp", 2), trunc=trunc)
    return yl.lops.LOperator(lop.case, lop.space,
                             [yl.lops.opmat_scale(lop.coeffs[0], 3), lop.coeffs[1]],
                             entry_budget=lop.entry_budget, kind="spinor_corrupted")


def _roots_expect(prefix: str, ratios: list) -> dict:
    out = {f"{prefix}.exists": True}
    for i, want in enumerate(ratios):
        out[f"{prefix}.ratios.{i}.exists"] = True
        out[f"{prefix}.ratios.{i}.roots"] = want
    return out


# ---------------------------------------------------------------------------
# quadratic-rll


RLL_INSTANCES = [  # name, family, m, 2l (None: spinor)
    ("js-so5-2l2", "so_odd", 2, 2),
    ("js-so6-2l2", "so_even", 3, 2),
    ("js-so5-2l3-cyclic", "so_odd", 2, 3),
    ("spinor-so7", "so_odd", 3, None),
]

NO_H_SO5 = {  # pinned counterexample of the JS so(5) 2l=2 operator without H
    "rll.counterexample.at": "((-2, -2, (1, 0, 0, 0, 1)), (-2, 2, (2, 0, 0, 0, 0)))",
    "rll.counterexample.residual": {"1,2": "6/1", "2,1": "-6/1"},
}


def _setup_rll(yl):
    make_case = yl.structure.make_case
    ops = {}
    for name, family, m, two_l in RLL_INSTANCES:
        case = make_case(family, m)
        if two_l is None:
            ops[name] = yl.lops.build_spinorial_linear(case)
        else:
            ops[name] = yl.lops.build_js_quadratic(case, two_l)
    ops["js-so5-2l2-no-h"] = _no_h(yl, ops["js-so5-2l2"])
    r_mats = [yl.structure.fundamental_r(make_case(family, m))
              for family, m in sorted({(f, m) for _, f, m, _ in RLL_INSTANCES})]
    return ops, r_mats


def _jobs_rll(yl, state, rng):
    ops, _ = state
    jobs = []
    for name, family, m, two_l in RLL_INSTANCES:
        if two_l is None:
            dim = 2 ** m
        elif two_l >= 3:
            dim = O.js_irrep_dim(family, m, two_l)
        else:
            dim = O.js_layer_dim(family, m, two_l)
        jobs.append(Job(f"rll:{name}", _rll_runner(yl, ops[name]),
                        {"rll.passed": True, "rll.details.safe_columns": dim}))
    jobs.append(Job("rll:js-so5-2l2-no-h", _rll_runner(yl, ops["js-so5-2l2-no-h"]),
                    {"rll.passed": False, "rll.details.safe_columns": 15, **NO_H_SO5}))
    rng.shuffle(jobs)
    return jobs


def _rll_runner(yl, lop):
    return lambda: {"rll": yl.verify.check_rll(lop).to_dict()}


# ---------------------------------------------------------------------------
# quadratic-invariants


INVARIANT_INSTANCES = [
    ("js-so5-2l3", "so_odd", 2, 3),
    ("js-so6-2l2", "so_even", 3, 2),
    ("js-so7-2l2", "so_odd", 3, 2),
    ("js-so6-2l3", "so_even", 3, 3),
]


def _setup_invariants(yl):
    make_case = yl.structure.make_case
    ops = {name: yl.lops.build_js_quadratic(make_case(family, m), two_l)
           for name, family, m, two_l in INVARIANT_INSTANCES}
    r_mats = [yl.structure.fundamental_r(make_case(family, m))
              for family, m in sorted({(f, m) for _, f, m, _ in INVARIANT_INSTANCES})]
    return ops, r_mats


def _jobs_invariants(yl, state, rng):
    ops, _ = state
    v, w = yl.verify, yl.weights
    order = list(INVARIANT_INSTANCES)
    rng.shuffle(order)
    jobs = []
    for name, family, m, two_l in order:
        lop = ops[name]
        shared: dict = {}  # this pass's span and outcomes of this instance
        layer = two_l <= 2  # 2l <= 2 keeps the full (reducible) layer
        span_dim = O.js_irrep_dim(family, m, two_l)

        def span_job(lop=lop, shared=shared):
            shared["span"] = yl.lops.cyclic_span(lop, [lop.hw_vector])
            return {"span_dimension": len(shared["span"])}

        def constraints_job(lop=lop, shared=shared):
            rep = v.check_symmetric_constraints(lop, span=shared["span"])
            shared["constraints"] = rep.to_dict()
            return {"constraints": shared["constraints"]}

        def center_job(lop=lop, shared=shared):
            c, rep = v.center_function(lop, span=shared["span"])
            return {"center": rep.to_dict(), "c": c.to_strings()}

        def weights_job(lop=lop):
            rep = w.weight_report(lop, lop.hw_vector)
            return {"passed": rep.passed, "weights": rep.to_dict()}

        def decomposition(c, family=family, m=m, shared=shared):
            scalars = shared.get("constraints", {}).get("scalars")
            return scalars is not None and O.center_decomposition_holds(family, m, c, scalars)

        k = O.scalar(O.js_k(family, m, two_l))
        checks = [
            Job(f"lie:{name}", lambda lop=lop: {"lie": v.check_lie(lop).to_dict()},
                {"lie.passed": True}),
            Job(f"adjoint:{name}", lambda lop=lop: {"adjoint": v.check_adjoint(lop).to_dict()},
                {"adjoint.passed": True}),
            Job(f"constraints:{name}", constraints_job,
                {"constraints.passed": True, "constraints.scalars.c21": "0/1",
                 "constraints.scalars.c23": k}),
            Job(f"w:{name}", lambda lop=lop: {"w": v.check_w_tensor(lop).to_dict()},
                {"w.passed": True}),
            Job(f"chi3:{name}", lambda lop=lop: {"chi3": v.check_chi3(lop).to_dict()},
                {"chi3.passed": True}),
            Job(f"center:{name}", center_job,
                {"center.passed": True,
                 "c": O.predicate("the centre decomposition in c21..c28", decomposition)}),
            Job(f"weights:{name}", weights_job,
                {"passed": True, "weights.k": k, "weights.highest_weight.passed": True,
                 **_roots_expect("weights.finiteness", O.js_roots(family, m, two_l))}),
            Job(f"find_hw:{name}",
                lambda lop=lop: {"vectors": len(w.find_highest_weight(lop))},
                # the full 2l = 2 layer also holds the invariant x.x
                {"vectors": 2 if layer else 1}),
        ]
        rng.shuffle(checks)
        jobs.append(Job(f"cyclic_span:{name}", span_job, {"span_dimension": span_dim}))
        jobs.extend(checks)
    return jobs


# ---------------------------------------------------------------------------
# paper-sweep


def _cli_runner(yl, cfg):
    def run():
        report, code = yl.cli.run({**cfg, "jobs": 1})
        json.dumps(report, indent=2, sort_keys=True)  # the text yanglab prints
        out = dict(report)
        out["exit"] = code
        out["checks"] = {c["check"]: c for c in report.get("checks", [])}
        out["weights_count"] = len(report.get("weights", []))
        out["construct_s"] = report["timings"].get("construct", 0.0)
        out["report"] = report
        return out
    return run


def report_bytes(outcome) -> int:
    """Length of a cli job's printed report, timings left out so that the
    count repeats exactly."""
    if "report" not in outcome:
        return 0
    return len(json.dumps({**outcome["report"], "timings": {}}, indent=2, sort_keys=True))


def _case_cfg(family, m):
    if family == "sp":
        return {"family": "sp", "m": m}
    return {"family": "so", "m": m, "odd": family == "so_odd"}


def _linear_expect(family, m, c2, checks=("lie", "linear_constraint", "rll", "center")):
    out = {f"checks.{c}.passed": True for c in checks}
    out["checks.linear_constraint.scalars.c2"] = O.scalar(c2)
    out["checks.center.scalars.c(u)"] = O.linear_center(family, m, c2)
    return out


def _js_expect(family, m, two_l):
    out = {f"checks.{c}.passed": True
           for c in ("lie", "adjoint", "rll", "symmetric_constraints", "w_tensor", "chi3",
                     "center")}
    out["checks.symmetric_constraints.scalars.c21"] = "0/1"
    out["checks.symmetric_constraints.scalars.c23"] = O.scalar(O.js_k(family, m, two_l))
    out["weights.0.k"] = O.scalar(O.js_k(family, m, two_l))
    out.update(_roots_expect("weights.0.finiteness", O.js_roots(family, m, two_l)))
    return out


# Pools of rational parameters.  Each value gives the same verdicts, and the
# costlier jobs draw from values of about equal cost, so that the seed moves
# the figures little: a product at delta = 0 or +-1 runs in half the time,
# and a two-site fused chain costs 0.2-0.7 s depending on its points.
HEIS_POOLS = {  # values of l on which the Drinfeld polynomial exists
    ("so_even", 2): ["0", "1/2", "1", "3/2", "2"],
    ("sp", 1): ["0", "1", "2", "3"],
    ("sp", 2): ["1", "3"],
}
ODD_HEIS_POOL = ["1/2", "3/2", "5/2"]      # sp(2), 2l odd: no polynomial
DELTA_POOL = ["1/2", "2", "5/2", "3", "-2", "-3/2"]
CHAIN_POOL = ["0", "1/2", "1", "-1/2", "3/2", "2", "-1"]
FUSE3_TWO_SITES = [["0", 1], ["1/2", 1]]

FLIP_K_SO3 = {  # pinned counterexample of the YBE with the K sign flipped
    "ybe.row": [-1, -1, 1], "ybe.col": [-1, 0, 0],
    "ybe.residual": {"1,2": "-1/1", "1,3": "2/1", "2,1": "1/1", "2,2": "-4/1", "3,1": "2/1"},
}
NO_H_SO4 = {
    "rll.counterexample.at": "((-2, -2, (1, 0, 0, 1)), (-2, 2, (2, 0, 0, 0)))",
    "rll.counterexample.residual": {"1,2": "4/1", "2,1": "-4/1"},
}
CORRUPTED_SP4 = {
    "lie.counterexample.at": "(-2, -2, -2, 2)",
    "lie.counterexample.residual": {"0,0": "24/1"},
    "rll.counterexample.at": "((-2, -2, (0, 1)), (-2, -1, (1, 0)))",
    "rll.counterexample.residual": {"0,1": "-18/1", "0,2": "6/1", "1,0": "18/1",
                                    "1,1": "-12/1", "2,0": "6/1"},
}


def _sweep_jobs(yl, state, rng):
    jobs = []

    def cli(name, cfg, expect, **extra):
        jobs.append(Job(name, _cli_runner(yl, cfg), expect, **extra))

    for family, m in [("so_odd", 1), ("so_even", 2), ("so_odd", 2), ("sp", 1), ("sp", 2),
                      ("so_odd", 3), ("sp", 3)]:
        cli(f"r-check:{family}{m}", {"command": "r-check", **_case_cfg(family, m)},
            {"exit": 0, "ybe.passed": True})

    for family, m in [("so_odd", 1), ("so_even", 2), ("so_odd", 2), ("so_even", 3)]:
        c2 = O.spinor_c2(family, m)
        cli(f"all:spinor:{family}{m}", {"command": "all", "op": "spinor", **_case_cfg(family, m)},
            {"exit": 0, **_linear_expect(family, m, c2),
             **_roots_expect("weights.0.finiteness", O.spinor_roots(family, m))})

    for (family, m), count in [(("so_even", 2), 2), (("sp", 1), 2), (("sp", 2), 1)]:
        for ell in rng.sample(HEIS_POOLS[(family, m)], count):
            c2 = O.heisenberg_c2(family, m, ell)
            cli(f"all:heisenberg:{family}{m}:l={ell}",
                {"command": "all", "op": "heisenberg", "ell": ell, **_case_cfg(family, m)},
                {"exit": 0, **_linear_expect(family, m, c2),
                 **_roots_expect("weights.0.finiteness", O.heisenberg_roots(family, m, ell))})

    for delta in rng.sample(DELTA_POOL, 2):
        cli(f"all:product:so4:delta={delta}",
            {"command": "all", "op": "product", "delta": delta, **_case_cfg("so_even", 2)},
            {"exit": 0, **{f"checks.{c}.passed": True
                           for c in ("lie", "adjoint", "rll", "symmetric_constraints", "center")},
             **_roots_expect("weights.0.finiteness", O.product_roots(delta))})

    for sites in (1, 2, 3):
        chain = [[u, 1 + (k % 2)] for k, u in enumerate(rng.sample(CHAIN_POOL, sites))]
        cli(f"all:gl2chain:{chain}", {"command": "all", "op": "gl2chain",
                                      "params": {"chain": chain}},
            {"exit": 0, **_roots_expect("finiteness.0", O.gl2_roots(chain))})

    for chain in [[[u, 1]] for u in rng.sample(CHAIN_POOL, 2)] + [FUSE3_TWO_SITES]:
        cli(f"all:fuse3:{chain}", {"command": "all", "op": "fuse3", "params": {"chain": chain}},
            {"exit": 0, "checks.rll.passed": True,
             **_roots_expect("weights.0.finiteness", O.fuse3_roots(chain))})

    for family, m, two_l in [("so_even", 2, 1), ("so_even", 2, 2), ("so_odd", 2, 1),
                             ("sp", 1, 1), ("sp", 2, 1)]:
        cli(f"all:js:{family}{m}:2l={two_l}",
            {"command": "all", "op": "js", "twoL": two_l, **_case_cfg(family, m)},
            {"exit": 0, **_js_expect(family, m, two_l)})

    cli("weights:spinor:so_even2:kernel",
        {"command": "weights", "op": "spinor", "vector": "kernel", **_case_cfg("so_even", 2)},
        {"exit": 0, "weights_count": 2,  # the vacuum and the flipped vacuum
         "weights.0.highest_weight.passed": True, "weights.1.highest_weight.passed": True})

    # refutations the program must make: exit 1, no polynomial
    cli("finiteness:spinor:sp2", {"command": "finiteness", "op": "spinor", **_case_cfg("sp", 2)},
        {"exit": 1, "weights.0.finiteness.exists": False,
         "weights.0.finiteness.ratios.1.witness": "negative multiplicity at 1/2 in chain 1/2"})
    ell = rng.choice(ODD_HEIS_POOL)
    cli(f"all:heisenberg:sp1:l={ell}",
        {"command": "all", "op": "heisenberg", "ell": ell, **_case_cfg("sp", 1)},
        {"exit": 1, **_linear_expect("sp", 1, O.heisenberg_c2("sp", 1, ell)),
         "weights.0.finiteness.exists": False})

    # negative controls through the library: each identity must fail where pinned
    def flip_k():
        case = yl.structure.make_case("so_odd", 1)
        rep = yl.structure.check_ybe(case, yl.structure.fundamental_r(case, flip_k=True))
        out = {"passed": rep.passed}
        if rep.violation is not None:
            row, col, residual = rep.violation
            out.update(row=list(row), col=list(col), residual=residual.to_strings())
        return {"ybe": out}

    jobs.append(Job("ybe:so3:flip-k", flip_k, {"ybe.passed": False, **FLIP_K_SO3}))

    def no_h():
        lop = yl.lops.build_js_quadratic(yl.structure.make_case("so_even", 2), 2)
        return {"rll": yl.verify.check_rll(_no_h(yl, lop)).to_dict()}

    jobs.append(Job("rll:js-so4-2l2-no-h", no_h, {"rll.passed": False, **NO_H_SO4}))

    def corrupted(trunc):
        def run():
            lop = _corrupted_spinor(yl, trunc)
            return {"lie": yl.verify.check_lie(lop).to_dict(),
                    "rll": yl.verify.check_rll(lop).to_dict()}
        return run

    jobs.append(Job("lie+rll:spinor-sp4-corrupted:trunc=6", corrupted(6),
                    {"lie.passed": False, "rll.passed": False, **CORRUPTED_SP4}))

    # known defects: the paper's verdict is expected, the defect is counted
    jobs.append(Job("lie+rll:spinor-sp4-corrupted:trunc=1", corrupted(1),
                    {"lie.passed": False, "rll.passed": False},
                    defect="vacuous-pass-trunc1",
                    shows_defect=lambda out: any(
                        O.lookup(out, f"{c}.passed") is True
                        and O.lookup(out, f"{c}.details.safe_columns") == 0
                        for c in ("lie", "rll"))))
    # no exit code pinned here: the so(3) three-factor weight condition, not an
    # identity, decides it
    jobs.append(Job("all:js:so_odd1:2l=3",
                    _cli_runner(yl, {"command": "all", "op": "js", "twoL": 3,
                                     **_case_cfg("so_odd", 1)}),
                    _js_expect("so_odd", 1, 3), defect="so3-js-2l3-keyerror",
                    shows_defect=lambda out: out.get("raised") == "KeyError"))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {  # why each was chosen: see BENCHMARK.json and README.md
    "quadratic-rll": Workload("quadratic-rll", _setup_rll, _jobs_rll),
    "quadratic-invariants": Workload("quadratic-invariants", _setup_invariants,
                                     _jobs_invariants),
    "paper-sweep": Workload("paper-sweep", lambda yl: None, _sweep_jobs, setup_in_cli=True),
}
