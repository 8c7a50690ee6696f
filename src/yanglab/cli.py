"""Command line front end emitting machine-readable JSON reports.

Subcommands
-----------
r-check     build the fundamental R-matrix and verify the Yang-Baxter
            equation symbolically
construct   build an L-operator and report its space summary
verify      run identity checks (lie, adjoint, rll, linear, constraints,
            w, chi3, center) on a construction
weights     extract highest-weight data, ratios and conditions
finiteness  run the polynomial-existence criterion on the ratios
all         construct -> verify -> weights -> finiteness

Exit codes: 0 all requested checks passed, 1 some check failed,
2 configuration error.  Reports are schema-versioned JSON with every
scalar serialized exactly as a string; timings are reported but never
part of pass/fail.  Configuration may come from flags or a JSON file
(--config); flags override the file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .exact import Scalar, reduce_ratio
from .lops import (
    Gl2Operator,
    LOperator,
    build_gl2_js_chain,
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    fuse_so3_from_gl2,
    spinor_flipped_vacuum,
)
from .spaces import spinor_space
from .structure import check_ybe, make_case
from .verify import (
    Premises,
    center_function,
    check_adjoint,
    check_chi3,
    check_gl2_rll,
    check_lie,
    check_linear_constraint,
    check_rll,
    check_symmetric_constraints,
    check_w_tensor,
)
from .weights import drinfeld_test, find_highest_weight, weight_report

SCHEMA = "yanglab-report/1"

DEFAULT_CHECKS = {
    "spinor": ["lie", "linear", "rll", "center"],
    "heisenberg": ["lie", "linear", "rll", "center"],
    "js": ["lie", "adjoint", "rll", "constraints", "w", "chi3", "center"],
    "product": ["lie", "adjoint", "rll", "constraints", "center"],
    "fuse3": ["rll"],
}


class ConfigError(Exception):
    pass


def _scalar_arg(value, name):
    if value is None:
        return None
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a scalar, got {value!r}")
    try:
        if isinstance(value, (int, Scalar)):
            return Scalar.of(value)
        return Scalar.from_string(str(value))
    except Exception as exc:
        raise ConfigError(f"cannot parse {name}={value!r}: {exc}") from exc


def _int_arg(value, name):
    """int(value); a bool or float is rejected, not coerced (3.7 -> 3)."""
    if isinstance(value, (bool, float)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {name} {value!r}") from exc


def resolve_case(cfg):
    family = cfg.get("family")
    if family not in ("so", "sp"):
        raise ConfigError("--family must be so or sp")
    m = cfg.get("m")
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ConfigError("--m must be a positive integer")
    odd = cfg.get("odd")
    if not isinstance(odd, (bool, type(None))):
        raise ConfigError(f"--odd must be a boolean, got {odd!r}")
    if family == "sp":
        return make_case("sp", m)
    return make_case("so_odd" if odd else "so_even", m)


def _build_linear_factor(case, spec, trunc):
    op = spec.get("op", "spinor")
    if op == "spinor":
        lop = build_spinorial_linear(case, trunc=trunc)
        if spec.get("vector") == "flipped":
            lop.hw_vector = spinor_flipped_vacuum(case, *spinor_space(case, trunc=trunc))
        return lop
    if op == "heisenberg":
        ell = _scalar_arg(spec.get("ell", 0), "ell")
        return build_heisenberg_linear(case, ell, max_degree=trunc)
    raise ConfigError(f"product factors must be linear (spinor|heisenberg), got {op!r}")


def build_operator(cfg):
    """Build the requested construction; its `hw_vector` is the canonical
    highest vector (a gl(2) chain keeps it at `hw_index`)."""
    op = cfg.get("op")
    params = cfg.get("params") or {}
    if op in (None, ""):
        raise ConfigError("--op is required for this command")
    trunc = cfg.get("trunc")
    if trunc is not None and (isinstance(trunc, bool) or not isinstance(trunc, int) or trunc < 1):
        raise ConfigError(f"--trunc must be a positive integer, got {trunc!r}")
    if op == "gl2chain" or op == "fuse3":
        chain = params.get("chain")
        if chain is None:
            raise ConfigError('--params must supply {"chain": [[u_k, d_k], ...]}')
        try:
            pairs = [(_scalar_arg(u, "u_k"), _int_arg(d, "d_k")) for u, d in chain]
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad --params chain {chain!r}: {exc}") from exc
        gl2 = build_gl2_js_chain(pairs)
        if op == "gl2chain":
            return gl2
        lop, qdet = fuse_so3_from_gl2(gl2)
        lop.params["qdet"] = qdet
        return lop

    case = resolve_case(cfg)
    if trunc is None:
        # the sp spinor's center compares on the columns safe for 3
        # compositions of the entry budget 2: trunc 6 is the least that leaves it one
        trunc = 6 if (op, case.family) == ("spinor", "sp") else 4
    if op in ("spinor", "heisenberg"):
        spec = {**params, "op": op, "ell": cfg.get("ell", params.get("ell", 0))}
        return _build_linear_factor(case, spec, trunc)
    if op == "js":
        two_l = cfg.get("twoL", params.get("twoL"))
        if two_l is None:
            raise ConfigError("--twoL is required for the js construction")
        two_l = _int_arg(two_l, "twoL")
        k = _scalar_arg(cfg.get("k", params.get("k")), "k")
        return build_js_quadratic(case, two_l, k=k)
    if op == "product":
        delta = _scalar_arg(cfg.get("delta", params.get("delta", 0)), "delta")
        f1_spec = params.get("factor1", {"op": "spinor"})
        f2_spec = params.get("factor2", {"op": "spinor"})
        l1 = _build_linear_factor(case, f1_spec, trunc)
        l2 = _build_linear_factor(case, f2_spec, trunc)
        return build_product(l1, l2, delta)
    raise ConfigError(f"unknown construction {op!r}")


def _stage(timings, name, fn, *args):
    started = time.perf_counter()
    out = fn(*args)
    timings[name] = round(time.perf_counter() - started, 6)
    return out


def run_checks(lop: LOperator, names):
    """Run the named identity checks in the order given.

    Returns (reports, seconds): seconds maps each check's name to its wall
    time, the cyclic span of `lop.hw_vector` (`Premises.span_of`) included
    in the first check that needs it.  No span is formed when the hw vector
    is a unit vector that alone generates W (`Premises.generated_by`): the
    cyclic module is then W, which the checks decide on without a span.
    The checks share one `Premises` record, so the top scalar, each
    generator premise (the Chevalley pairs, the invariance of H, the
    generating set), the span and each column form of L's coefficients are
    decided or built at most once.
    adjoint and constraints read H, so asking them of an operator whose
    order is not 2 is a configuration error, raised before any check runs.
    A gl(2) chain has one check, rll (Yang's R(u) = u I + P); any other
    name is a configuration error.
    """
    if isinstance(lop, Gl2Operator):
        for name in names:
            if name != "rll":
                raise ConfigError(f"unknown check {name!r} for a gl(2) chain (only rll)")
        seconds: dict = {}
        reports = [_stage(seconds, name, check_gl2_rll, lop.coeffs, lop.space.dim)
                   for name in names]
        return reports, seconds
    for name in names:
        if name in ("adjoint", "constraints") and lop.order != 2:
            raise ConfigError(f"check {name!r} needs a quadratic evaluation (order 2), "
                              f"the operator has order {lop.order}")
    premises, hw = Premises(lop), lop.hw_vector

    def dispatch(name):
        if name == "lie":
            return check_lie(lop, premises=premises)
        if name == "adjoint":
            return check_adjoint(lop, premises=premises)
        if name == "rll":
            return check_rll(lop, premises=premises)
        if name == "linear":
            return check_linear_constraint(lop, premises=premises)
        if name == "constraints":
            return check_symmetric_constraints(lop, span=premises.span_of(hw), premises=premises)
        if name == "w":
            return check_w_tensor(lop, premises=premises)
        if name == "chi3":
            return check_chi3(lop, premises=premises)
        if name == "center":
            c, rep = center_function(lop, span=premises.span_of(hw), premises=premises)
            return rep
        raise ConfigError(f"unknown check {name!r}")

    seconds: dict = {}
    reports = [_stage(seconds, name, dispatch, name) for name in names]
    return reports, seconds


def _weights_stage(cfg, lop, constraints=None):
    """Weight reports of the selected vectors.  `constraints`, the verify
    stage's symmetric_constraints report on the cyclic module of
    `lop.hw_vector`, gives k = c23 for the auto vector instead of a second
    run; --k wins."""
    selector = cfg.get("vector", "auto")
    if isinstance(lop, LOperator):
        if selector == "auto":
            vectors = [lop.hw_vector]
        elif selector == "kernel":
            vectors = find_highest_weight(lop)
            if not vectors:
                raise ConfigError("no highest-weight vector found in the safe subspace")
        else:
            try:
                positions = [int(x) for x in str(selector).split(",")]
            except ValueError as exc:
                raise ConfigError(f"bad --vector {selector!r}") from exc
            if not all(0 <= p < lop.dim for p in positions):
                raise ConfigError(f"--vector positions must lie in [0, {lop.dim})")
            vectors = [{p: Scalar.of(1) for p in positions}]
        if selector != "auto":  # other vectors generate other modules
            constraints = None
        k = _scalar_arg(cfg.get("k"), "k")
        return [weight_report(lop, v, k=k, constraints=constraints) for v in vectors]
    # gl(2) chain: report its ratio and the shift-one criterion directly
    num, den = lop.ratio()
    reduced = [reduce_ratio(num, den)]
    gl2_case = make_case("so_even", 2)  # shift 1 for the single gl(2) ratio
    return [drinfeld_test(reduced, gl2_case)]


def run(cfg) -> tuple[dict, int]:
    """Execute one configured pipeline; returns (report dict, exit code)."""
    timings: dict = {}
    report: dict = {"schema": SCHEMA, "config": {k: v for k, v in sorted(cfg.items())
                                                 if v is not None}}
    command = cfg["command"]
    failed = False
    constraints = None  # the verify stage's constraints report, if it ran

    if command == "r-check":
        case = resolve_case(cfg)
        ybe = _stage(timings, "ybe", check_ybe, case)
        report["case"] = case.label()
        report["ybe"] = {"passed": ybe.passed}
        if not ybe.passed:
            a_idx, b_idx, residual = ybe.violation
            report["ybe"]["counterexample"] = {
                "row": list(a_idx), "col": list(b_idx),
                "residual": residual.to_strings(),
            }
            failed = True
        report["timings"] = timings
        return report, (1 if failed else 0)

    try:
        lop = _stage(timings, "construct", build_operator, cfg)
    except ValueError as exc:  # a builder rejected its parameters
        raise ConfigError(str(exc)) from exc
    if isinstance(lop, LOperator):
        report["construction"] = lop.summary()
        if "qdet" in lop.params:
            report["construction"]["qdet"] = lop.params["qdet"].to_strings()
            report["construction"]["params"].pop("qdet", None)
        if lop.kind in ("heisenberg", "product"):
            # identities polynomial in the free parameter have degree <= 2,
            # so three rational parameter values certify them
            report["construction"]["parameter_certification"] = {
                "degree_bound": 2, "points_sufficient": 3}
    else:
        report["construction"] = {"kind": "gl2chain", "space": lop.space.summary()}

    # `all` on a gl(2) chain runs its ratio and finiteness stages only
    if command == "verify" or (command == "all" and isinstance(lop, LOperator)):
        kind = lop.kind if isinstance(lop, LOperator) else "gl2chain"
        names = cfg.get("checks") or DEFAULT_CHECKS.get(kind, ["rll"])
        results, timings["checks"] = _stage(timings, "verify", run_checks, lop, names)
        report["checks"] = [r.to_dict() for r in results]
        constraints = next((r for r in results if r.name == "symmetric_constraints"), None)
        failed = failed or not all(r.passed for r in results)

    if command in ("weights", "finiteness", "all"):
        try:
            outcomes = _stage(timings, "weights", _weights_stage, cfg, lop, constraints)
        except ValueError as exc:  # ratio data outside the finiteness test's domain
            raise ConfigError(str(exc)) from exc
        if isinstance(lop, LOperator):
            report["weights"] = [w.to_dict() for w in outcomes]
            failed = failed or not all(w.passed for w in outcomes)
            if command in ("finiteness", "all"):
                failed = failed or not all(w.passed and w.drinfeld.exists for w in outcomes)
        else:
            report["finiteness"] = [d.to_dict() for d in outcomes]
            failed = failed or not all(d.exists for d in outcomes)

    report["timings"] = timings
    return report, (1 if failed else 0)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yanglab",
        description="Exact verification of orthogonal/symplectic Yangian structures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("r-check", "construct", "verify", "weights", "finiteness", "all"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--family", choices=("so", "sp"))
        cmd.add_argument("--m", type=int)
        cmd.add_argument("--odd", action="store_true", default=None,
                         help="select so(2m+1) instead of so(2m)")
        cmd.add_argument("--op", choices=("spinor", "heisenberg", "js", "product",
                                          "gl2chain", "fuse3"))
        cmd.add_argument("--twoL", type=int, dest="twoL")
        cmd.add_argument("--ell")
        cmd.add_argument("--delta")
        cmd.add_argument("--k")
        cmd.add_argument("--trunc", type=int, help="truncation degree D")
        cmd.add_argument("--checks", help="comma list of checks to run")
        cmd.add_argument("--vector", help="auto | kernel | comma basis positions")
        cmd.add_argument("--params", help="construction parameters as JSON")
        cmd.add_argument("--config", help="JSON file with defaults")
        cmd.add_argument("--json", dest="json_out", help="write the report here")
    return parser


def _load_config(ns) -> dict:
    cfg: dict = {}
    if ns.config:
        try:
            with open(ns.config, "r", encoding="utf-8") as handle:
                cfg.update(json.load(handle))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read --config {ns.config}: {exc}") from exc
    for key, value in vars(ns).items():
        if key in ("config",) or value is None:
            continue
        cfg[key] = value
    if isinstance(cfg.get("params"), str):
        try:
            cfg["params"] = json.loads(cfg["params"])
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--params is not valid JSON: {exc}") from exc
    if not isinstance(cfg.get("params", {}), dict):
        raise ConfigError("--params must be a JSON object")
    if isinstance(cfg.get("checks"), str):
        cfg["checks"] = [c.strip() for c in cfg["checks"].split(",") if c.strip()]
    return cfg


def main(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
        cfg = _load_config(ns)
        report, code = run(cfg)
    except SystemExit as exc:  # argparse reports its own usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except ConfigError as exc:
        print(f"yanglab: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.get("json_out"):
        with open(cfg["json_out"], "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
