"""CLI pipelines, exit codes and report round-trips."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from yanglab import cli, verify, weights
from yanglab.exact import Scalar, SparseOp
from yanglab.lops import LOperator, build_js_quadratic, opmat_scale
from yanglab.structure import make_case
from yanglab.cli import DEFAULT_CHECKS, ConfigError, build_operator, main, run, run_checks


def run_cfg(**cfg):
    return run(cfg)


def test_r_check_pass_and_report(capsys):
    code = main(["r-check", "--family", "sp", "--m", "1"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "yanglab-report/1"
    assert report["ybe"]["passed"] is True
    assert report["case"] == "sp(2)"


def test_python_m_yanglab_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-m", "yanglab", "r-check", "--family", "so", "--m", "1",
                           "--odd"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["ybe"]["passed"] is True


def test_all_pipeline_js_so4(capsys):
    code = main(["all", "--family", "so", "--m", "2", "--op", "js", "--twoL", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(chk["passed"] for chk in out["checks"])
    wt = out["weights"][0]
    assert wt["k"] == "-4/1"
    # f_1 = (u+1)/(u-1) for so(4), twoL = 2
    assert wt["ratios"][0] == {"num": ["1/1", "1/1"], "den": ["-1/1", "1/1"]}
    assert wt["finiteness"]["exists"] is True
    # report round-trips through JSON exactly
    assert json.loads(json.dumps(out)) == out


def test_finiteness_exit_code_sp_spinor(capsys):
    code = main(["finiteness", "--family", "sp", "--m", "2", "--op", "spinor"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["weights"][0]["finiteness"]["exists"] is False


def test_verify_with_empty_safe_subspace_exits_1(capsys):
    code = main(["verify", "--family", "sp", "--m", "2", "--op", "spinor", "--trunc", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    checks = {c["check"]: c for c in out["checks"]}
    assert not checks["lie"]["passed"] and not checks["rll"]["passed"]
    assert checks["rll"]["details"]["safe_columns"] == 0


def test_vacuous_w_chi3_linear_exit_1(capsys):
    code = main(["verify", "--family", "sp", "--m", "2", "--op", "spinor", "--trunc", "1",
                 "--checks", "linear,w,chi3,center"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    checks = {c["check"]: c for c in out["checks"]}
    for name in ("linear_constraint", "w_tensor", "chi3"):
        assert not checks[name]["passed"] and checks[name]["details"]["safe_columns"] == 0
    assert not checks["center"]["passed"]
    assert checks["center"]["details"] == {"commutator_columns": 0, "safe_columns": 0,
                                           "generators": {"premise_failed": "closed"}}


@pytest.mark.parametrize("argv", [
    ["--family", "so", "--m", "2", "--op", "product", "--delta", "1", "--trunc", "2",
     "--checks", "constraints",
     "--params", '{"factor1": {"op": "heisenberg"}, "factor2": {"op": "heisenberg"}}'],
    ["--family", "sp", "--m", "2", "--op", "spinor", "--trunc", "4", "--checks", "center"],
], ids=["constraints-heisenberg-product-trunc2", "center-sp4-spinor"])
def test_vacuous_constraints_and_center_exit_1(capsys, argv):
    code = main(["verify"] + argv)
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert code == 1 and not check["passed"]
    assert check["counterexample"]["residual"] == "no columns compared"


def test_config_errors_exit_2(capsys):
    assert main(["construct", "--family", "so", "--m", "2"]) == 2
    assert main(["verify", "--family", "xx", "--m", "2", "--op", "spinor"]) == 2
    assert main(["all", "--family", "so", "--m", "0", "--op", "spinor"]) == 2
    assert main(["weights", "--family", "so", "--m", "2", "--op", "js"]) == 2  # no twoL
    # a malformed scalar is rejected, not misread ("2*s2+1" once parsed as 2*sqrt2)
    assert main(["construct", "--family", "so", "--m", "2", "--op", "heisenberg",
                 "--ell", "2*s2+1"]) == 2
    # scalars are rational: an s2 component is a configuration error
    assert main(["construct", "--family", "so", "--m", "2", "--op", "heisenberg",
                 "--ell", "1/2+1/2*s2"]) == 2
    assert main(["construct", "--family", "so", "--m", "2", "--odd", "--op", "js",
                 "--twoL", "2", "--k", "1+2*s2"]) == 2
    assert main(["construct", "--family", "so", "--m", "2", "--odd", "--op", "product",
                 "--delta", "-1/2*s2"]) == 2
    assert main(["construct", "--op", "fuse3", "--params",
                 '{"chain": [["1/2+1/2*s2", 1]]}']) == 2


@pytest.mark.parametrize("argv,check,order", [
    (["--family", "so", "--m", "2", "--op", "spinor", "--checks", "adjoint"], "adjoint", 1),
    (["--family", "so", "--m", "2", "--op", "spinor", "--checks", "constraints"],
     "constraints", 1),
    (["--op", "fuse3", "--params", '{"chain": [["0", 1], ["1/2", 1]]}', "--checks", "adjoint"],
     "adjoint", 4),
], ids=["adjoint-spinor", "constraints-spinor", "adjoint-fuse3-two-sites"])
def test_checks_of_h_need_order_two(capsys, argv, check, order):
    # adjoint and constraints read H: asked of another order they are a
    # configuration error before any check runs
    assert main(["verify"] + argv) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert f"'{check}'" in captured.err and f"order {order}" in captured.err


def test_non_highest_weight_vector_exits_1(capsys):
    # a failed highest-weight check is a failed check, not a configuration error
    code = main(["weights", "--family", "so", "--m", "2", "--op", "spinor", "--vector", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    hw = out["weights"][0]["highest_weight"]
    assert hw["passed"] is False
    assert hw["counterexample"] == {"at": "((-1, 2), 'u^0')", "residual": "nonzero action"}
    assert "finiteness" not in out["weights"][0]


@pytest.mark.parametrize("argv", [
    ["construct", "--op", "gl2chain", "--params", '{"chain": [["1", "x"]]}'],
    ["construct", "--op", "gl2chain", "--params", '{"chain": [1]}'],
    ["construct", "--op", "gl2chain", "--params", '{"chain": [["1", -1]]}'],
    ["construct", "--family", "so", "--m", "2", "--op", "js", "--params", '{"twoL": "x"}'],
    ["construct", "--family", "sp", "--m", "2", "--op", "js", "--twoL", "2"],
    ["weights", "--family", "so", "--m", "2", "--op", "spinor", "--vector", "99"],
    ["weights", "--family", "so", "--m", "1", "--op", "spinor"],
    ["construct", "--family", "so", "--m", "2", "--op", "js", "--params", "[2]"],
    ["construct", "--family", "sp", "--m", "1", "--op", "spinor", "--trunc", "0"],
    ["construct", "--family", "sp", "--m", "1", "--op", "spinor", "--trunc", "-1"],
], ids=["chain-d", "chain-shape", "chain-negative", "twoL", "sp-twoL", "vector-range", "so2",
        "params-object", "trunc-0", "trunc-negative"])
def test_bad_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("yanglab: ")


@pytest.mark.parametrize("cfg", [
    {"family": "so", "m": 2, "op": "js", "twoL": 3.7},
    {"op": "gl2chain", "params": {"chain": [["0", 1.5]]}},
    {"family": "so", "m": 2, "odd": "false", "op": "spinor"},
    {"family": "so", "m": True, "op": "spinor"},
    {"family": "so", "m": 2, "op": "heisenberg", "ell": True},
    {"family": "sp", "m": 1, "op": "spinor", "trunc": True},
], ids=["twoL-float", "chain-d-float", "odd-string", "m-bool", "ell-bool", "trunc-bool"])
def test_config_values_of_the_wrong_type_exit_2(tmp_path, capsys, cfg):
    # a JSON value of the wrong type is rejected, not coerced (3.7 -> 3, true -> 1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["construct", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out and captured.err.startswith("yanglab: ")


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = {"family": "so", "m": 2, "odd": True, "op": "spinor"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out_path = tmp_path / "report.json"
    code = main(["weights", "--config", str(path), "--json", str(out_path)])
    assert code == 0
    written = json.loads(out_path.read_text())
    printed = json.loads(capsys.readouterr().out)
    assert written == printed
    assert written["construction"]["case"] == "so(5)"


def test_construct_product_and_fuse(capsys):
    code = main(["construct", "--family", "so", "--m", "2", "--op", "product",
                 "--delta", "1", "--params",
                 '{"factor1": {"op": "spinor"}, "factor2": {"op": "spinor", "vector": "flipped"}}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["construction"]["kind"] == "product"

    code = main(["all", "--op", "fuse3", "--params", '{"chain": [["0", 1]]}'])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["construction"]["kind"] == "fuse3"
    assert out["weights"][0]["finiteness"]["exists"] is True


def test_verify_check_order_and_removed_flags(capsys):
    base = ["verify", "--family", "so", "--m", "2", "--op", "spinor", "--checks", "rll,lie"]
    code = main(base)
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [c["check"] for c in out["checks"]] == ["rll", "lie"]
    for flag in (["--mode", "sample"], ["--points", "2"], ["--jobs", "2"]):
        assert main(base + flag) == 2, flag


@pytest.mark.parametrize("m", [1, 2])
def test_sp_spinor_default_checks_pass(capsys, m):
    # without --trunc the sp spinor is built at trunc 6, where center has a column
    code = main(["verify", "--family", "sp", "--m", str(m), "--op", "spinor"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["construction"]["params"]["trunc"] == "6"
    center = next(c for c in out["checks"] if c["check"] == "center")
    assert center["details"]["commutator_columns"] == 1


@pytest.mark.parametrize("argv,names", [
    (["--op", "js", "--twoL", "2"], DEFAULT_CHECKS["js"]),
    (["--op", "spinor", "--checks", "rll,lie"], ["rll", "lie"]),
])
def test_per_check_seconds(capsys, argv, names):
    main(["verify", "--family", "so", "--m", "2"] + argv)
    out = json.loads(capsys.readouterr().out)
    seconds = out["timings"]["checks"]
    assert sorted(seconds) == sorted(names)
    assert all(isinstance(s, float) and s >= 0 for s in seconds.values())


def test_verify_js_so3_two_l_3(capsys):
    code = main(["verify", "--family", "so", "--m", "1", "--odd", "--op", "js", "--twoL", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["construction"]["params"]["module"] == "cyclic"


def test_verify_js_so5_two_l_3_refutation_pin(capsys):
    # k = 1 is not the JS value: rll, the constraints and the center refute
    # it, read in the basis of standard monomials (exponents over the
    # indices -2..2)
    code = main(["verify", "--family", "so", "--m", "2", "--odd", "--op", "js", "--twoL", "3",
                 "--k", "1"])
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert code == 1
    assert [name for name, c in checks.items() if not c["passed"]] == \
        ["rll", "symmetric_constraints", "center"]
    assert checks["rll"]["counterexample"] == {
        "at": "((-2, -2, (2, 1, 0, 0, 0)), (-2, -1, (3, 0, 0, 0, 0)))",
        "residual": {"0,1": "729/32", "0,2": "-243/16", "1,0": "-729/32", "1,1": "243/8",
                     "2,0": "-243/16"}}
    assert checks["symmetric_constraints"]["counterexample"] == {
        "at": "('c28', -2, -2)", "residual": {"0,0": "243/16"}}
    assert checks["center"]["counterexample"] == {
        "at": "('coeff', 0, -2, -2)", "residual": {"0,0": "243/16"}}


def test_weights_kernel_selector(capsys):
    code = main(["weights", "--family", "so", "--m", "2", "--op", "spinor",
                 "--vector", "kernel"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["weights"]) == 2  # vacuum and flipped vacuum


def test_verify_gl2_chain_runs_rll(capsys):
    chain = ["--op", "gl2chain", "--params", '{"chain": [["0", 1]]}']
    assert main(["verify"] + chain) == 0
    (check,) = json.loads(capsys.readouterr().out)["checks"]
    assert check["check"] == "gl2_rll" and check["passed"]
    assert check["details"] == {"keys_compared": 8, "safe_columns": 2}
    # any other check name is a configuration error, raised before rll runs
    assert main(["verify"] + chain + ["--checks", "rll,bogus"]) == 2
    captured = capsys.readouterr()
    assert not captured.out and "'bogus'" in captured.err
    # `all` keeps its ratio and finiteness stages only
    assert main(["all"] + chain) == 0
    assert "checks" not in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("command,construction", [
    ("verify", {"op": "js", "family": "so", "m": 6, "odd": True, "twoL": 4}),
    ("all", {"op": "js", "family": "so", "m": 6, "odd": True, "twoL": 4}),
    ("verify", {"op": "gl2chain", "params": {"chain": [["0", 1]]}}),
    ("all", {"op": "fuse3", "params": {"chain": [["0", 1]]}})])
@pytest.mark.parametrize("checks", [["bogus"], ["rll", "bogus"]])
def test_unknown_check_rejected_before_construction(monkeypatch, command, construction, checks):
    # an unknown name is refused before the construction and before any check
    def never(cfg):
        raise AssertionError("build_operator was called")

    monkeypatch.setattr(cli, "build_operator", never)
    with pytest.raises(ConfigError, match="unknown check 'bogus'"):
        run({"command": command, **construction, "checks": checks})


def test_gl2_chain_all_ignores_check_names():
    # `all` on a gl(2) chain runs no checks, so it reads no check name
    report, code = run({"command": "all", "op": "gl2chain", "checks": ["bogus"],
                        "params": {"chain": [["0", 1]]}})
    assert code == 0 and "checks" not in report


def test_run_api_direct():
    report, code = run_cfg(command="all", family="so", m=1, odd=True, op="spinor")
    assert code == 0
    assert report["weights"][0]["finiteness"]["exists"] is True
    with pytest.raises(ConfigError):
        build_operator({"op": "product", "family": "sp", "m": 1,
                        "params": {"factor1": {"op": "js"}}})


def test_run_checks_decides_each_premise_once(monkeypatch):
    # lie, adjoint, w, rll, constraints, chi3 and center share one record:
    # the generator premises, the invariance of H on the pairs (the adjoint
    # check and the RLL certificate) and the generating sets of W under P
    # and under the half H (the RLL certificate) are each decided once; the
    # span's seeds are picked per check
    lop = build_operator({"family": "so", "m": 2, "odd": True, "op": "js", "twoL": 2})
    calls = Counter()
    generators, generating_set, kernel = (verify._generators, verify.generating_set,
                                          verify.block_violation)

    def counted_generators(*args):
        calls["generators"] += 1
        return generators(*args)

    def counted_generating_set(lop, ops, span=None, **kwargs):
        calls["seeds" if span is None else "span"] += 1
        return generating_set(lop, ops, span, **kwargs)

    def counted_kernel(*args, **kwargs):
        calls["on_pairs"] += kwargs.get("pairs") is not None
        return kernel(*args, **kwargs)

    monkeypatch.setattr(verify, "_generators", counted_generators)
    monkeypatch.setattr(verify, "generating_set", counted_generating_set)
    monkeypatch.setattr(verify, "block_violation", counted_kernel)
    reports, _ = run_checks(lop, DEFAULT_CHECKS["js"])
    assert all(rep.passed for rep in reports)
    # the Lie relation and the invariance of H, each on the pairs once
    assert calls == {"generators": 1, "seeds": 2, "span": 2, "on_pairs": 2}
    records = {rep.name: rep.details.get("generators") for rep in reports}
    assert records == {"lie": {"pairs": 4}, "adjoint": {"pairs": 4}, "rll": None,
                       "symmetric_constraints": {"pairs": 4, "span_seeds": 1},
                       "w_tensor": {"pairs": 4, "seeds": 2}, "chi3": {"pairs": 4, "seeds": 2},
                       "center": {"pairs": 4, "seeds": 2, "span_seeds": 1}}
    assert reports[2].details["certificate"] == {"seeds": 2, "seed_columns": 16}


@pytest.mark.parametrize("extra,runs", [([], 1), (["--k=-41/8"], 1), (["--vector", "kernel"], 3)],
                         ids=["auto", "explicit-k", "kernel"])
def test_weights_stage_reuses_constraints(monkeypatch, capsys, extra, runs):
    # `all` reads k = c23 off the verify stage's constraints report; with
    # --k none is needed, and each kernel vector runs them on its own module
    calls = []
    check = verify.check_symmetric_constraints

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(cli, "check_symmetric_constraints", counting)
    monkeypatch.setattr(weights, "check_symmetric_constraints", counting)
    code = main(["all", "--family", "so", "--m", "2", "--odd", "--op", "js", "--twoL", "2"] + extra)
    out = json.loads(capsys.readouterr().out)
    constraints = {c["check"]: c for c in out["checks"]}["symmetric_constraints"]
    assert code == 0 and len(calls) == runs
    assert out["weights"][0]["k"] == constraints["scalars"]["c23"] == "-41/8"


@pytest.mark.parametrize("cfg,spans", [
    ({"family": "so", "m": 2, "odd": True, "op": "js", "twoL": 3}, 0),
    ({"family": "so", "m": 3, "odd": True, "op": "js", "twoL": 2}, 1),
    ({"family": "so", "m": 2, "odd": True, "op": "product", "delta": "1/2"}, 1),
], ids=["js-so5-2l3", "js-so7-2l2", "product-so5"])
def test_all_forms_cyclic_span_only_when_needed(monkeypatch, cfg, spans):
    # a hw vector that alone generates W needs no cyclic span: the checks and
    # the weights stage decide on W itself
    calls = []
    real = verify.cyclic_span

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(verify, "cyclic_span", counting)
    report, code = run({"command": "all", **cfg})
    assert code == 0 and len(calls) == spans
    checks = {c["check"]: c for c in report["checks"]}
    key = "span_dimension" if spans else "safe_columns"
    assert checks["symmetric_constraints"]["details"][key] == checks["center"]["details"][key]


def test_weight_report_skips_span_of_generating_vector(monkeypatch):
    # without a constraints report, weight_report decides k on W itself when
    # the hw vector alone generates it, with one record for the check
    lop = build_js_quadratic(make_case("so_odd", 2), 3)
    calls = []
    monkeypatch.setattr(verify, "cyclic_span", lambda *args: calls.append(1))
    rep = weights.weight_report(lop, lop.hw_vector)
    assert rep.passed and rep.k == Scalar(-73, 0, 8) and not calls


_CHAIN = {"chain": [[0, 2], ["1/2", 1]]}


@pytest.mark.parametrize("cfg, corrupt", [
    ({"family": "so", "m": 2, "odd": True, "op": "js", "twoL": 3}, False),
    ({"family": "so", "m": 2, "odd": True, "op": "js", "twoL": 2}, True),
    ({"family": "so", "m": 3, "op": "spinor"}, False),
    ({"family": "so", "m": 2, "op": "heisenberg", "ell": "1/2", "trunc": 3}, False),
    ({"family": "so", "m": 2, "op": "product", "delta": "1/2"}, False),
    ({"op": "fuse3", "params": _CHAIN}, False),
    ({"op": "gl2chain", "params": _CHAIN}, False),
], ids=["js", "js-G-x3", "spinor", "heisenberg", "product", "fuse3", "gl2chain"])
def test_checks_form_no_sparse_op_product(monkeypatch, cfg, corrupt):
    # every product of every check, refutations and their reruns included,
    # runs on the sparse product kernel; only the builders multiply SparseOps
    lop = build_operator(cfg)
    names = DEFAULT_CHECKS.get(getattr(lop, "kind", None), ["rll"])
    if corrupt:
        lop = LOperator(lop.case, lop.space, [lop.coeffs[0], opmat_scale(lop.g_mat, 3),
                                              lop.coeffs[2]], kind="js", hw_vector=lop.hw_vector)

    def refuse(a, b):
        raise AssertionError("a check formed a SparseOp product")

    monkeypatch.setattr(SparseOp, "__matmul__", refuse)
    reports, _ = run_checks(lop, names)
    # W = 0 is homogeneous in G, so 3 G keeps it; every other check refutes 3 G
    assert [rep.passed for rep in reports] == [
        not corrupt or rep.name == "w_tensor" for rep in reports]
