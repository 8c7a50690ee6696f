"""CLI pipelines, exit codes and report round-trips."""

import json

import pytest

from yanglab.cli import ConfigError, build_operator, main, run


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


def test_config_errors_exit_2(capsys):
    assert main(["construct", "--family", "so", "--m", "2"]) == 2
    assert main(["verify", "--family", "xx", "--m", "2", "--op", "spinor"]) == 2
    assert main(["all", "--family", "so", "--m", "0", "--op", "spinor"]) == 2
    assert main(["weights", "--family", "so", "--m", "2", "--op", "js"]) == 2  # no twoL
    # a malformed scalar is rejected, not misread ("2*s2+1" once parsed as 2*sqrt2)
    assert main(["construct", "--family", "so", "--m", "2", "--op", "heisenberg",
                 "--ell", "2*s2+1"]) == 2


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
], ids=["chain-d", "chain-shape", "chain-negative", "twoL", "sp-twoL", "vector-range", "so2",
        "params-object"])
def test_bad_inputs_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("yanglab: ")


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


def test_verify_js_so3_two_l_3(capsys):
    code = main(["verify", "--family", "so", "--m", "1", "--odd", "--op", "js", "--twoL", "3"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["construction"]["params"]["module"] == "cyclic"


def test_weights_kernel_selector(capsys):
    code = main(["weights", "--family", "so", "--m", "2", "--op", "spinor",
                 "--vector", "kernel"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(out["weights"]) == 2  # vacuum and flipped vacuum


def test_run_api_direct():
    report, code = run_cfg(command="all", family="so", m=1, odd=True, op="spinor")
    assert code == 0
    assert report["weights"][0]["finiteness"]["exists"] is True
    with pytest.raises(ConfigError):
        build_operator({"op": "product", "family": "sp", "m": 1,
                        "params": {"factor1": {"op": "js"}}})
