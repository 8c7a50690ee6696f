"""Symbolic identity checks: Lie/adjoint relations, RLL, constraints, center."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yanglab import verify
from yanglab.cli import DEFAULT_CHECKS, build_operator, run_checks
from yanglab.exact import ONE, ZERO, BiPoly, Scalar, SparseOp, UniPoly, clear_opmats
from yanglab.lops import (
    LOperator,
    build_gl2_js_chain,
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    cyclic_span,
    fuse_so3_from_gl2,
    metric_opmat,
    opmat_acc,
    opmat_add,
    opmat_apply,
    opmat_mul,
    opmat_mul_tt,
    opmat_poly_mul,
    opmat_poly_subs,
    opmat_scale,
    opmat_sub,
    opmat_transpose,
)
from yanglab.spaces import RepSpace
from yanglab.structure import (
    IdentityForm,
    block_violation,
    cartan_grading,
    chevalley_pairs,
    describe_flat,
    first_violation,
    fundamental_ipk,
    graded,
    identity_residual,
    k_form,
    locate_violation,
    make_case,
    metric_multiple,
    presentation,
)
from yanglab.verify import (
    Premises,
    _raised_coeffs,
    center_decomposition,
    center_function,
    check_adjoint,
    check_chi3,
    check_lie,
    check_linear_constraint,
    check_rll,
    check_symmetric_constraints,
    check_w_tensor,
    scalar_images,
)

# the conjugated so(3)/sp(2) solutions of the block-kernel property test
from test_structure import _base_solution, _conjugate, _g_basis, _padded, _unipotent, nonzero


def _cleared_violation(case, g, x, cols, w_tensor=False, pairs=None):
    """`block_violation` of the opmats G and X, cleared with one lcm."""
    (g, x), den = clear_opmats([g, x])
    return block_violation(case, g, x, den, cols, w_tensor, pairs)


def _cleared_grading(case, g):
    """`cartan_grading` of the opmat G, cleared."""
    (g,), den = clear_opmats([g])
    return cartan_grading(case, g, den)


def _cleared_multiple(case, mat, twin=0):
    """`metric_multiple` of the opmat M, cleared."""
    (mat,), den = clear_opmats([mat])
    return metric_multiple(case, mat, den, twin)


def _changed(lop, g=None, h=None):
    """`lop` with G or H replaced, as an operator [H, G, top] ([G, top]
    for a linear one without H); an H given to a linear one adds it."""
    coeffs = [lop.g_mat if g is None else g, lop.coeff(lop.order)]
    if h is not None or lop.order == 2:
        coeffs.insert(0, lop.h_mat if h is None else h)
    return LOperator(lop.case, lop.space, coeffs, lop.entry_budget, lop.kind, lop.params,
                     lop.hw_vector)


def test_lie_spinor_so4_and_negative_control():
    lop = build_spinorial_linear(make_case("so_even", 2))
    assert check_lie(lop).passed
    broken = dict(lop.g_mat)
    broken.pop((-1, 1))
    rep = check_lie(_changed(lop, g=broken))
    assert not rep.passed and rep.counterexample is not None


def test_lie_heisenberg_so4():
    lop = build_heisenberg_linear(make_case("so_even", 2), 1, max_degree=3)
    rep = check_lie(lop)
    assert rep.passed and rep.details["safe_columns"] > 0


def test_adjoint_js_so5():
    lop = build_js_quadratic(make_case("so_odd", 2), 2)
    assert check_adjoint(lop).passed


def test_adjoint_equals_lie_when_h_is_g():
    lop = build_spinorial_linear(make_case("sp", 1))
    rep = check_adjoint(_changed(lop, h=lop.g_mat))
    assert rep.passed == check_lie(lop).passed


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("so_even", 2), ("sp", 1)])
def test_rll_spinor(family, m):
    lop = build_spinorial_linear(make_case(family, m))
    assert check_rll(lop).passed


def test_rll_heisenberg_sp2():
    lop = build_heisenberg_linear(make_case("sp", 1), 2, max_degree=3)
    assert check_rll(lop).passed


def test_rll_js_so5_and_h_zero_negative_control():
    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    rep = check_rll(lop)
    assert rep.passed and rep.details["safe_columns"] == 15
    # L and R of degree 2: u^a v^b with a, b <= 4 and a + b <= 6
    assert rep.details["keys_compared"] == 22
    no_h = LOperator(case, lop.space, [{}, lop.g_mat, lop.coeffs[2]],
                     entry_budget=0, kind="js_no_h")
    assert not check_rll(no_h).passed


def _js_without_h(family, m):
    lop = build_js_quadratic(make_case(family, m), 2)
    return LOperator(lop.case, lop.space, [{}, lop.g_mat, lop.coeffs[2]],
                     entry_budget=0, kind="js_no_h")


def _js_h_scaled(family, m, factor):
    lop = build_js_quadratic(make_case(family, m), 2)
    return LOperator(lop.case, lop.space, [opmat_scale(lop.coeffs[0], factor), lop.g_mat,
                                           lop.coeffs[2]], entry_budget=0, kind="js_h_scaled")


def _spinor_g_scaled(family, m, trunc=None):
    """The spinor operator with G scaled by 3: every identity fails."""
    lop = build_spinorial_linear(make_case(family, m), trunc=trunc)
    return LOperator(lop.case, lop.space, [opmat_scale(lop.coeffs[0], 3), lop.coeffs[1]],
                     entry_budget=lop.entry_budget, kind="spinor_corrupted")


def _corrupted_sp4_spinor(trunc):
    return _spinor_g_scaled("sp", 2, trunc)


# Counterexamples of the RLL negative controls, pinned verbatim: the first
# violating entry in sorted order and its residual in (u, v).
RLL_REFUTATIONS = [
    (lambda: _js_without_h("so_even", 2),
     "((-2, -2, (1, 0, 0, 1)), (-2, 2, (2, 0, 0, 0)))", {"1,2": "4/1", "2,1": "-4/1"}),
    (lambda: _js_without_h("so_odd", 2),
     "((-2, -2, (1, 0, 0, 0, 1)), (-2, 2, (2, 0, 0, 0, 0)))", {"1,2": "6/1", "2,1": "-6/1"}),
    (lambda: _corrupted_sp4_spinor(6),
     "((-2, -2, (0, 1)), (-2, -1, (1, 0)))",
     {"0,1": "-18/1", "0,2": "6/1", "1,0": "18/1", "1,1": "-12/1", "2,0": "6/1"}),
    # a fractional residual: the integer-cleared engine must divide it back exactly
    (lambda: _js_h_scaled("so_odd", 2, Scalar(1, 0, 3)),
     "((-2, -2, (1, 1, 0, 0, 0)), (-2, -1, (2, 0, 0, 0, 0)))",
     {"0,1": "-25/24", "0,2": "25/36", "1,0": "25/24", "1,1": "-25/18", "2,0": "25/36"}),
    # the so(5) spinor, built in its rational frame
    (lambda: _spinor_g_scaled("so_odd", 2),
     "((-2, -2, 2), (-2, -1, 1))",
     {"0,1": "-9/1", "0,2": "6/1", "1,0": "9/1", "1,1": "-12/1", "2,0": "6/1"}),
    # k + 1 keeps the certificate's premises, and the first violation lies off
    # its seed columns: the refutation must come from all the columns
    (lambda: build_js_quadratic(make_case("so_even", 2), 2, k=-3),
     "((-2, -2, (1, 1, 0, 0)), (-2, -1, (2, 0, 0, 0)))",
     {"0,1": "1/1", "0,2": "-1/1", "1,0": "-1/1", "1,1": "2/1", "2,0": "-1/1"}),
]


@pytest.mark.parametrize("build,at,residual", RLL_REFUTATIONS,
                         ids=["js-so4-no-h", "js-so5-no-h", "spinor-sp4-corrupted",
                              "js-so5-h-third", "spinor-so5-corrupted", "js-so4-k-plus-1"])
def test_rll_refutations_pinned(build, at, residual):
    rep = check_rll(build()).to_dict()
    assert rep["passed"] is False
    assert rep["counterexample"] == {"at": at, "residual": residual}


# One configuration of each construction the command line builds.
CLI_CONSTRUCTIONS = {
    "spinor-so3": {"op": "spinor", "family": "so", "m": 1, "odd": True},
    "spinor-so4": {"op": "spinor", "family": "so", "m": 2},
    "spinor-so5": {"op": "spinor", "family": "so", "m": 2, "odd": True},
    "spinor-so7": {"op": "spinor", "family": "so", "m": 3, "odd": True},
    "spinor-sp4": {"op": "spinor", "family": "sp", "m": 2},
    "heisenberg": {"op": "heisenberg", "family": "so", "m": 2, "ell": "1/2"},
    "js": {"op": "js", "family": "so", "m": 2, "odd": True, "twoL": 3},
    "product": {"op": "product", "family": "so", "m": 2, "odd": True, "delta": "1/2",
                "params": {"factor2": {"op": "spinor", "vector": "flipped"}}},
    "gl2chain": {"op": "gl2chain", "params": {"chain": [["1/3", 1], ["0", 2]]}},
    "fuse3-one-site": {"op": "fuse3", "params": {"chain": [["0", 1]]}},
    "fuse3-two-sites": {"op": "fuse3", "params": {"chain": [["0", 1], ["1/2", 2]]}},
}


@pytest.mark.parametrize("name", sorted(CLI_CONSTRUCTIONS))
def test_constructions_clear_to_ints(name):
    # every construction is rational, so the identity engine and the block
    # kernel run on cleared ints for each of them
    lop = build_operator(CLI_CONSTRUCTIONS[name])
    ints, d = clear_opmats(lop.coeffs)
    assert any(lop.coeffs)
    for mat, imat in zip(lop.coeffs, ints):
        assert imat.keys() == mat.keys()
        for key, op in mat.items():
            assert all(type(v) is int for v in imat[key].data.values())
            assert {k: Scalar(v, 0, d) for k, v in imat[key].data.items()} == op.data


ALL_CHECKS = ["lie", "adjoint", "rll", "linear", "constraints", "w", "chi3", "center"]

# each check of `cli.run_checks` called alone, with the span run_checks gives it
CHECKS_ALONE = {
    "lie": lambda lop, span: check_lie(lop),
    "adjoint": lambda lop, span: check_adjoint(lop),
    "rll": lambda lop, span: check_rll(lop),
    "linear": lambda lop, span: check_linear_constraint(lop),
    "constraints": lambda lop, span: check_symmetric_constraints(lop, span=span),
    "w": lambda lop, span: check_w_tensor(lop),
    "chi3": lambda lop, span: check_chi3(lop),
    "center": lambda lop, span: center_function(lop, span=span)[1],
}


@pytest.mark.parametrize("name", sorted(set(CLI_CONSTRUCTIONS) - {"gl2chain"}))
def test_run_checks_match_checks_alone(name):
    # the record run_checks shares gives every check the report it gives
    # with a fresh record of its own; run_checks gives no span when the hw
    # vector alone generates W, which changes no verdict, scalar or
    # counterexample of the checks given its cyclic module
    lop = build_operator(CLI_CONSTRUCTIONS[name])
    names = ALL_CHECKS if name == "fuse3-one-site" else DEFAULT_CHECKS[lop.kind]
    span = cyclic_span(lop, [lop.hw_vector]) if lop.space.trunc is None else None
    given = None if Premises(lop).generated_by(lop.hw_vector) else span
    shared, _ = run_checks(lop, names)
    assert [rep.to_dict() for rep in shared] == [
        CHECKS_ALONE[check](lop, given).to_dict() for check in names]
    spanned = [CHECKS_ALONE[check](lop, span) for check in names]
    assert [(rep.passed, rep.scalars, rep.counterexample) for rep in shared] == [
        (rep.passed, rep.scalars, rep.counterexample) for rep in spanned]


def test_hw_vector_generates_w_where_expected():
    # every JS 2l = 3 module and 2l = 1 layer, not the 2l = 2 layer (seeds [13, 6])
    # nor a product (the vacuum of a spinor factor generates only half of it)
    expected = {("so_odd", 2, 3): True, ("so_even", 3, 3): True, ("so_odd", 2, 1): True,
                ("sp", 2, 1): True, ("so_odd", 3, 2): False}
    for (family, m, two_l), generated in expected.items():
        lop = build_js_quadratic(make_case(family, m), two_l)
        assert Premises(lop).generated_by(lop.hw_vector) is generated
    product = build_operator(CLI_CONSTRUCTIONS["product"])
    assert not Premises(product).generated_by(product.hw_vector)
    # a vector of two entries is never taken as the generator
    assert not Premises(lop).generated_by({0: ONE, 1: ONE})


def _count_forms(monkeypatch):
    """Record every column form built, through lops or verify, as (int
    opmat, first): the record's, the shifted coefficients' (from their int
    sums) and any `opmat_form`, which clears and then calls `column_form`."""
    import yanglab.lops as lops

    built = []
    real = lops.column_form

    def counting(ints, den, first=False):
        built.append((ints, first))
        return real(ints, den, first)

    monkeypatch.setattr(lops, "column_form", counting)
    monkeypatch.setattr(verify, "column_form", counting)
    return built


def test_center_builds_each_form_once(monkeypatch):
    # the o forms of L's coefficients and the *tt forms of the shifted ones,
    # each built once in one center_function call
    lop = build_js_quadratic(make_case("so_odd", 3), 2)
    span = cyclic_span(lop, [lop.hw_vector])
    premises = Premises(lop)
    built = _count_forms(monkeypatch)
    c, rep = center_function(lop, span=span, premises=premises)
    assert rep.passed and rep.details["generators"] == {"pairs": 6, "seeds": 2, "span_seeds": 1}
    keys = [(id(mat), first) for mat, first in built]
    assert len(keys) == len(set(keys))
    coeffs = [k for mat, first in built for k, coeff in enumerate(premises.ints)
              if coeff is mat and not first]
    assert sorted(coeffs) == [0, 1, 2]
    shifted = [first for mat, first in built if all(mat is not coeff for coeff in premises.ints)]
    assert shifted == [True, True, True]


def test_run_checks_share_forms(monkeypatch):
    # constraints, chi3 and center read G and H through the record's forms
    import yanglab.cli as cli

    lop = build_js_quadratic(make_case("so_odd", 2), 3)
    records = []
    monkeypatch.setattr(cli, "Premises", lambda lop: records.append(Premises(lop)) or records[-1])
    built = _count_forms(monkeypatch)
    reports, _ = run_checks(lop, DEFAULT_CHECKS["js"])
    assert all(rep.passed for rep in reports)
    (premises,) = records
    coeffs = sorted((k, first) for mat, first in built for k, coeff in enumerate(premises.ints)
                    if coeff is mat)
    assert coeffs == [(0, False), (0, True), (1, False), (1, True), (2, False)]
    # and the shifted ones and chi3's Casimir partner of G, once each (chi3
    # holds on its seeds, so it applies the Casimir once)
    assert len(built) == len(coeffs) + len(lop.coeffs) + 1


SCALED = {  # operators whose reports c L must reproduce
    "js-so5-2l3": lambda: build_js_quadratic(make_case("so_odd", 2), 3),
    "js-sp4-2l1": lambda: build_js_quadratic(make_case("sp", 2), 1),
    "js-so6-2l2": lambda: build_js_quadratic(make_case("so_even", 3), 2),
    "spinor-so4": lambda: build_spinorial_linear(make_case("so_even", 2)),
    "product-so5": lambda: build_operator({"op": "product", "family": "so", "m": 2,
                                           "odd": True, "delta": "1/2"}),
    "fuse3-one-site": lambda: build_operator(CLI_CONSTRUCTIONS["fuse3-one-site"]),
}


@pytest.mark.parametrize("c", [Scalar(3), Scalar(-1, 0, 2), Scalar(7, 0, 4)], ids=str)
@pytest.mark.parametrize("name", sorted(SCALED))
def test_reports_of_c_times_l_are_those_of_l(name, c):
    # the record folds 1/c into its ints, so c L, for c negative or
    # fractional too, gives every check the report of L
    lop = SCALED[name]()
    names = [check for check in ALL_CHECKS
             if lop.order == 2 or check not in ("adjoint", "constraints")]
    scaled = LOperator(lop.case, lop.space, [opmat_scale(mat, c) for mat in lop.coeffs],
                       lop.entry_budget, lop.kind, lop.params, lop.hw_vector)
    assert Premises(scaled).c == c * Premises(lop).c
    assert [rep.to_dict() for rep in run_checks(scaled, names)[0]] == [
        rep.to_dict() for rep in run_checks(lop, names)[0]]


def test_run_checks_clear_l_once(monkeypatch):
    # the record clears each entry of L once; the kernels it feeds get ints
    # and clear nothing.  Only the span closures (`exact.op_columns`) clear
    # L's own blocks again: the generating sets read the Chevalley blocks
    # G_p, which no scale changes
    import sys

    import yanglab.exact as exact
    import yanglab.lops as lops
    import yanglab.structure as structure

    lop = build_js_quadratic(make_case("so_odd", 2), 3)
    cleared = {id(op): 0 for mat in lop.coeffs for op in mat.values()}
    in_spans, in_structure, real = set(), [], exact.clear_opmats

    def spy(mats):
        for op in (op for mat in mats for op in mat.values() if id(op) in cleared):
            if sys._getframe(1).f_code.co_name == "op_columns":
                in_spans.add(id(op))
            else:
                cleared[id(op)] += 1
        return real(mats)

    for module in (exact, lops, verify):
        monkeypatch.setattr(module, "clear_opmats", spy)
    monkeypatch.setattr(structure, "clear_opmats", lambda mats: in_structure.append(mats))
    fed = {}

    def ints_only(name, operands):
        kernel = getattr(verify, name)

        def spied(*args, **kwargs):
            mats = operands(args)
            fed[name] = fed.get(name, 0) + 1
            assert all(type(v) is int for mat in mats for op in mat.values()
                       for v in op.data.values())
            return kernel(*args, **kwargs)
        monkeypatch.setattr(verify, name, spied)

    ints_only("block_violation", lambda args: args[1:3])
    ints_only("metric_multiple", lambda args: args[1:2])
    ints_only("cartan_grading", lambda args: args[1:2])
    ints_only("IdentityForm", lambda args: args[1])
    reports, _ = run_checks(lop, ALL_CHECKS)
    assert [rep.passed for rep in reports] == [True] * 3 + [False] + [True] * 4  # not linear
    assert set(cleared.values()) == {1} and not in_structure
    assert in_spans and in_spans <= {id(op) for op in lop.g_mat.values()}
    assert set(fed) == {"block_violation", "metric_multiple", "cartan_grading", "IdentityForm"}


def test_rll_js_so7_rank_three():
    lop = build_js_quadratic(make_case("so_odd", 3), 2)
    rep = check_rll(lop)
    assert rep.passed and rep.details["safe_columns"] == lop.dim == 28


def _closed(case, coeffs, dim, hw=None):
    """An L-operator on a closed test space of dimension dim."""
    space = RepSpace("test", list(range(dim)), [0] * dim)
    return LOperator(case, space, coeffs, hw_vector=hw)


def _assert_matches_full_engine(lop):
    """check_rll agrees with the engine on every column: verdict and, on a
    refutation, the first violation and its residual."""
    case, n = lop.case, lop.case.n
    ints, den = clear_opmats(lop.coeffs)
    form = IdentityForm(fundamental_ipk(case), _raised_coeffs(case, ints), den, n, lop.dim,
                        k_form(case))
    full, _ = identity_residual(form, range(n * n), range(lop.dim))
    rep = check_rll(lop)
    assert rep.passed == (not full)
    if full:
        (row, col), res = first_violation(full)
        labels = lop.space.labels
        assert rep.counterexample == ((describe_flat(case, labels, row, lop.dim),
                                       describe_flat(case, labels, col, lop.dim)), res)
    return rep


def _fuse3(chain):
    return fuse_so3_from_gl2(build_gl2_js_chain([(Scalar.of(u), d) for u, d in chain]))[0]


def _top_scaled_once(family, m):
    """JS 2l=2 with one key of the top coefficient doubled: not c eps Id."""
    lop = build_js_quadratic(make_case(family, m), 2)
    top = dict(lop.coeffs[2])
    top[(1, -1)] = top[(1, -1)].scale(2)
    return LOperator(lop.case, lop.space, [lop.h_mat, lop.g_mat, top])


# What decided each RLL verdict: the seed count |S_H| and the |supp(l_k)| |S_H|
# compared columns of the covariance certificate (supp(l_k) has n + 3 pairs
# for so(5), so(6) and sp(4), 9 for so(4), 6 for so(3)), or the premise that
# sent it to all columns.
CERTIFICATES = [
    (lambda: build_spinorial_linear(make_case("so_odd", 2)), True,
     {"seeds": 1, "seed_columns": 8}),
    (lambda: build_spinorial_linear(make_case("so_even", 3)), True,
     {"seeds": 2, "seed_columns": 18}),
    (lambda: build_js_quadratic(make_case("so_odd", 2), 2), True,
     {"seeds": 2, "seed_columns": 16}),
    (lambda: build_js_quadratic(make_case("sp", 2), 1), True,
     {"seeds": 1, "seed_columns": 7}),
    (lambda: build_product(*[build_spinorial_linear(make_case("so_even", 2))] * 2, ONE), True,
     {"seeds": 6, "seed_columns": 54}),
    (lambda: _fuse3([(0, 1)]), True, {"seeds": 1, "seed_columns": 6}),
    (lambda: _fuse3([(0, 1), (Scalar(1, 0, 2), 1)]), True, {"seeds": 2, "seed_columns": 12}),
    (lambda: _js_without_h("so_odd", 2), False, {"seeds": 2, "seed_columns": 16}),
    (lambda: build_heisenberg_linear(make_case("so_even", 2), 1, max_degree=3), True,
     {"premise_failed": "closed"}),
    (lambda: build_spinorial_linear(make_case("sp", 2)), True, {"premise_failed": "closed"}),
    (lambda: _top_scaled_once("so_odd", 2), False, {"premise_failed": "scalar_top"}),
    (lambda: _spinor_g_scaled("so_even", 2), False, {"premise_failed": "lie"}),
    # so(2): no extremal vectors generate V x V, so n^2 |S| columns, S under P
    (lambda: build_spinorial_linear(make_case("so_even", 1)), True,
     {"seeds": 2, "seed_columns": 8}),
    (lambda: build_js_quadratic(make_case("so_even", 1), 2), True,
     {"seeds": 3, "seed_columns": 12}),
]


@pytest.mark.parametrize("build,passed,certificate", CERTIFICATES,
                         ids=["spinor-so5", "spinor-so6", "js-so5", "js-sp4", "product-so4",
                              "fuse3-one-site", "fuse3-two-sites", "js-so5-no-h", "heisenberg",
                              "spinor-sp4", "top-not-scalar", "spinor-g-times-3", "spinor-so2",
                              "js-so2"])
def test_rll_certificate_record(build, passed, certificate):
    rep = check_rll(build())
    assert rep.passed is passed and rep.details["certificate"] == certificate


def test_rll_refutation_paths(monkeypatch):
    # a residual on the certificate's columns is located row block by row
    # block; a failed premise compares every safe column and locates nothing
    located = []

    def locate(form, cols):
        located.append(len(cols))
        return locate_violation(form, cols)

    monkeypatch.setattr(verify, "locate_violation", locate)
    rep = _assert_matches_full_engine(_js_without_h("so_odd", 2))
    assert not rep.passed and located == [15]
    rep = _assert_matches_full_engine(_top_scaled_once("so_odd", 2))
    assert not rep.passed and located == [15]


# One-site fused so(3) operators, (u_1, d_1) and whether G is bilinear
# (W and chi3 hold): each is a quadratic evaluation with top 4 eps Id.
FUSE3_ONE_SITE = [((0, 1), True), ((0, 2), False), ((Scalar(1, 0, 2), 3), False),
                  ((Scalar(-1, 0, 3), 4), False)]


@pytest.mark.parametrize("site,bilinear", FUSE3_ONE_SITE, ids=["0-1", "0-2", "half-3", "third-4"])
def test_fuse3_one_site_checks_decide_on_normalised_operator(site, bilinear):
    # the Lie and adjoint relations and the constraints are not homogeneous
    # in L: they hold for L / 4, which every check reads off its record
    lop = _fuse3([site])
    assert check_lie(lop).passed and check_adjoint(lop).passed and check_rll(lop).passed
    constraints = check_symmetric_constraints(lop)
    c, center = center_function(lop)
    assert constraints.passed and center.passed
    assert center_decomposition(lop.case, c, constraints.scalars)
    assert check_w_tensor(lop).passed is check_chi3(lop).passed is bilinear
    assert Premises(lop).c == Scalar(4)


@pytest.mark.parametrize("chain,top", [([(0, 1), (Scalar(1, 0, 2), 1)], 16),
                                       ([(1, 1), (Scalar(-1, 0, 2), 2), (0, 1)], 64)],
                         ids=["two-sites", "three-sites"])
def test_fuse3_chains_pass_lie_and_rll(chain, top):
    lop = _fuse3(chain)
    assert check_lie(lop).passed and check_rll(lop).passed
    assert Premises(lop).c == Scalar(top)


def _direct_sum(l1, l2):
    """Block-diagonal L1 + L2 on W1 + W2, with L1's highest-weight vector."""
    d1, dim = l1.dim, l1.dim + l2.dim
    coeffs = []
    for m1, m2 in zip(l1.coeffs, l2.coeffs):
        mat = {}
        for key in set(m1) | set(m2):
            data = dict(m1[key].data) if key in m1 else {}
            if key in m2:
                data.update({(i + d1, j + d1): v for (i, j), v in m2[key].data.items()})
            mat[key] = SparseOp(dim, dim, data)
        coeffs.append(mat)
    return _closed(l1.case, coeffs, dim, hw=l1.hw_vector)


def test_rll_certificate_needs_every_seed():
    # JS(k) passes and JS(k + 1) fails; the hw vector generates only the
    # first summand, so only the second seed, in JS(k + 1), can refute the sum
    case = make_case("sp", 2)
    good = build_js_quadratic(case, 1)
    bad = build_js_quadratic(case, 1, k=good.params["k"] + 1)
    assert check_rll(good).passed and not check_rll(bad).passed
    rep = _assert_matches_full_engine(_direct_sum(good, bad))
    assert not rep.passed and rep.details["certificate"] == {"seeds": 2, "seed_columns": 14}


def test_rll_certificate_needs_invariance():
    # one entry of H on the lowest vector of the so(3) spin-3 module: the
    # hw seed columns cannot see it, so only the invariance premise does
    case = make_case("so_odd", 1)
    lop = build_js_quadratic(case, 3)
    h = opmat_add(lop.h_mat, {(1, -1): SparseOp(7, 7, {(6, 6): ONE})})
    bad = LOperator(case, lop.space, [h, lop.g_mat, lop.coeffs[2]], hw_vector=lop.hw_vector)
    seed_cols = [0]  # the hw vector is the first basis vector
    ints, den = clear_opmats(bad.coeffs)
    form = IdentityForm(fundamental_ipk(case), _raised_coeffs(case, ints), den, 3, 7, k_form(case))
    seed_residual, _ = identity_residual(form, range(9), seed_cols)
    assert lop.hw_vector == {0: ONE} and not seed_residual
    rep = _assert_matches_full_engine(bad)
    assert not rep.passed and rep.details["certificate"] == {"premise_failed": "invariant"}


@st.composite
def rll_operands(draw):
    """(L-operator, kind) on a closed space of so(3), sp(2), sp(4) or so(5).

    Solutions conjugate a base representation (JS 2l=1 with its H, or the
    so(3) or so(5) spinor), padded by a trivial summand to dim 3 at random
    when of dim 2, by I + t E_pq, so no seed is the natural basis.  On the
    rank-2 bases the certificate compares n + 3 of the n^2 pairs of V x V.
    Covariant corruptions keep every premise and must be refuted on the
    certificate's columns: H scaled, k shifted (H + s eps Id) or H dropped.
    Non-covariant ones scale G by 3 or change one entry of one coefficient.
    """
    kind = draw(st.sampled_from(["solution", "covariant", "non-covariant"]))
    bases = [("so_odd", "js", 1), ("sp", "js", 1), ("sp", "js", 2)]
    if kind != "covariant":  # the spinor's one covariant change, a shift of u, still solves
        bases += [("so_odd", "spinor", 1), ("so_odd", "spinor", 2)]
    family, rep, rank = draw(st.sampled_from(bases))
    case, g, h, dim = _base_solution(family, rep, rank)
    if dim == 2 and draw(st.booleans()):
        dim = 3
        g, h = _padded(g, dim), _padded(h, dim)
    p, q = draw(st.sampled_from([(p, q) for p in range(dim) for q in range(dim) if p != q]))
    t = draw(nonzero)
    m, m_inv = _unipotent(dim, p, q, t), _unipotent(dim, p, q, -t)
    g, h = _conjugate(g, m, m_inv), _conjugate(h, m, m_inv)
    if kind == "covariant":
        way = draw(st.sampled_from(["shift", "scale", "drop"] if h else ["shift"]))
        if way == "shift":
            h = opmat_add(h, metric_opmat(case, dim, draw(nonzero)))
        elif way == "scale":
            h = opmat_scale(h, draw(nonzero.filter(lambda s: s != 1)))
        else:
            h = {}
    top = metric_opmat(case, dim)
    coeffs = [h, g, top] if rep == "js" else [g, top]
    if kind == "non-covariant":
        if draw(st.booleans()):
            coeffs[-2] = opmat_scale(coeffs[-2], 3)
        else:
            k = draw(st.integers(0, len(coeffs) - 1))
            key = draw(st.sampled_from(sorted(product(case.indices, repeat=2))))
            i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            coeffs[k] = opmat_add(coeffs[k], {key: SparseOp(dim, dim, {(i, j): draw(nonzero)})})
    return _closed(case, coeffs, dim), kind


@settings(max_examples=80, deadline=None)
@given(rll_operands())
def test_rll_certificate_matches_full_engine(drawn):
    lop, kind = drawn
    rep = _assert_matches_full_engine(lop)
    if kind == "solution":
        assert rep.passed and "seeds" in rep.details["certificate"]
    if kind == "covariant":
        assert not rep.passed and "seeds" in rep.details["certificate"]


def test_lie_refutation_pinned():
    rep = check_lie(_corrupted_sp4_spinor(6)).to_dict()
    assert rep["passed"] is False
    assert rep["counterexample"] == {"at": "(-2, -2, -2, 2)", "residual": {"0,0": "24/1"}}


def _js_so5_block_scaled(part, key, factor):
    """JS so(5) 2l=2 with one block of G or H rescaled: (lop, {part: opmat})."""
    lop = build_js_quadratic(make_case("so_odd", 2), 2)
    mat = dict(lop.g_mat if part == "g" else lop.h_mat)
    mat[key] = mat[key].scale(factor)
    return lop, {part: mat}


def _spinor_so5(factor):
    lop = build_spinorial_linear(make_case("so_odd", 2))
    return lop, {"g": opmat_scale(lop.g_mat, factor)}


# Counterexamples of the Lie, adjoint and W negative controls, pinned verbatim
# from the n^4 pairwise scan they replaced: the first (a, b, c, d) in sorted
# order and the residual at its first entry on the safe columns.  The so(5)
# spinor's W residual is taken in its rational frame.
BLOCK_REFUTATIONS = [
    (check_lie, lambda: _js_so5_block_scaled("g", (-2, -1), Scalar(1, 0, 2)),
     "(-2, -1, -1, 1)", "1/2"),
    (check_lie, lambda: _spinor_so5(3), "(-2, -1, -2, 2)", "-6/1"),
    (check_adjoint, lambda: _js_so5_block_scaled("h", (-2, -2), Scalar(1, 0, 3)),
     "(-2, -1, -2, 1)", "-1/1"),
    (check_w_tensor, lambda: _js_so5_block_scaled("g", (-2, -1), Scalar(1, 0, 2)),
     "(-2, -2, -1, -1)", "-1/1"),
    (check_w_tensor, lambda: _spinor_so5(1), "(-2, -1, 0, 1)", "3/2"),
]


@pytest.mark.parametrize("check,build,at,residual", BLOCK_REFUTATIONS,
                         ids=["lie-js-so5-g-half", "lie-spinor-so5-g-times-3",
                              "adjoint-js-so5-h-third", "w-js-so5-g-half", "w-spinor-so5"])
def test_block_refutations_pinned(check, build, at, residual):
    lop, operands = build()
    rep = check(_changed(lop, **operands)).to_dict()
    assert rep["passed"] is False and rep["details"]["safe_columns"] > 0
    assert rep["counterexample"] == {"at": at, "residual": {"0,0": residual}}


# ---------------------------------------------------------------------------
# lie, adjoint and W decided on the Chevalley pairs


def _generator_record(check, lop, **operands):
    return check(_changed(lop, **operands)).details["generators"]


# What decided lie, W and adjoint (quadratic operators only): the pair count
# and W's seed count, or the premise that sent the check to every pair.
GENERATOR_RECORDS = [
    (lambda: build_js_quadratic(make_case("so_odd", 2), 2), 4, 2),
    (lambda: build_js_quadratic(make_case("so_even", 3), 2), 6, 2),
    (lambda: build_js_quadratic(make_case("sp", 2), 1), 4, 1),
    (lambda: build_spinorial_linear(make_case("so_odd", 2)), 4, 1),
    (lambda: build_spinorial_linear(make_case("so_even", 3)), 6, 2),
    (lambda: build_product(*[build_spinorial_linear(make_case("so_even", 2))] * 2, ONE), 4, 6),
    (lambda: build_heisenberg_linear(make_case("so_even", 2), 1, max_degree=3), None, None),
]


@pytest.mark.parametrize("build,pairs,seeds", GENERATOR_RECORDS,
                         ids=["js-so5", "js-so6", "js-sp4", "spinor-so5", "spinor-so6",
                              "product-so4", "heisenberg"])
def test_generator_path_taken(monkeypatch, build, pairs, seeds):
    # counts the block-kernel calls that compare every pair on every column:
    # none for a verdict reached on the generators, one for a rerun
    lop = build()
    calls = []

    def counting(case, g, x, den, cols, w_tensor=False, pairs=None):
        calls.append(len(cols) if pairs is None else None)
        return block_violation(case, g, x, den, cols, w_tensor, pairs)

    monkeypatch.setattr(verify, "block_violation", counting)
    checks = [check_lie, check_w_tensor] + [check_adjoint] * (lop.order == 2)
    for check in checks + [check_rll]:
        calls.clear()
        rep = check(lop)
        full = calls.count(rep.details["safe_columns"])
        if check is check_rll:
            assert rep.passed and full == 0
        elif pairs is None:
            assert rep.details["generators"] == {"premise_failed": "closed"} and full == 1
        else:
            want = {"pairs": pairs, "seeds": seeds} if check is check_w_tensor else {"pairs": pairs}
            assert rep.details["generators"] == want and full == (not rep.passed)


def test_generator_premise_failures_named():
    # G_(-2,-1) halved breaks the symmetry G + eps G^t = c eps Id; G times 3
    # is symmetric but fails the Lie relation on the pairs
    lop, operands = _js_so5_block_scaled("g", (-2, -1), Scalar(1, 0, 2))
    assert _generator_record(check_lie, lop, **operands) == {"premise_failed": "symmetric"}
    assert _generator_record(check_w_tensor, lop, **operands) == {"premise_failed": "symmetric"}
    lop, operands = _spinor_so5(3)
    assert _generator_record(check_lie, lop, **operands) == {"premise_failed": "lie"}
    # an adjoint refutation on the pairs keeps the pair record
    lop, operands = _js_so5_block_scaled("h", (-2, -2), Scalar(1, 0, 3))
    assert _generator_record(check_adjoint, lop, **operands) == {"pairs": 4}


@pytest.mark.parametrize("family,m,two_l", [("so_odd", 2, 2), ("so_even", 3, 2), ("sp", 2, 1),
                                             ("so_odd", 3, 2)])
def test_symmetric_off_generator_corruption_fails_on_pairs(family, m, two_l):
    # G_ab and G_ba doubled for an x_ab outside the pairs: G stays symmetric,
    # so the generator lemma says the pairs themselves must see it
    lop = build_js_quadratic(make_case(family, m), two_l)
    case, g = lop.case, lop.g_mat
    a, b = _off_generator_keys(case, g)[0]
    g = {**g, (a, b): g[a, b].scale(2), (b, a): g[b, a].scale(2)}
    assert _cleared_violation(case, g, g, range(lop.dim), pairs=chevalley_pairs(case))
    rep = check_lie(_changed(lop, g=g))
    assert not rep.passed and rep.details["generators"] == {"premise_failed": "lie"}


_VECTOR_REPS = {}


def _vector_rep(family, m):
    """(case, G, H, dim) of JS 2l=1, the vector representation, built once."""
    if (family, m) not in _VECTOR_REPS:
        lop = build_js_quadratic(make_case(family, m), 1)
        _VECTOR_REPS[family, m] = (lop.case, lop.g_mat, lop.h_mat, lop.dim)
    return _VECTOR_REPS[family, m]


def _off_generator_keys(case, g):
    """Blocks (a, b), b != -a, of G whose generator x_ab is no Chevalley pair."""
    pairs = set(chevalley_pairs(case))
    return sorted(key for key in g if key[1] != -key[0]
                  and key not in pairs and key[::-1] not in pairs)


def _shift_keys(case):
    """Basis keys (c, d) of root vectors: c != d and c != -d."""
    return [(c, d) for c, d in _g_basis(case) if c != d and c != -d]


def _shifted(case, g, key, t=ONE):
    """G with t Id added to G_cd and -eps t Id to G_dc: still symmetric."""
    (c, d), ident = key, SparseOp.identity(next(iter(g.values())).nrows)
    return opmat_add(g, {(c, d): ident.scale(t), (d, c): ident.scale(-t * case.eps)})


def _similar(draw, dim, diagonal):
    """(M, M^-1): a diagonal M, which keeps the Cartan blocks diagonal, or
    I + t E_pq, which does not."""
    if diagonal:
        ts = [draw(nonzero) for _ in range(dim)]
        return (SparseOp(dim, dim, {(i, i): t for i, t in enumerate(ts)}),
                SparseOp(dim, dim, {(i, i): t.inv() for i, t in enumerate(ts)}))
    p, q = draw(st.sampled_from([(p, q) for p in range(dim) for q in range(dim) if p != q]))
    t = draw(nonzero)
    return _unipotent(dim, p, q, t), _unipotent(dim, p, q, -t)


@st.composite
def generator_operands(draw):
    """(L-operator, kind) on a closed space for the generator premises.

    A solution (the vector representation of so(2), so(3), so(4), so(5),
    so(8), sp(2), sp(4) or sp(6) with its H, or the so(3) spinor with
    H = 0; rank one padded by a trivial summand to dim 3 at random) is
    conjugated by a diagonal matrix or by I + t E_pq (`_similar`) and then
    changed: "asymmetric" adds to one entry of one block of G, "g3" scales
    G by 3, "h" adds to one entry of one block of H, "off-generator"
    doubles G_ab and G_ba for a generator x_ab outside the Chevalley pairs,
    "generator" doubles them for a pair, and "shift" adds t Id to G_cd of a
    root vector x_cd (and -eps t Id to G_dc); the last three keep G
    symmetric, the first two of them the Cartan grading too.
    """
    family, m = draw(st.sampled_from([("so_even", 1), ("so_odd", 1), ("so_even", 2),
                                      ("so_odd", 2), ("so_even", 4), ("sp", 1), ("sp", 2),
                                      ("sp", 3), ("spinor", 1)]))
    if family == "spinor":
        case, g, h, dim = _base_solution("so_odd", "spinor")
    else:
        case, g, h, dim = _vector_rep(family, m)
    kinds = ["solution", "asymmetric", "g3"] + ["h"] * bool(h)
    if _off_generator_keys(case, g):
        kinds.append("off-generator")
    if _shift_keys(case):
        kinds += ["generator", "shift"]
    kind = draw(st.sampled_from(kinds))
    if dim == 2 and draw(st.booleans()):
        dim = 3
        g, h = _padded(g, dim), _padded(h, dim)
    mat, mat_inv = _similar(draw, dim, draw(st.booleans()))
    g, h = _conjugate(g, mat, mat_inv), _conjugate(h, mat, mat_inv)
    if kind in ("asymmetric", "h"):
        key = draw(st.sampled_from(sorted(product(case.indices, repeat=2))))
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        entry = {key: SparseOp(dim, dim, {(i, j): draw(nonzero)})}
        if kind == "h":
            h = opmat_add(h, entry)
        else:
            g = opmat_add(g, entry)
    elif kind == "g3":
        g = opmat_scale(g, 3)
    elif kind in ("off-generator", "generator"):
        keys = _off_generator_keys(case, g) if kind == "off-generator" else [
            p for p in chevalley_pairs(case) if p[1] != -p[0]]
        a, b = draw(st.sampled_from(keys))
        g = {**g, (a, b): g[a, b].scale(2), (b, a): g[b, a].scale(2)}
    elif kind == "shift":
        g = _shifted(case, g, draw(st.sampled_from(_shift_keys(case))), draw(nonzero))
    return _closed(case, [h, g, metric_opmat(case, dim)], dim), kind


@settings(max_examples=80, deadline=None)
@given(generator_operands())
def test_generator_verdicts_match_full_kernel(drawn):
    lop, kind = drawn
    case, dim, g = lop.case, lop.dim, lop.g_mat
    for check, x, w_tensor in ((check_lie, g, False), (check_adjoint, lop.h_mat, False),
                               (check_w_tensor, g, True)):
        full = _cleared_violation(case, g, x, range(dim), w_tensor)
        rep = check(lop)
        assert rep.passed == (full is None)
        if full is not None:
            at, residual = full
            assert rep.counterexample == (at, BiPoly({(0, 0): residual}))
    if kind == "solution":
        assert check_lie(lop).details["generators"] == {"pairs": len(chevalley_pairs(case))}
    if kind == "off-generator":
        # symmetric, so the Lie relation fails on the pairs themselves
        assert _cleared_violation(case, g, g, range(dim), pairs=chevalley_pairs(case))
        assert check_lie(lop).details["generators"] == {"premise_failed": "lie"}


@settings(max_examples=80, deadline=None)
@given(generator_operands())
def test_lie_premise_matches_full_relation(drawn):
    # the premise on a presentation of g (diagonal Cartan blocks) or on the
    # pairs (not) decides the Lie relation of every (a, b, c, d); symmetry
    # is decided as the Scalar test on G + eps G^t did
    lop, kind = drawn
    case, dim, g = lop.case, lop.dim, lop.g_mat
    sym = opmat_add(g, opmat_scale(opmat_transpose(g), case.eps))
    symmetric = scalar_images(case, sym, SparseOp.identity(dim))[0]
    assert (_cleared_multiple(case, g, case.eps) is not None) == symmetric
    pairs, record = verify._generators(Premises(lop))
    if not symmetric:
        assert pairs is None and record == {"premise_failed": "symmetric"}
        return
    full = _cleared_violation(case, g, g, range(dim))
    assert (pairs is not None) == (full is None)
    assert record == ({"pairs": len(chevalley_pairs(case))} if full is None
                      else {"premise_failed": "lie"})
    if kind in ("off-generator", "generator", "shift"):
        assert full is not None


# so(2) is abelian, so(4) = sl(2) x sl(2) is not simple; all of them present g
# through `structure.presentation` once their Cartan blocks are diagonal
PRESENTED = [("so_even", 1), ("so_odd", 1), ("so_even", 2), ("so_even", 4), ("sp", 2), ("sp", 3)]


@pytest.mark.parametrize("family,m", PRESENTED, ids=["so2", "so3", "so4", "so8", "sp4", "sp6"])
def test_lie_premise_on_a_presentation(family, m):
    # every root block doubled (graded and symmetric: only the relations of
    # the presentation can see it), every generator block doubled, and
    # every shift by Id, one pair's relation only for some, is refused
    case, g, h, dim = _vector_rep(family, m)
    top = metric_opmat(case, dim)
    assert _cleared_grading(case, g) is not None
    assert verify._generators(Premises(_closed(case, [g, top], dim)))[1] == {
        "pairs": len(chevalley_pairs(case))}
    pairs = chevalley_pairs(case)
    changed = [({**g, (a, b): g[a, b].scale(2), (b, a): g[b, a].scale(2)}, True)
               for a, b in _off_generator_keys(case, g) + [p for p in pairs if p[1] != -p[0]]]
    changed += [(_shifted(case, g, key), False) for key in _shift_keys(case)]
    one_pair = 0
    for g2, keeps_grading in changed:
        assert (_cleared_grading(case, g2) is not None
                and graded(_cleared_grading(case, g2), g2)) == keeps_grading
        failing = [p for p in pairs if _cleared_violation(case, g2, g2, range(dim), pairs=[p])]
        one_pair += len(failing) == 1
        assert failing and _cleared_violation(case, g2, g2, range(dim)) is not None
        assert verify._generators(Premises(_closed(case, [g2, top], dim))) == (
            None, {"premise_failed": "lie"})
    assert one_pair or family == "sp" or m == 1


@pytest.mark.parametrize("family,m,two_l,relations", [("so_odd", 3, 2, 31), ("sp", 3, 1, 31)])
def test_lie_premise_compares_a_presentation(monkeypatch, family, m, two_l, relations):
    # the block relations of the Lie premise, pinned: dim g + O(m^2), where
    # every key on the 2m pairs would be 2m dim g (126 on both)
    seen = []

    def spy(case, g, x, den, cols, w_tensor=False, pairs=None):
        seen.append(pairs)
        return block_violation(case, g, x, den, cols, w_tensor, pairs)

    monkeypatch.setattr(verify, "block_violation", spy)
    lop = build_js_quadratic(make_case(family, m), two_l)
    assert check_lie(lop).details["generators"] == {"pairs": 2 * m}
    (compared,) = seen
    assert sum(map(len, compared.values())) == relations


def _f_only_key(case, g, dim):
    """A key (c, d) at which t Id added to H is seen by the pairs P[1::2]
    and not by P[0::2]: H_cd = Id is a highest vector of the Borel half."""
    pairs = chevalley_pairs(case)
    return next(key for key in product(case.indices, repeat=2) if _cleared_violation(
        case, g, {key: SparseOp.identity(dim)}, range(dim), pairs=pairs[0::2]) is None
        and _cleared_violation(case, g, {key: SparseOp.identity(dim)}, range(dim),
                            pairs=pairs[1::2]) is not None)


@st.composite
def invariance_operands(draw):
    """(L-operator, kind) with G a representation for the invariance premise.

    The vector representation of so(3), so(4), so(5), so(7) or sp(4) with
    its H, conjugated by a diagonal matrix or by I + t E_pq (`_similar`),
    then H changed: "entry" adds one entry, "moved" moves one entry of
    H_cd to a position of another weight, and "f-only" adds t Id to the
    block of `_f_only_key`, which breaks the relations of the pairs
    P[1::2] only.
    """
    case, g, h, dim = _vector_rep(*draw(st.sampled_from(
        [("so_odd", 1), ("so_even", 2), ("so_odd", 2), ("so_odd", 3), ("sp", 2)])))
    kind = draw(st.sampled_from(["solution", "entry", "moved", "f-only"]))
    weight = _cleared_grading(case, g)[0]
    if kind == "entry":
        key = draw(st.sampled_from(sorted(product(case.indices, repeat=2))))
        i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        h = opmat_add(h, {key: SparseOp(dim, dim, {(i, j): draw(nonzero)})})
    elif kind == "moved":
        key = draw(st.sampled_from(sorted(h)))
        (i, j), v = draw(st.sampled_from(sorted(h[key].data.items())))
        i2 = draw(st.sampled_from([r for r in range(dim)
                                   if weight.get(r, 0) != weight.get(i, 0)]))
        data = {e: w for e, w in h[key].data.items() if e != (i, j)}
        data[i2, j] = data.get((i2, j), ZERO) + v
        h = {**h, key: SparseOp(dim, dim, data)}
    elif kind == "f-only":
        h = opmat_add(h, {_f_only_key(case, g, dim): SparseOp.identity(dim, draw(nonzero))})
    mat, mat_inv = _similar(draw, dim, draw(st.booleans()))
    g, h = _conjugate(g, mat, mat_inv), _conjugate(h, mat, mat_inv)
    return _closed(case, [h, g, metric_opmat(case, dim)], dim), kind


@settings(max_examples=80, deadline=None)
@given(invariance_operands())
def test_invariance_on_a_borel_half_matches_full(drawn):
    lop, kind = drawn
    case, dim, g, h = lop.case, lop.dim, lop.g_mat, lop.h_mat
    pairs = chevalley_pairs(case)
    premises = Premises(lop)
    assert premises.generators()[0] == pairs
    full = _cleared_violation(case, g, h, range(dim)) is None
    assert premises.invariant() == full
    if kind == "solution":
        assert full
    elif kind != "entry":
        assert not full
    grading = _cleared_grading(case, g)
    if kind in ("moved", "f-only") and grading is not None:
        assert not graded(grading, h)  # only the weight test sees these
    if kind == "f-only":
        assert _cleared_violation(case, g, h, range(dim), pairs=pairs[0::2]) is None
        assert _cleared_violation(case, g, h, range(dim), pairs=pairs[1::2]) is not None


def test_invariance_path_taken(monkeypatch):
    # diagonal Cartan blocks: the presentation, then the weight test and the
    # pairs P[0::2]; else all of P for both, for an operator conjugated by
    # I + t E_pq
    seen = []

    def spy(case, g, x, den, cols, w_tensor=False, pairs=None):
        seen.append(pairs)
        return block_violation(case, g, x, den, cols, w_tensor, pairs)

    monkeypatch.setattr(verify, "block_violation", spy)
    case, g, h, dim = _vector_rep("so_odd", 2)
    pairs = chevalley_pairs(case)
    mat, mat_inv = _unipotent(dim, 0, 1, Scalar(2)), _unipotent(dim, 0, 1, Scalar(-2))
    for gc, hc, want in ((g, h, pairs[0::2]),
                         (_conjugate(g, mat, mat_inv), _conjugate(h, mat, mat_inv), pairs)):
        seen.clear()
        assert Premises(_closed(case, [hc, gc, metric_opmat(case, dim)], dim)).invariant()
        assert (_cleared_grading(case, gc) is None) == (want == pairs)
        lie, invariance = seen
        assert lie == (pairs if want == pairs else presentation(case)) and invariance == want


def test_empty_safe_subspace_fails():
    # at trunc=1 no column is safe: even a corrupted operator would "pass"
    lop = _corrupted_sp4_spinor(1)
    for rep in (check_lie(lop), check_adjoint(_changed(lop, h=lop.g_mat)), check_rll(lop),
                check_w_tensor(lop), check_chi3(lop), check_linear_constraint(lop)):
        assert not rep.passed and rep.details["safe_columns"] == 0
        assert rep.to_dict()["counterexample"] == {"at": "('safe_columns', 0)",
                                                   "residual": "no columns compared"}


def test_vacuous_constraints_and_center_fail():
    # two Heisenberg factors at trunc 2: c23, c26 and c28 have no safe column
    case = make_case("so_even", 2)
    f = build_heisenberg_linear(case, 0, max_degree=2)
    rep = check_symmetric_constraints(build_product(f, f, ONE))
    assert not rep.passed
    assert rep.details == {"safe_columns": 0, "generators": {"premise_failed": "closed"}}
    assert rep.to_dict()["counterexample"] == {"at": "('safe_columns', 0)",
                                               "residual": "no columns compared"}
    # the sp(4) spinor at trunc 4 has no column for the commutator C(u) L(v)
    c, rep = center_function(build_spinorial_linear(make_case("sp", 2), trunc=4))
    assert not rep.passed and c.is_zero
    assert rep.details == {"commutator_columns": 0, "safe_columns": 1,
                           "generators": {"premise_failed": "closed"}}
    assert rep.to_dict()["counterexample"] == {"at": "('commutator_columns', 0)",
                                               "residual": "no columns compared"}


def _scalar_on(case, mat, basis, value=None):
    """The scalar test on the images of a formed opmat."""
    return scalar_images(case, opmat_apply(mat, basis), basis, value)


_SMALL = st.sampled_from([ZERO, ONE, Scalar(-2), Scalar(3, 0, 2)])


@st.composite
def scalar_cases(draw):
    """M = c eps Id + t E on a dim-4 module of so(3) or sp(2), and columns."""
    case = make_case(draw(st.sampled_from(["so_odd", "sp"])), 1)
    dim = 4
    mat = metric_opmat(case, dim, draw(_SMALL))
    key = (draw(st.sampled_from(case.indices)), draw(st.sampled_from(case.indices)))
    i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
    t = draw(_SMALL)
    if t:
        opmat_acc(mat, key, SparseOp(dim, dim, {(i, j): t}))
    cols = sorted(draw(st.sets(st.integers(0, dim - 1), min_size=1)))
    mix = [draw(_SMALL) for _ in cols]
    return case, dim, mat, cols, mix


def _dense_scalar(case, dim, mat, cols):
    """(ok, value) by reading every entry of every kept column."""
    value = ZERO
    for a in sorted(case.indices):
        op = mat.get((a, -a), SparseOp(dim, dim))
        hits = [op.data[(j, j)] for j in cols if (j, j) in op.data]
        if hits:
            value = hits[0] * case.metric_lower(a, -a).inv()
            break
    for a in case.indices:
        for b in case.indices:
            op = mat.get((a, b), SparseOp(dim, dim))
            for j in cols:
                for i in range(dim):
                    want = value * case.metric_lower(a, b) if i == j else ZERO
                    if op.data.get((i, j), ZERO) != want:
                        return False, value
    return True, value


@settings(max_examples=120, deadline=None)
@given(scalar_cases())
def test_scalar_test_agrees_across_bases(drawn):
    case, dim, mat, cols, mix = drawn
    unit = SparseOp(dim, len(cols), {(j, k): ONE for k, j in enumerate(cols)})
    # an echelon basis of the same columns: e_{c_k} + m_k e_{c_{k+1}}
    span = SparseOp(dim, len(cols), {**{(j, k): ONE for k, j in enumerate(cols)},
                                     **{(cols[k + 1], k): m for k, m in enumerate(mix[:-1])}})
    ok_ref, value_ref = _dense_scalar(case, dim, mat, cols)
    ok_unit, value_unit, bad_unit = _scalar_on(case, mat, unit)
    ok_span, value_span, bad_span = _scalar_on(case, mat, span)
    assert ok_unit == ok_span == ok_ref
    assert value_unit == value_ref
    assert (bad_unit is None) == ok_unit and (bad_span is None) == ok_span
    if ok_ref:
        assert value_span == value_ref
    else:
        assert bad_unit[1] and bad_span[1]
    # a value passed in is the one tested
    ok_zero, value_zero, _ = _scalar_on(case, mat, unit, ZERO)
    assert value_zero == ZERO and ok_zero == (ok_ref and not value_ref)
    # the int test of the record's top coefficient reads the same c
    ok_all, value_all = _dense_scalar(case, dim, mat, range(dim))
    assert _cleared_multiple(case, mat) == (value_all if ok_all else None)


def test_symmetric_constraints_js_so5():
    from yanglab.lops import js_highest_vector

    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    psi = js_highest_vector(case, lop.space, 2)
    span = cyclic_span(lop, [psi])
    rep = check_symmetric_constraints(lop, span=span)
    assert rep.passed
    assert rep.details == {"span_dimension": 14, "generators": {"pairs": 4, "span_seeds": 1}}
    assert rep.scalars["c21"] == ZERO
    assert rep.scalars["c23"] == Scalar(-41, 0, 8)
    # the degree-2 layer is reducible (the trace vector spans a trivial
    # submodule), so the quartic central element is only blockwise scalar:
    # the whole-space check must report that honestly
    whole = check_symmetric_constraints(lop)
    assert not whole.passed and whole.counterexample[0][0] == "c28"
    assert whole.details == {"safe_columns": 15, "generators": {"pairs": 4, "seeds": 2}}
    assert whole.scalars["c23"] == Scalar(-41, 0, 8)


def test_symmetric_constraints_product_of_heisenberg():
    case = make_case("so_even", 2)
    f1 = build_heisenberg_linear(case, 1, max_degree=5)
    f2 = build_heisenberg_linear(case, 1, max_degree=5)
    prod = build_product(f1, f2, ZERO)
    rep = check_symmetric_constraints(prod)
    assert rep.passed
    # k = -(1/2) delta^2 - l1(l1+beta) - l2(l2+beta) = -2 l(l+1) = -4
    assert rep.scalars["c23"] == Scalar(-4)


def test_linear_constraint_values_and_negative_control():
    lop = build_spinorial_linear(make_case("so_odd", 1))
    rep = check_linear_constraint(lop)
    assert rep.passed and rep.scalars["c2"] == Scalar(1, 0, 2)

    heis = build_heisenberg_linear(make_case("sp", 1), 2, max_degree=3)
    rep2 = check_linear_constraint(heis)
    assert rep2.passed and rep2.scalars["c2"] == Scalar(8)

    js = build_js_quadratic(make_case("so_even", 2), 2)
    assert not check_linear_constraint(js).passed


def test_w_and_chi3():
    js = build_js_quadratic(make_case("so_even", 2), 2)
    assert check_w_tensor(js).passed
    assert check_chi3(js).passed
    # fundamental representation
    js1 = build_js_quadratic(make_case("so_even", 2), 1)
    assert check_w_tensor(js1).passed and check_chi3(js1).passed
    # Clifford generators are not of bilinear form: W does not vanish
    spinor = build_spinorial_linear(make_case("so_even", 2))
    assert not check_w_tensor(spinor).passed


def test_chi3_contracts_g_twice(monkeypatch):
    # G o G and (G o G) o G; the Casimir reuses G o G
    import yanglab.verify as verify

    calls = []

    def counting(case, a, b):
        calls.append(1)
        return opmat_mul(case, a, b)

    monkeypatch.setattr(verify, "opmat_mul", counting)
    assert check_chi3(build_js_quadratic(make_case("so_odd", 2), 2)).passed
    assert len(calls) == 2


def test_center_trivial_linear():
    # L = u * metric: c(u) = u(u - beta)
    case = make_case("sp", 1)
    lop = build_spinorial_linear(case)
    from yanglab.lops import LOperator
    trivial = LOperator(case, lop.space, [{}, metric_opmat(case, lop.dim)],
                        entry_budget=0, kind="trivial")
    c, rep = center_function(trivial)
    assert rep.passed
    assert c == UniPoly.u() * (UniPoly.u() - case.beta)


def test_center_spinor_so3():
    lop = build_spinorial_linear(make_case("so_odd", 1))
    c, rep = center_function(lop)
    assert rep.passed and c.degree == 2
    # linear evaluation: c(u) = u(u-beta) - c2
    c2 = check_linear_constraint(lop).scalars["c2"]
    assert c == UniPoly.u() * (UniPoly.u() - lop.case.beta) - UniPoly.const(c2)


def test_center_js_so5_decomposes_into_constraint_scalars():
    from yanglab.lops import js_highest_vector

    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    psi = js_highest_vector(case, lop.space, 2)
    span = cyclic_span(lop, [psi])
    c, rep = center_function(lop, span=span)
    assert rep.passed and c.degree == 4
    scalars = check_symmetric_constraints(lop, span=span).scalars
    assert center_decomposition(case, c, scalars)
    # independent hand cross-check: c(u) = eps * eig_1(u - beta) eig_{-1}(u)
    from yanglab.exact import UniPoly
    eig1 = UniPoly([Scalar(15, 0, 16), Scalar(-2), Scalar(1)])
    eig_m1 = eig1.reflect()  # lambda_{-1}(-u) = eps lambda_1(u)
    assert c == eig1.shift(-case.beta) * eig_m1


# ---------------------------------------------------------------------------
# constraints, chi3 and center decided on seed columns


def _reference_constraints(lop, span=None):
    """(passed, scalars, counterexample): the four left sides formed as full
    operators, then compared on the module."""
    case, b, g, h = lop.case, lop.entry_budget, lop.g_mat, lop.h_mat
    eps, beta = Scalar.of(case.eps), case.beta
    gt, ht = opmat_transpose(g), opmat_transpose(h)

    def tt(x, y):
        return opmat_mul_tt(case, x, y)

    lhs = [("c21", b, opmat_add(g, opmat_scale(gt, eps))),
           ("c23", 2 * b, opmat_add(opmat_add(h, opmat_scale(ht, eps)),
                                    opmat_sub(tt(g, g), opmat_scale(g, beta)))),
           ("c26", 2 * b, opmat_add(opmat_add(tt(h, g), tt(g, h)),
                                    opmat_scale(opmat_sub(h, opmat_scale(ht, eps)), -beta))),
           ("c28", 2 * b, opmat_add(opmat_sub(tt(h, h), opmat_scale(tt(g, h), beta)),
                                    opmat_scale(h, beta * beta)))]
    scalars = {}
    for name, budget, mat in lhs:
        ok, value, bad = _scalar_on(case, mat, verify._module_basis(lop, budget, span)[0])
        if not ok:
            return False, scalars, ((name,) + bad[0], BiPoly({(0, 0): bad[1]}))
        scalars[name] = value
    return True, scalars, None


def _reference_chi3(lop):
    case, dim, g = lop.case, lop.dim, lop.g_mat
    eps, beta = Scalar.of(case.eps), case.beta
    gg = opmat_mul(case, g, g)
    sigma = SparseOp(dim, dim)
    for a in case.indices:
        if (-a, a) in gg:
            sigma = sigma + gg[-a, a].scale(Scalar(case.sign(-a), 0, 2))
    chi = opmat_add(opmat_mul(case, gg, g), opmat_scale(gg, eps + beta + beta))
    chi = opmat_add(chi, opmat_scale(g, eps * beta * Scalar(2)))
    chi = opmat_sub(chi, {key: (sigma @ op).scale(eps) for key, op in g.items()})
    chi = opmat_sub(chi, {(a, -a): sigma.scale(case.metric_lower(a, -a)) for a in case.indices})
    basis = verify._module_basis(lop, 3 * lop.entry_budget)[0]
    ok, _, bad = _scalar_on(case, chi, basis, ZERO)
    return ok, {}, None if ok else (bad[0], BiPoly({(0, 0): bad[1]}))


def _reference_center(lop, span=None):
    """(passed, {"c(u)": c}, counterexample) with C(u) formed as operators."""
    case, b = lop.case, lop.entry_budget
    comm_basis = verify._module_basis(lop, 3 * b)[0]
    basis = verify._module_basis(lop, 2 * b, span)[0]
    shifted = opmat_poly_subs(lop.coeffs, ONE, -case.beta)
    c_poly = opmat_poly_mul(shifted, lop.coeffs, lambda x, y: opmat_mul_tt(case, x, y))
    for k1, cm in enumerate(c_poly):
        for k2, lm in enumerate(lop.coeffs):
            comm = opmat_sub(opmat_mul(case, cm, lm), opmat_mul(case, lm, cm))
            ok, _, bad = _scalar_on(case, comm, comm_basis, ZERO)
            if not ok:
                return False, {}, (("commutator", k1, k2) + bad[0], BiPoly({(0, 0): bad[1]}))
    values = []
    for k, cm in enumerate(c_poly):
        ok, value, bad = _scalar_on(case, cm, basis)
        if not ok:
            return False, {}, (("coeff", k) + bad[0], BiPoly({(0, 0): bad[1]}))
        values.append(value)
    return True, {"c(u)": UniPoly(values)}, None


_CENTRAL_BASES = {}


def _central_base(name):
    """A closed solution with a hw vector, built once: JS or a spinor product."""
    if name not in _CENTRAL_BASES:
        if name == "product":
            factor = build_spinorial_linear(make_case("so_even", 2))
            lop = build_product(factor, factor, ONE)
        else:
            family, m, two_l = name
            lop = build_js_quadratic(make_case(family, m), two_l)
        _CENTRAL_BASES[name] = lop
    return _CENTRAL_BASES[name]


@st.composite
def central_operands(draw):
    """(L-operator, span, kind) for the central checks.

    The conjugated small solutions and corruptions of `generator_operands`
    and `rll_operands`, or a closed solution with its hw vector: JS so(4)
    and so(5) with 2l <= 3, JS sp(4) at 2l = 1 or a product of two so(4)
    spinors.  That is changed covariantly (H + t eps Id or H + t G, which
    keep every premise) or not (one block of H, or one G_ab whose x_ab is
    no Chevalley generator, scaled), and decided on its cyclic span or on W.
    """
    source = draw(st.sampled_from(["generator", "rll", "closed"]))
    if source != "closed":
        lop, kind = draw(generator_operands() if source == "generator" else rll_operands())
        return lop, None, kind
    base = _central_base(draw(st.sampled_from(
        [("so_even", 2, 1), ("so_even", 2, 2), ("so_even", 2, 3), ("so_odd", 2, 1),
         ("so_odd", 2, 2), ("so_odd", 2, 3), ("sp", 2, 1), "product"])))
    case, dim = base.case, base.dim
    h, g, top = base.coeffs
    kind = draw(st.sampled_from(["solution", "covariant", "non-covariant"]))
    if kind == "covariant":
        t = draw(nonzero)
        h = opmat_add(h, metric_opmat(case, dim, t) if draw(st.booleans()) else opmat_scale(g, t))
    elif kind == "non-covariant":
        part = draw(st.sampled_from(["g"] * bool(_off_generator_keys(case, g)) + ["h"]))
        mat = dict(g if part == "g" else h)
        key = draw(st.sampled_from(_off_generator_keys(case, g) if part == "g" else sorted(h)))
        mat[key] = mat[key].scale(draw(nonzero.filter(lambda s: s != 1)))
        g, h = (mat, h) if part == "g" else (g, mat)
    lop = LOperator(case, base.space, [h, g, top], hw_vector=base.hw_vector)
    span = cyclic_span(lop, [lop.hw_vector]) if draw(st.booleans()) else None
    return lop, span, kind


@settings(max_examples=40, deadline=None)
@given(central_operands())
def test_central_seed_verdicts_match_full_operators(drawn):
    lop, span, kind = drawn
    runs = [(lambda: check_chi3(lop), lambda: _reference_chi3(lop)),
            (lambda: center_function(lop, span=span)[1], lambda: _reference_center(lop, span))]
    if lop.order == 2:
        runs.append((lambda: check_symmetric_constraints(lop, span=span),
                     lambda: _reference_constraints(lop, span)))
    for check, reference in runs:
        rep = check()
        assert (rep.passed, rep.scalars, rep.counterexample) == reference()
        if kind in ("solution", "covariant"):  # every premise holds: S was compared
            generators = rep.details["generators"]
            assert "seeds" in generators or "span_seeds" in generators


_entry_values = st.sampled_from([ZERO, ZERO, ONE, -ONE, Scalar(2), Scalar(-3, 0, 2)])


@st.composite
def symmetric_top_operators(draw):
    """(case, s, coeffs, c): L(u) = u^s eps_ab Id + u^(s-1) G (+ H, s = 2)
    on a 2-dimensional space, G = X - eps X^t + (c/2) eps_ab Id for random
    X, so that G + eps G^t = c eps_ab Id; X and H are random otherwise."""
    family, m = draw(st.sampled_from([("so_odd", 1), ("so_odd", 2), ("so_even", 2),
                                      ("so_even", 3), ("sp", 1), ("sp", 2), ("sp", 3)]))
    case, order = make_case(family, m), draw(st.sampled_from([1, 2]))

    def random_opmat():
        out = {}
        for key in product(case.indices, repeat=2):
            op = SparseOp(2, 2, {(i, j): draw(_entry_values) for i in range(2) for j in range(2)})
            if not op.is_zero:
                out[key] = op
        return out

    x, c = random_opmat(), draw(_entry_values)
    g = opmat_add(opmat_sub(x, opmat_scale(opmat_transpose(x), Scalar.of(case.eps))),
                  metric_opmat(case, 2, c * Scalar(1, 0, 2)))
    coeffs = ([random_opmat()] if order == 2 else []) + [g, metric_opmat(case, 2)]
    return case, order, coeffs, c


@settings(max_examples=60, deadline=None)
@given(symmetric_top_operators())
def test_center_top_coefficients_are_scalar_metric(drawn):
    # the claim that lets the center skip [C_2s, L_j] and [C_(2s-1), L_j]:
    # C_2s = eps_ab Id and C_(2s-1) = (c - s beta) eps_ab Id once the top
    # is eps_ab Id and G + eps G^t = c eps_ab Id, whatever H is
    case, order, coeffs, c = drawn
    shifted = opmat_poly_subs(coeffs, ONE, -case.beta)
    c_poly = opmat_poly_mul(shifted, coeffs, lambda x, y: opmat_mul_tt(case, x, y))
    ident = SparseOp.identity(2)
    assert scalar_images(case, c_poly[2 * order], ident)[:2] == (True, ONE)
    assert scalar_images(case, c_poly[2 * order - 1], ident)[:2] == (True, c - order * case.beta)


def test_central_checks_apply_thin_products(monkeypatch):
    # no product inside constraints, chi3 or center has a right operand wider
    # than n^2 |S|: a fall-back to dim x dim products (dim 50 > 36) shows at
    # the kernel, in the widths of the terms it scatters
    import yanglab.lops as lops

    lop = build_js_quadratic(make_case("so_even", 3), 3)
    span = cyclic_span(lop, [lop.hw_vector])
    premises = Premises(lop)
    assert premises.central(scalar_top=True, invariant=True)[0] is not None
    seeds = len(premises.seeds())
    widths = []
    kernel = lops.scatter

    def counting(columns, terms):
        terms = list(terms)
        widths.extend(op.ncols for _, _, _, op in terms)
        return kernel(columns, terms)

    monkeypatch.setattr(lops, "scatter", counting)
    reports = [check_symmetric_constraints(lop, premises=premises),
               check_symmetric_constraints(lop, span=span, premises=premises),
               check_chi3(lop, premises=premises),
               center_function(lop, premises=premises)[1],
               center_function(lop, span=span, premises=premises)[1]]
    assert all(rep.passed for rep in reports)
    assert seeds == 1 and widths and max(widths) <= lop.case.n ** 2 * seeds < lop.dim
    assert [rep.details["generators"] for rep in reports] == [
        {"pairs": 6, "seeds": 1}, {"pairs": 6, "span_seeds": 1}, {"pairs": 6, "seeds": 1},
        {"pairs": 6, "seeds": 1}, {"pairs": 6, "seeds": 1, "span_seeds": 1}]


def test_central_premise_failures_named():
    # truncated spaces keep the full path; a non-scalar top only stops the
    # center, whose C(u) contains it, and a changed H stops constraints
    heis = build_heisenberg_linear(make_case("so_even", 2), 1, max_degree=3)
    assert center_function(heis)[1].details["generators"] == {"premise_failed": "closed"}
    top = _top_scaled_once("so_odd", 2)
    assert center_function(top)[1].details["generators"] == {"premise_failed": "scalar_top"}
    assert check_chi3(top).details["generators"] == {"pairs": 4, "seeds": 2}
    lop, operands = _js_so5_block_scaled("h", (-2, -2), Scalar(1, 0, 3))
    bad_h = LOperator(lop.case, lop.space, [operands["h"], lop.g_mat, lop.coeffs[2]])
    rep = check_symmetric_constraints(bad_h)
    assert not rep.passed and rep.details["generators"] == {"premise_failed": "invariant"}
