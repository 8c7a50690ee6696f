"""Symbolic identity checks: Lie/adjoint relations, RLL, constraints, center."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yanglab.exact import ONE, ZERO, Scalar, SparseOp, UniPoly, common_denominator
from yanglab.lops import (
    LOperator,
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    metric_opmat,
    opmat_acc,
    opmat_mul,
    opmat_scale,
)
from yanglab.structure import make_case
from yanglab.verify import (
    center_decomposition,
    center_function,
    check_adjoint,
    check_chi3,
    check_lie,
    check_linear_constraint,
    check_rll,
    check_symmetric_constraints,
    check_w_tensor,
    opmat_scalar_on,
)


def test_lie_spinor_so4_and_negative_control():
    lop = build_spinorial_linear(make_case("so_even", 2))
    assert check_lie(lop).passed
    broken = dict(lop.g_mat)
    broken.pop((-1, 1))
    rep = check_lie(lop, g=broken)
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
    rep = check_adjoint(lop, g=lop.g_mat, h=lop.g_mat)
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
    # c_0 carries sqrt2: the engine runs on Scalars here
    (lambda: _spinor_g_scaled("so_odd", 2),
     "((-2, -2, 2), (-2, -1, 1))",
     {"0,1": "-9/1", "0,2": "6/1", "1,0": "9/1", "1,1": "-12/1", "2,0": "6/1"}),
]


@pytest.mark.parametrize("build,at,residual", RLL_REFUTATIONS,
                         ids=["js-so4-no-h", "js-so5-no-h", "spinor-sp4-corrupted",
                              "js-so5-h-third", "spinor-so5-corrupted"])
def test_rll_refutations_pinned(build, at, residual):
    rep = check_rll(build()).to_dict()
    assert rep["passed"] is False
    assert rep["counterexample"] == {"at": at, "residual": residual}


def test_so5_spinor_carries_sqrt2():
    # keeps the spinor-so5-corrupted refutation on the Scalar path of the engine
    lop = build_spinorial_linear(make_case("so_odd", 2))
    values = [v for mat in lop.coeffs for op in mat.values() for v in op.data.values()]
    assert common_denominator(values) is None


def test_rll_js_so7_rank_three():
    lop = build_js_quadratic(make_case("so_odd", 3), 2)
    rep = check_rll(lop)
    assert rep.passed and rep.details["safe_columns"] == lop.dim == 28


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
# spinor carries sqrt2, so the kernel runs on Scalars there.
BLOCK_REFUTATIONS = [
    (check_lie, lambda: _js_so5_block_scaled("g", (-2, -1), Scalar(1, 0, 2)),
     "(-2, -1, -1, 1)", "1/2"),
    (check_lie, lambda: _spinor_so5(3), "(-2, -1, -2, 2)", "-6/1"),
    (check_adjoint, lambda: _js_so5_block_scaled("h", (-2, -2), Scalar(1, 0, 3)),
     "(-2, -1, -2, 1)", "-1/1"),
    (check_w_tensor, lambda: _js_so5_block_scaled("g", (-2, -1), Scalar(1, 0, 2)),
     "(-2, -2, -1, -1)", "-1/1"),
    (check_w_tensor, lambda: _spinor_so5(1), "(-2, -1, 0, 1)", "0/1+3/2*s2"),
]


@pytest.mark.parametrize("check,build,at,residual", BLOCK_REFUTATIONS,
                         ids=["lie-js-so5-g-half", "lie-spinor-so5-g-times-3",
                              "adjoint-js-so5-h-third", "w-js-so5-g-half", "w-spinor-so5"])
def test_block_refutations_pinned(check, build, at, residual):
    lop, operands = build()
    rep = check(lop, **operands).to_dict()
    assert rep["passed"] is False and rep["details"]["safe_columns"] > 0
    assert rep["counterexample"] == {"at": at, "residual": {"0,0": residual}}


def test_empty_safe_subspace_fails():
    # at trunc=1 no column is safe: even a corrupted operator would "pass"
    lop = _corrupted_sp4_spinor(1)
    for rep in (check_lie(lop), check_adjoint(lop, h=lop.g_mat), check_rll(lop),
                check_w_tensor(lop), check_chi3(lop), check_linear_constraint(lop)):
        assert not rep.passed and rep.details["safe_columns"] == 0
        assert rep.to_dict()["counterexample"] == {"at": "('safe_columns', 0)",
                                                   "residual": "no columns compared"}


def test_vacuous_constraints_and_center_fail():
    # two Heisenberg factors at trunc 2: c23, c26 and c28 have no safe column
    case = make_case("so_even", 2)
    f = build_heisenberg_linear(case, 0, max_degree=2)
    rep = check_symmetric_constraints(build_product(f, f, ONE))
    assert not rep.passed and rep.details == {"safe_columns": 0}
    assert rep.to_dict()["counterexample"] == {"at": "('safe_columns', 0)",
                                               "residual": "no columns compared"}
    # the sp(4) spinor at trunc 4 has no column for the commutator C(u) L(v)
    c, rep = center_function(build_spinorial_linear(make_case("sp", 2), trunc=4))
    assert not rep.passed and c.is_zero
    assert rep.details == {"commutator_columns": 0, "safe_columns": 1}
    assert rep.to_dict()["counterexample"] == {"at": "('commutator_columns', 0)",
                                               "residual": "no columns compared"}


_SMALL = st.sampled_from([ZERO, ONE, Scalar(-2), Scalar(3, 0, 2), Scalar(1, 1, 1)])


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
    ok_unit, value_unit, bad_unit = opmat_scalar_on(case, mat, unit)
    ok_span, value_span, bad_span = opmat_scalar_on(case, mat, span)
    assert ok_unit == ok_span == ok_ref
    assert value_unit == value_ref
    assert (bad_unit is None) == ok_unit and (bad_span is None) == ok_span
    if ok_ref:
        assert value_span == value_ref
    else:
        assert bad_unit[1] and bad_span[1]
    # a value passed in is the one tested
    ok_zero, value_zero, _ = opmat_scalar_on(case, mat, unit, ZERO)
    assert value_zero == ZERO and ok_zero == (ok_ref and not value_ref)


def test_symmetric_constraints_js_so5():
    from yanglab.lops import js_highest_vector
    from yanglab.verify import cyclic_span

    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    psi = js_highest_vector(case, lop.space, 2)
    span = cyclic_span(lop, [psi])
    rep = check_symmetric_constraints(lop, span=span)
    assert rep.passed and rep.details == {"span_dimension": 14}
    assert rep.scalars["c21"] == ZERO
    assert rep.scalars["c23"] == Scalar(-41, 0, 8)
    # the degree-2 layer is reducible (the trace vector spans a trivial
    # submodule), so the quartic central element is only blockwise scalar:
    # the whole-space check must report that honestly
    whole = check_symmetric_constraints(lop)
    assert not whole.passed and whole.counterexample[0][0] == "c28"
    assert whole.details == {"safe_columns": 15}
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
    assert not check_w_tensor(spinor, g=spinor.g_mat).passed


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
    from yanglab.verify import cyclic_span

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
