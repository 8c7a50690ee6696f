"""Acceptance suite: every exit criterion, exact (tolerance zero throughout).

Each test prints one verdict line; run with `pytest -s tests/test_acceptance.py`
to see them.  All expected values are either hand-derived constants or
recomputed through an independent oracle inside the test.
"""

import time
from fractions import Fraction
from functools import lru_cache

from yanglab.exact import ONE, ZERO, Scalar, UniPoly
from yanglab.lops import (
    LOperator,
    build_gl2_js_chain,
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    cyclic_span,
    default_js_central_value,
    fuse_so3_from_gl2,
    product_vector,
    spinor_flipped_vacuum,
    spinor_vacuum,
)
from yanglab.spaces import spinor_space
from yanglab.structure import check_ybe, fundamental_r, make_case, sp2_gl2_comparison
from yanglab.verify import (
    center_decomposition,
    center_function,
    check_chi3,
    check_linear_constraint,
    check_rll,
    check_symmetric_constraints,
    check_w_tensor,
)
from yanglab.weights import (
    drinfeld_test,
    ratios,
    reduced_ratios,
    weight_components,
    weight_functions,
    weight_report,
)

HALF = Scalar(1, 0, 2)
U = UniPoly.u()

YBE_CASES = [("so_odd", 1), ("so_even", 2), ("so_odd", 2), ("sp", 1), ("sp", 2)]
JS_INSTANCES = ([("so_even", 2, t) for t in (1, 2, 3)]
                + [("so_odd", 2, t) for t in (1, 2, 3)]
                + [("sp", 1, t) for t in (0, 1)]
                + [("sp", 2, t) for t in (0, 1)])


def announce(number, name, passed=True):
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number} [{name}]: {verdict}")
    assert passed, f"criterion {number} ({name}) failed"


@lru_cache(maxsize=None)
def spinor(family, m):
    return build_spinorial_linear(make_case(family, m), trunc=6)


@lru_cache(maxsize=None)
def heisenberg(family, m, ell_num, ell_den=1, degree=3):
    return build_heisenberg_linear(make_case(family, m),
                                   Scalar.rational(ell_num, ell_den),
                                   max_degree=degree)


@lru_cache(maxsize=None)
def js(family, m, two_l):
    return build_js_quadratic(make_case(family, m), two_l)


@lru_cache(maxsize=None)
def spinor_product(delta_int, flip_second):
    case = make_case("so_even", 2)
    f1 = build_spinorial_linear(case)
    f2 = build_spinorial_linear(case)
    prod = build_product(f1, f2, Scalar.of(delta_int))
    space, gens = spinor_space(case)
    v2 = spinor_flipped_vacuum(case, space, gens) if flip_second else spinor_vacuum(space)
    vec = product_vector(spinor_vacuum(space), f2.space, v2)
    return prod, vec


@lru_cache(maxsize=None)
def js_report(family, m, two_l):
    lop = js(family, m, two_l)
    return weight_report(lop, lop.hw_vector)


def ratio_equal(pair_a, pair_b):
    return pair_a[0] * pair_b[1] == pair_b[0] * pair_a[1]


# ---------------------------------------------------------------------------


def test_criterion_01_ybe_suite():
    started = time.perf_counter()
    for family, m in YBE_CASES:
        case = make_case(family, m)
        assert check_ybe(case).passed, case.label()
    control = check_ybe(make_case("so_odd", 1),
                        fundamental_r(make_case("so_odd", 1), flip_k=True))
    assert not control.passed and not control.violation[2].is_zero
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"YBE suite took {elapsed:.1f}s"
    announce(1, f"YBE suite, {elapsed:.1f}s")


def test_criterion_02_sp2_gl2_r_matrix():
    scalar, passed = sp2_gl2_comparison()
    assert passed
    assert scalar == UniPoly([Scalar(2), Scalar(2)])  # 2(u+1)
    announce(2, "sp(2) R-matrix = 2(u+1) x gl(2) Yang matrix at u/2")


def test_criterion_03_rll_suite():
    started = time.perf_counter()
    for family, m in YBE_CASES:
        assert check_rll(spinor(family, m)).passed, ("spinor", family, m)
    for family, m in [("so_even", 2), ("sp", 1), ("sp", 2)]:
        for ell in (0, 1, 2):
            assert check_rll(heisenberg(family, m, ell)).passed, ("heis", family, m, ell)
    for family, m, two_l in JS_INSTANCES:
        assert check_rll(js(family, m, two_l)).passed, ("js", family, m, two_l)
    for delta in (0, 1):
        prod, _ = spinor_product(delta, False)
        assert check_rll(prod).passed, ("product", delta)
    # negative control: dropping H breaks the quadratic truncation
    full = js("so_even", 2, 2)
    no_h = LOperator(full.case, full.space, [{}, full.g_mat, full.coeffs[2]],
                     entry_budget=0, kind="js_no_h")
    assert not check_rll(no_h).passed
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"RLL suite took {elapsed:.1f}s"
    announce(3, f"RLL suite, {elapsed:.1f}s")


def test_criterion_04_constraint_scalars():
    for family, m in YBE_CASES:
        lop = spinor(family, m)
        case = lop.case
        rep = check_linear_constraint(lop)
        assert rep.passed
        assert rep.scalars["c2"] == Scalar(case.eps * (case.n - case.eps), 0, 4)
    # three rational points certify the degree-2 identity c2(l) = l(l+beta)
    for family, m in [("so_even", 2), ("sp", 1), ("sp", 2)]:
        case = make_case(family, m)
        for ell in (0, 1, 2):
            rep = check_linear_constraint(heisenberg(family, m, ell))
            assert rep.passed
            assert rep.scalars["c2"] == Scalar.of(ell) * (Scalar.of(ell) + case.beta)
    for family, m, two_l in JS_INSTANCES:
        lop = js(family, m, two_l)
        span = cyclic_span(lop, [lop.hw_vector])
        rep = check_symmetric_constraints(lop, span=span)
        assert rep.passed, (family, m, two_l)
        assert rep.scalars["c21"] == ZERO
        assert rep.scalars["c23"] == default_js_central_value(lop.case, two_l)
    announce(4, "constraint scalars: c2 = eps(n-eps)/4, l(l+beta); c23 = k")


def test_criterion_05_weight_reproduction():
    for family, m in YBE_CASES:
        lop = spinor(family, m)
        wf = weight_functions(lop, spinor_vacuum(lop.space))
        assert all(wf.eig[i].coeff(0) == -HALF for i in range(1, m + 1)), (family, m)
    for family in ("so_even", "sp"):
        for m in (2, 3):
            case = make_case(family, m)
            lop = build_spinorial_linear(case, trunc=6)
            space, gens = spinor_space(case, trunc=6)
            wf = weight_functions(lop, spinor_flipped_vacuum(case, space, gens))
            lams = [wf.eig[i].coeff(0) for i in range(1, m + 1)]
            last = HALF if family == "so_even" else -Scalar(3, 0, 2)
            assert lams == [-HALF] * (m - 1) + [last], (family, m)
    # Heisenberg ratio sequence (1, ..., 1, (u+l)/(u-l))
    for family, m in [("so_even", 2), ("sp", 1), ("sp", 2)]:
        for ell in (1, 2):
            lop = heisenberg(family, m, ell)
            wf = weight_functions(lop, lop.hw_vector)
            red = reduced_ratios(ratios(wf, lop.case))
            for i in range(m - 1):
                assert red[i] == (UniPoly.const(1), UniPoly.const(1))
            assert ratio_equal(red[-1], (U + ell, U - ell)), (family, m, ell)
    # JS weight sequence (-eps 2l, 0, ..., 0) and the f_1 formula
    for family, m, two_l in JS_INSTANCES:
        rep = js_report(family, m, two_l)
        case = rep.case
        comps = rep.components
        assert comps["lam1"][1] == Scalar.of(-case.eps * two_l)
        for i in range(2, m + 1):
            assert comps["lam1"][i] == ZERO
        if m >= 2:
            w = (case.beta + (two_l - 1)) * HALF
            assert ratio_equal(rep.reduced[0], (U + two_l - w, U - w)), (family, m, two_l)
    # sp(2), twoL=1: the single ratio in closed form
    rep = js_report("sp", 1, 1)
    assert ratio_equal(rep.reduced[0], (U + 1, U - 1))
    announce(5, "weights: spinor, Heisenberg, Jordan-Schwinger sequences")


def test_criterion_06_condition_suites():
    # linear two-factor conditions for every linear construction
    for family, m in YBE_CASES:
        lop = spinor(family, m)
        rep = weight_report(lop, spinor_vacuum(lop.space))
        assert rep.condition_report.passed, ("spinor", family, m)
        if family != "so_odd":
            case = lop.case
            space, gens = spinor_space(case, trunc=6)
            rep_t = weight_report(lop, spinor_flipped_vacuum(case, space, gens))
            assert rep_t.condition_report.passed, ("spinor-flipped", family, m)
    for family, m in [("so_even", 2), ("sp", 1), ("sp", 2)]:
        for ell in (0, 1, 2):
            lop = heisenberg(family, m, ell)
            rep = weight_report(lop, lop.hw_vector)
            assert rep.condition_report.passed, ("heis", family, m, ell)
    # quadratic conditions: Lambda identities, bar relations, three-factor
    for family, m, two_l in JS_INSTANCES:
        rep = js_report(family, m, two_l)
        cond = rep.condition_report
        assert cond.passed, ("js", family, m, two_l)
        assert all(cond.details["lambda_identities"])
        assert cond.details["bar_vanishes"] is True
        assert "three_factor" in cond.details and all(cond.details["three_factor"])
    for delta in (0, 1):
        for flip in (False, True):
            prod, vec = spinor_product(delta, flip)
            rep = weight_report(prod, vec)
            cond = rep.condition_report
            assert cond.passed, ("product", delta, flip)
            assert all(cond.details["lambda_identities"])
            assert all(cond.details["bar_relations"])
    announce(6, "two-factor, Lambda, bar and three-factor condition suites")


def test_criterion_07_finiteness():
    # so(2m) spinor: P = (1, ..., 1, u - 1/2)
    for m in (2, 3):
        lop = spinor("so_even", m)
        rep = weight_report(lop, spinor_vacuum(lop.space))
        dr = rep.drinfeld
        assert dr.exists
        assert all(r.roots == {} for r in dr.ratios[:-1])
        assert dr.ratios[-1].roots == {Fraction(1, 2): 1}
    # so(2m+1) spinor: P = (1, ..., 1, u) at shift 1/2
    for m in (1, 2):
        lop = spinor("so_odd", m)
        rep = weight_report(lop, spinor_vacuum(lop.space))
        assert rep.drinfeld.exists
        assert rep.drinfeld.ratios[-1].roots == {Fraction(0): 1}
        assert rep.drinfeld.ratios[-1].shift == Fraction(1, 2)
    # sp spinor: the criterion is not fulfilled
    for m in (1, 2):
        lop = spinor("sp", m)
        rep = weight_report(lop, spinor_vacuum(lop.space))
        assert not rep.drinfeld.exists
    # Heisenberg under shift 2: exists iff 2l is even (round-trip is
    # asserted inside drinfeld_test whenever a polynomial exists)
    for two_ell, want in [(1, False), (2, True), (3, False), (4, True)]:
        lop = heisenberg("sp", 1, two_ell, 2)
        rep = weight_report(lop, lop.hw_vector)
        assert rep.drinfeld.exists is want, (two_ell, want)
    # so(2m) Heisenberg at l = 2: P = (u-2)(u-1)u(u+1)
    lop = heisenberg("so_even", 2, 2)
    rep = weight_report(lop, lop.hw_vector)
    assert rep.drinfeld.exists
    assert rep.drinfeld.ratios[-1].roots == {Fraction(2): 1, Fraction(1): 1,
                                             Fraction(0): 1, Fraction(-1): 1}
    announce(7, "Drinfeld polynomials and non-existence witnesses")


def test_criterion_08_fusion():
    for chain in ([(ZERO, 1)], [(ZERO, 1), (HALF, 1)]):
        gl2 = build_gl2_js_chain(chain)
        lop, qdet = fuse_so3_from_gl2(gl2)
        assert not qdet.is_zero
        assert check_rll(lop).passed, chain
        rep = weight_report(lop, lop.hw_vector)
        assert rep.passed
        fnum, fden = gl2.ratio()
        doubled = (fnum.compose_linear(Scalar(2), ZERO),
                   fden.compose_linear(Scalar(2), ZERO))
        assert ratio_equal(rep.reduced[0], doubled), chain
    announce(8, "so(3) fusion: RLL after clearing qdet and f1(u) = f(2u)")


def test_criterion_09_center():
    for family, m in YBE_CASES:
        lop = spinor(family, m)
        c, rep = center_function(lop)
        assert rep.passed and c.degree == 2, ("spinor", family, m)
        c2 = check_linear_constraint(lop).scalars["c2"]
        assert c == U * (U - lop.case.beta) - UniPoly.const(c2)
    for family, m in [("so_even", 2), ("sp", 1), ("sp", 2)]:
        lop = heisenberg(family, m, 1, 1, 4)
        c, rep = center_function(lop)
        assert rep.passed and c.degree == 2, ("heis", family, m)
    for family, m, two_l in [("so_even", 2, 1), ("so_even", 2, 2),
                             ("so_odd", 2, 2), ("sp", 1, 1), ("sp", 2, 1)]:
        lop = js(family, m, two_l)
        span = cyclic_span(lop, [lop.hw_vector])
        c, rep = center_function(lop, span=span)
        assert rep.passed and c.degree == 4, ("js", family, m, two_l)
        scalars = check_symmetric_constraints(lop, span=span).scalars
        assert center_decomposition(lop.case, c, scalars), (family, m, two_l)
    prod, vec = spinor_product(1, False)
    span = cyclic_span(prod, [vec])
    c, rep = center_function(prod, span=span)
    assert rep.passed and c.degree == 4
    scalars = check_symmetric_constraints(prod, span=span).scalars
    assert center_decomposition(prod.case, c, scalars)
    lop, qdet = fuse_so3_from_gl2(build_gl2_js_chain([(ZERO, 1)]))
    span = cyclic_span(lop, [lop.hw_vector])
    c, rep = center_function(lop, span=span)
    assert rep.passed and not c.is_zero
    announce(9, "center generating function scalar + constraint decomposition")


def test_criterion_10_w_tensor_and_cubic():
    for family, m, two_l in JS_INSTANCES:
        lop = js(family, m, two_l)
        assert check_w_tensor(lop).passed, (family, m, two_l)
        assert check_chi3(lop).passed, (family, m, two_l)
        comps = js_report(family, m, two_l).components
        lams = [comps["lam1"][i] for i in range(1, m + 1)]
        for i in range(m):
            for j in range(i + 1, m):
                assert ((lams[i] - 1) * lams[j]).is_zero
            if lop.case.eps == -1:
                assert ((lams[i] - 1) * lams[i]).is_zero
    announce(10, "W tensor, cubic identity, and weight consequences")
