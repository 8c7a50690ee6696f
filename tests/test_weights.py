"""Highest-weight extraction, ratio functions, weight conditions, finiteness."""

from fractions import Fraction

import pytest

from yanglab.exact import ONE, ZERO, Scalar, UniPoly, reduce_ratio
from yanglab.lops import (
    build_gl2_js_chain,
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    fuse_so3_from_gl2,
    heisenberg_vacuum,
    js_highest_vector,
    product_vector,
    spinor_flipped_vacuum,
    spinor_vacuum,
)
from yanglab.spaces import spinor_space
from yanglab.structure import make_case
from yanglab.verify import check_gl2_rll
from yanglab.weights import (
    DrinfeldRatio,
    WeightFunction,
    check_lambda_identities,
    check_linear_conditions,
    check_quadratic_conditions,
    drinfeld_test,
    find_highest_weight,
    lambda_big,
    ratios,
    reduced_ratios,
    verify_highest_weight,
    weight_components,
    weight_functions,
    weight_report,
)

HALF = Scalar(1, 0, 2)
U = UniPoly.u()


def ratio_equal(pair_a, pair_b):
    return pair_a[0] * pair_b[1] == pair_b[0] * pair_a[1]


def test_spinor_vacuum_is_highest_weight_everywhere():
    for family, m in [("so_odd", 1), ("so_odd", 2), ("so_even", 2), ("sp", 1), ("sp", 2)]:
        lop = build_spinorial_linear(make_case(family, m))
        assert verify_highest_weight(lop, spinor_vacuum(lop.space)).passed


def test_so_odd_flipped_vacuum_fails():
    case = make_case("so_odd", 2)
    lop = build_spinorial_linear(case)
    space, gens = spinor_space(case)
    tilted = spinor_flipped_vacuum(case, space, gens)
    rep = verify_highest_weight(lop, tilted)
    assert not rep.passed
    bad_key = rep.counterexample[0][0]
    assert bad_key in [(-i, 0) for i in range(1, 3)] + [(0, -i) for i in range(1, 3)]


def test_flipped_vacuum_passes_for_even_families():
    for family in ("so_even", "sp"):
        case = make_case(family, 2)
        lop = build_spinorial_linear(case)
        space, gens = spinor_space(case)
        tilted = spinor_flipped_vacuum(case, space, gens)
        assert verify_highest_weight(lop, tilted).passed


def test_find_highest_weight_spinor_so4():
    case = make_case("so_even", 2)
    lop = build_spinorial_linear(case)
    found = find_highest_weight(lop)
    assert len(found) == 2
    supports = sorted(frozenset(v) for v in found)
    vac = lop.space.index[0]
    tilted = lop.space.index[2]  # occupation bitmask of mode 2
    assert supports == sorted([frozenset({vac}), frozenset({tilted})])


def test_find_highest_weight_js():
    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    found = find_highest_weight(lop)
    psi = js_highest_vector(case, lop.space, 2)
    anchor = next(iter(psi))
    assert any(anchor in v for v in found)
    # the trivial one-dimensional layer is its own highest-weight space
    lop0 = build_js_quadratic(make_case("sp", 1), 0)
    assert len(find_highest_weight(lop0)) == 1


def test_spinor_weights_and_ratios_so5():
    case = make_case("so_odd", 2)
    lop = build_spinorial_linear(case)
    wf = weight_functions(lop, spinor_vacuum(lop.space))
    assert wf.eig[1] == U - HALF and wf.eig[2] == U - HALF
    assert wf.eig[0] == U
    red = reduced_ratios(ratios(wf, case))
    assert red[0] == (UniPoly.const(1), UniPoly.const(1))
    assert red[1] == (U + HALF, U)


def test_spinor_ratios_so4_and_sp4():
    case = make_case("so_even", 2)
    lop = build_spinorial_linear(case)
    wf0 = weight_functions(lop, spinor_vacuum(lop.space))
    red0 = reduced_ratios(ratios(wf0, case))
    assert red0[0] == (UniPoly.const(1), UniPoly.const(1))
    assert red0[1] == (U + HALF, U - HALF)
    space, gens = spinor_space(case)
    wft = weight_functions(lop, spinor_flipped_vacuum(case, space, gens))
    redt = reduced_ratios(ratios(wft, case))
    assert redt[0] == (U + HALF, U - HALF)
    assert redt[1] == (UniPoly.const(1), UniPoly.const(1))

    sp4 = make_case("sp", 2)
    lop_sp = build_spinorial_linear(sp4)
    wf_sp = weight_functions(lop_sp, spinor_vacuum(lop_sp.space))
    red_sp = reduced_ratios(ratios(wf_sp, sp4))
    assert red_sp[0] == (UniPoly.const(1), UniPoly.const(1))
    assert red_sp[1] == (U - HALF, U + HALF)
    spc, gensc = spinor_space(sp4, trunc=6)
    wf_t = weight_functions(lop_sp, spinor_flipped_vacuum(sp4, spc, gensc))
    red_t = reduced_ratios(ratios(wf_t, sp4))
    assert red_t[0] == (U - HALF, U - Scalar(3, 0, 2))
    assert red_t[1] == (U - Scalar(3, 0, 2), U + Scalar(3, 0, 2))


def test_heisenberg_ratios():
    case = make_case("so_even", 2)
    lop = build_heisenberg_linear(case, 1, max_degree=3)
    wf = weight_functions(lop, heisenberg_vacuum(lop.space))
    red = reduced_ratios(ratios(wf, case))
    assert red[0] == (UniPoly.const(1), UniPoly.const(1))
    assert red[1] == (U + 1, U - 1)


def test_js_ratios_so5_and_so4():
    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    wf = weight_functions(lop, js_highest_vector(case, lop.space, 2))
    red = reduced_ratios(ratios(wf, case))
    assert red[0] == (U + Scalar(3, 0, 4), U - Scalar(5, 0, 4))
    assert red[1] == (UniPoly.const(1), UniPoly.const(1))

    so4 = make_case("so_even", 2)
    lop4 = build_js_quadratic(so4, 2)
    wf4 = weight_functions(lop4, js_highest_vector(so4, lop4.space, 2))
    red4 = reduced_ratios(ratios(wf4, so4))
    assert red4[0] == (U + 1, U - 1)
    assert red4[1] == (U + 1, U - 1)


def test_lambda_big_values():
    # trivial linear representation: eig_a(u) = eps_{-a,a} u
    case = make_case("so_odd", 2)
    wf = WeightFunction(case, {a: U * case.metric_lower(-a, a) for a in case.indices})
    lam = lambda_big(wf, 1, case.beta, ZERO)
    assert lam == (U - case.beta) * U
    lop = build_spinorial_linear(case)
    wfs = weight_functions(lop, spinor_vacuum(lop.space))
    # adjacent-index Lambda identity at (alpha, gamma) = (beta, 1)
    assert lambda_big(wfs, 1, case.beta, ONE) == lambda_big(wfs, 2, case.beta, ONE)
    assert lambda_big(wfs, 1, case.beta, ZERO) == (U - 2) * (U + HALF)


def test_linear_conditions_examples():
    so5 = make_case("so_odd", 2)
    assert check_linear_conditions([-HALF, -HALF], so5).passed
    so4 = make_case("so_even", 2)
    assert check_linear_conditions([-HALF, HALF], so4).passed
    assert not check_linear_conditions([ZERO, ONE], so4).passed
    # spinor weights of every constructed case satisfy the conditions
    for family, m in [("so_odd", 2), ("so_even", 2), ("sp", 2)]:
        case = make_case(family, m)
        lop = build_spinorial_linear(case)
        wf = weight_functions(lop, spinor_vacuum(lop.space))
        lams = [wf.eig[i].coeff(0) for i in range(1, m + 1)]
        assert check_linear_conditions(lams, case).passed


def test_quadratic_conditions_js_so5():
    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    wf = weight_functions(lop, js_highest_vector(case, lop.space, 2))
    rep = check_quadratic_conditions(wf, case, k=Scalar(-41, 0, 8))
    assert rep.passed
    assert rep.details["bar_vanishes"] is True
    assert rep.details["three_factor"] == [True, True]


def test_quadratic_conditions_equal_weights_synthetic():
    # (lam, ..., lam), (bar, ..., bar) passes layers (a) and (b) exactly
    case = make_case("so_even", 2)
    lam, bar, k = Scalar(3), Scalar(7), Scalar(5)
    eps = Scalar.of(case.eps)
    tilde = (lam * lam - eps * case.beta * lam + k) * HALF * eps
    eig = {}
    for i in (1, 2):
        eig[i] = UniPoly([tilde + bar, lam, eps])
        eig[-i] = UniPoly([eps * tilde - eps * bar, -eps * lam, ONE])
    wf = WeightFunction(case, eig)
    rep = check_quadratic_conditions(wf, case, k=k)
    assert rep.details["lambda_identities"] == [True]
    assert rep.details["bar_relations"] == [True]
    assert rep.passed


def test_product_weights_factorize_and_bar_component():
    case = make_case("so_even", 2)
    f1 = build_spinorial_linear(case)
    f2 = build_spinorial_linear(case)
    delta = ONE
    prod = build_product(f1, f2, delta)
    space, gens = spinor_space(case)
    v1 = spinor_vacuum(f1.space)
    v2 = spinor_flipped_vacuum(case, space, gens)
    vec = product_vector(v1, f2.space, v2)
    assert verify_highest_weight(prod, vec).passed
    wf = weight_functions(prod, vec)
    wf1 = weight_functions(f1, v1)
    wf2 = weight_functions(f2, v2)
    eps = Scalar.of(case.eps)
    for i in (1, 2):
        expected = wf1.eig[i].shift(-delta * HALF) * wf2.eig[i].shift(delta * HALF) * eps
        assert wf.eig[i] == expected
        expected_m = wf1.eig[-i].shift(-delta * HALF) * wf2.eig[-i].shift(delta * HALF)
        assert wf.eig[-i] == expected_m
    comps = weight_components(wf)
    # weight sequence (-1, 0), bar sequence (0, -delta/2) with this factor order
    assert comps["lam1"][1] == -ONE and comps["lam1"][2] == ZERO
    assert comps["bar"][1] == ZERO and comps["bar"][2] == -delta * HALF
    rep = check_quadratic_conditions(wf, case)
    assert rep.details["bar_relations"] == [True]
    assert rep.passed


def test_product_ratio_multiplicativity():
    case = make_case("so_even", 2)
    delta = Scalar(3)
    f1 = build_heisenberg_linear(case, 1, max_degree=4)
    f2 = build_heisenberg_linear(case, 2, max_degree=4)
    prod = build_product(f1, f2, delta)
    vec = product_vector(heisenberg_vacuum(f1.space), f2.space, heisenberg_vacuum(f2.space))
    wf = weight_functions(prod, vec)
    r12 = ratios(wf, case)
    r1 = ratios(weight_functions(f1, heisenberg_vacuum(f1.space)), case)
    r2 = ratios(weight_functions(f2, heisenberg_vacuum(f2.space)), case)
    # f'_i(u) = f_{1,i}(u + delta/2) * f_{2,i}(u - delta/2)
    for i in range(2):
        n1, d1 = r1[i]
        n2, d2 = r2[i]
        num = n1.shift(delta * HALF) * n2.shift(-delta * HALF)
        den = d1.shift(delta * HALF) * d2.shift(-delta * HALF)
        assert ratio_equal(r12[i], (num, den))


def test_drinfeld_examples():
    sp2 = make_case("sp", 1)
    so4 = make_case("so_even", 2)
    # (u+1)/(u-1) at shift 1: P = u(u-1)
    res = drinfeld_test([(U + 1, U - 1), (UniPoly.const(1), UniPoly.const(1))], so4)
    assert res.exists
    assert res.ratios[0].roots == {Fraction(0): 1, Fraction(1): 1}
    assert res.ratios[1].roots == {}
    # (u-1/2)/(u+1/2) at shift 2: no polynomial
    res2 = drinfeld_test([(U - HALF, U + HALF)], sp2)
    assert not res2.exists and res2.ratios[0].witness is not None
    with pytest.raises(ValueError):
        # u^2 - 2 has no rational roots: the ratio data is rejected
        drinfeld_test([(UniPoly([Scalar(-2), ZERO, ONE]), U * U - 1)], sp2)


def test_drinfeld_spinor_and_heisenberg_families():
    # so(2m) spinor: P = (1, ..., 1, u - 1/2)
    so4 = make_case("so_even", 2)
    lop = build_spinorial_linear(so4)
    wf = weight_functions(lop, spinor_vacuum(lop.space))
    res = drinfeld_test(reduced_ratios(ratios(wf, so4)), so4)
    assert res.exists
    assert res.ratios[0].roots == {}
    assert res.ratios[1].roots == {Fraction(1, 2): 1}
    # so(2m+1) spinor: P = (1, ..., 1, u), shift 1/2
    so5 = make_case("so_odd", 2)
    lop5 = build_spinorial_linear(so5)
    wf5 = weight_functions(lop5, spinor_vacuum(lop5.space))
    res5 = drinfeld_test(reduced_ratios(ratios(wf5, so5)), so5)
    assert res5.exists and res5.ratios[1].roots == {Fraction(0): 1}
    assert res5.ratios[1].shift == Fraction(1, 2)
    # sp spinor: criterion fails
    sp4 = make_case("sp", 2)
    lopsp = build_spinorial_linear(sp4)
    wfsp = weight_functions(lopsp, spinor_vacuum(lopsp.space))
    assert not drinfeld_test(reduced_ratios(ratios(wfsp, sp4)), sp4).exists
    # Heisenberg sp: exists iff 2l is even
    sp2 = make_case("sp", 1)
    for ell, want in [(1, True), (2, True), (Fraction(1, 2), False), (Fraction(3, 2), False)]:
        heis = build_heisenberg_linear(sp2, Scalar.of(ell) if isinstance(ell, int) else
                                       Scalar.rational(ell.numerator, ell.denominator),
                                       max_degree=3)
        wfh = weight_functions(heis, heisenberg_vacuum(heis.space))
        got = drinfeld_test(reduced_ratios(ratios(wfh, sp2)), sp2).exists
        assert got is want, (ell, want)
    # Heisenberg so(2m): P = (u-l)(u-l+1)...(u+l-1)
    heis4 = build_heisenberg_linear(so4, 1, max_degree=3)
    wfh4 = weight_functions(heis4, heisenberg_vacuum(heis4.space))
    res4 = drinfeld_test(reduced_ratios(ratios(wfh4, so4)), so4)
    assert res4.exists and res4.ratios[1].roots == {Fraction(0): 1, Fraction(1): 1}


def test_gl2_embedding_sp2():
    # the generator quadruple of sp(2) at doubled argument obeys gl(2) RLL
    case = make_case("sp", 1)
    lop = build_js_quadratic(case, 1)
    amap = {1: -1, 2: 1}
    bmap = {1: 1, 2: -1}
    coeffs = []
    two_pow = ONE
    for k, mat in enumerate(lop.coeffs):
        level = {}
        for alpha in (1, 2):
            for beta in (1, 2):
                op = mat.get((amap[alpha], bmap[beta]))
                if op is not None:
                    level[(alpha, beta)] = op.scale(two_pow)
        coeffs.append(level)
        two_pow = two_pow * 2
    assert check_gl2_rll(coeffs, lop.dim).passed


def test_gl2_chain_satisfies_gl2_rll():
    gl2 = build_gl2_js_chain([(ZERO, 1), (HALF, 2)])
    rep = check_gl2_rll(gl2.coeffs, gl2.space.dim)
    assert rep.passed
    # T and R of degrees 2 and 1: u^a v^b with a, b <= 3 and a + b <= 5
    assert rep.details == {"safe_columns": 6, "keys_compared": 15}


def test_gl2_rll_negative_control():
    # doubling the u^0 coefficient of T_12 breaks the RLL relation
    gl2 = build_gl2_js_chain([(ZERO, 1), (HALF, 2)])
    coeffs = [dict(level) for level in gl2.coeffs]
    coeffs[0][(1, 2)] = coeffs[0][(1, 2)].scale(2)
    rep = check_gl2_rll(coeffs, gl2.space.dim).to_dict()
    assert rep["passed"] is False
    assert rep["counterexample"] == {"at": "((0, 1), 0, 7)", "residual": {"0,1": "5/2"}}


def test_fusion_weight_report_and_ratio_doubling():
    gl2 = build_gl2_js_chain([(ZERO, 1)])
    lop, qdet = fuse_so3_from_gl2(gl2)
    hw = {gl2.hw_index: ONE}
    report = weight_report(lop, hw)
    assert report.passed
    assert report.condition_report.details["lambda_identities"] == [True]
    # f_1(u) = f(2u)
    fnum, fden = gl2.ratio()
    expect = (fnum.compose_linear(Scalar(2), ZERO), fden.compose_linear(Scalar(2), ZERO))
    assert ratio_equal(report.reduced[0], expect)
    assert report.drinfeld.exists
    assert report.drinfeld.ratios[0].roots == {Fraction(0): 1}


def test_weight_report_full_pipeline_js():
    case = make_case("so_odd", 2)
    lop = build_js_quadratic(case, 2)
    rep = weight_report(lop, js_highest_vector(case, lop.space, 2))
    assert rep.passed
    assert rep.k == Scalar(-41, 0, 8)
    assert rep.drinfeld.exists
    data = rep.to_dict()
    assert data["k"] == "-41/8"
    assert data["conditions"]["passed"] is True
