"""L-operator constructions: entries, hand-checked eigenvalues, budgets."""

import pytest

from yanglab.exact import ONE, ZERO, Scalar, SparseOp, UniPoly, reduce_ratio
from yanglab.lops import (
    build_gl2_js_chain,
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    default_js_central_value,
    fuse_so3_from_gl2,
    heisenberg_vacuum,
    js_highest_vector,
    metric_opmat,
    opmat_add,
    opmat_mul,
    opmat_scale,
    opmat_sub,
    product_vector,
    spinor_vacuum,
)
from yanglab.spaces import spinor_space
from yanglab.structure import make_case


def opmat_eq_on_cols(a, b, dim, cols):
    diff = opmat_sub(a, b)
    return all(op.is_zero_on_cols(cols) for op in diff.values())


def vec_scaled(vec, s):
    return {k: v * s for k, v in vec.items() if not (v * s).is_zero}


def eig_poly_on(lop, a, b, vec):
    """Eigen-polynomial of L_ab(u) on vec; asserts proportionality."""
    coeff_vecs = lop.entry_poly_on_vector(a, b, vec)
    anchor = next(iter(vec))
    out = []
    for cv in coeff_vecs:
        lam = cv.get(anchor, ZERO) * vec[anchor].inv()
        assert cv == vec_scaled(vec, lam), "not an eigenvector"
        out.append(lam)
    return UniPoly(out)


def test_metric_opmat_is_identity_for_lowered_product():
    case = make_case("sp", 2)
    space, gens = spinor_space(case, trunc=3)
    ident = metric_opmat(case, space.dim)
    g = {(1, -2): gens.c(1), (-1, 2): gens.c(-1) @ gens.c(2)}
    assert opmat_mul(case, ident, g) == g
    assert opmat_mul(case, g, ident) == g


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("so_even", 2), ("so_odd", 2),
                                      ("sp", 1), ("sp", 2)])
def test_spinor_linear_constraint(family, m):
    # G^2 + beta G = (eps/4)(n - eps) * metric
    case = make_case(family, m)
    lop = build_spinorial_linear(case)
    g = lop.g_mat
    lhs = opmat_add(opmat_mul(case, g, g), opmat_scale(g, case.beta))
    c2 = Scalar(case.eps * (case.n - case.eps), 0, 4)
    rhs = metric_opmat(case, lop.dim, c2)
    cols = lop.space.safe_indices(2 * lop.entry_budget)
    assert cols
    assert opmat_eq_on_cols(lhs, rhs, lop.dim, cols)


def test_spinor_so4_vacuum_weight():
    case = make_case("so_even", 2)
    lop = build_spinorial_linear(case)
    vac = spinor_vacuum(lop.space)
    g_entry = lop.g_mat[(-1, 1)]
    assert g_entry.apply(vac) == vec_scaled(vac, Scalar(-1, 0, 2))


def test_spinor_eps_antisymmetry():
    for family, m in [("sp", 1), ("so_even", 2), ("so_odd", 2)]:
        case = make_case(family, m)
        lop = build_spinorial_linear(case)
        cols = lop.space.safe_indices(lop.entry_budget)
        g = lop.g_mat
        for a in case.indices:
            for b in case.indices:
                lhs = g.get((a, b), SparseOp.zeros(lop.dim, lop.dim))
                rhs = g.get((b, a), SparseOp.zeros(lop.dim, lop.dim)).scale(-case.eps)
                assert (lhs - rhs).is_zero_on_cols(cols), (a, b)


@pytest.mark.parametrize("family,m,ell", [("so_even", 2, 0), ("so_even", 2, 1),
                                          ("so_even", 2, 2), ("sp", 1, 2), ("sp", 2, 1)])
def test_heisenberg_linear_constraint(family, m, ell):
    # G^2 + beta G = l(l + beta) * metric on the safe subspace
    case = make_case(family, m)
    lop = build_heisenberg_linear(case, ell, max_degree=3)
    g = lop.g_mat
    lhs = opmat_add(opmat_mul(case, g, g), opmat_scale(g, case.beta))
    c2 = Scalar.of(ell) * (Scalar.of(ell) + case.beta)
    rhs = metric_opmat(case, lop.dim, c2)
    cols = lop.space.safe_indices(2)
    assert cols
    assert opmat_eq_on_cols(lhs, rhs, lop.dim, cols)


def test_heisenberg_vacuum_weights():
    case = make_case("so_even", 2)
    lop = build_heisenberg_linear(case, 1, max_degree=3)
    vac = heisenberg_vacuum(lop.space)
    for i in (1, 2):
        assert eig_poly_on(lop, -i, i, vac) == UniPoly([-ONE, ONE])   # u - 1
        assert eig_poly_on(lop, i, -i, vac) == UniPoly([ONE, ONE])    # u + 1
    # trivial weight at l = 0: G annihilates constants
    lop0 = build_heisenberg_linear(make_case("sp", 1), 0, max_degree=3)
    vac0 = heisenberg_vacuum(lop0.space)
    for key, op in lop0.g_mat.items():
        assert op.apply(vac0) == {}


def test_js_so5_hand_values():
    case = make_case("so_odd", 2)
    assert default_js_central_value(case, 2) == Scalar(-41, 0, 8)
    lop = build_js_quadratic(case, 2)
    psi = js_highest_vector(case, lop.space, 2)
    # eigenpolynomial of L_{-1,1}(u) is (u - 5/4)(u - 3/4) = u^2 - 2u + 15/16
    assert eig_poly_on(lop, -1, 1, psi) == UniPoly([Scalar(15, 0, 16), Scalar(-2), ONE])
    assert eig_poly_on(lop, -2, 2, psi) == UniPoly([Scalar(-25, 0, 16), ZERO, ONE])
    # G eps-antisymmetry holds exactly (closed layer)
    g = lop.g_mat
    for a in case.indices:
        for b in case.indices:
            lhs = g.get((a, b), SparseOp.zeros(lop.dim, lop.dim))
            rhs = g.get((b, a), SparseOp.zeros(lop.dim, lop.dim)).scale(-case.eps)
            assert lhs == rhs


def test_js_sp2_fundamental():
    case = make_case("sp", 1)
    lop = build_js_quadratic(case, 1)
    assert lop.dim == 2
    psi = js_highest_vector(case, lop.space, 1)
    eig1 = eig_poly_on(lop, -1, 1, psi)
    # lambda_1(-u) = eps (u - 1)(u - 2l + 1) = -u(u - 1) for 2l = 1, beta = 2
    assert eig1 == UniPoly([ZERO, ONE, -ONE])


def test_product_structure_and_weights():
    case = make_case("so_even", 2)
    f1 = build_spinorial_linear(case)
    f2 = build_spinorial_linear(case)
    delta = ONE
    prod = build_product(f1, f2, delta)
    assert prod.order == 2
    assert prod.coeffs[2] == metric_opmat(case, prod.dim)
    # u-coefficient is G1 (x) 1 + 1 (x) G2
    id1 = SparseOp.identity(f1.dim)
    id2 = SparseOp.identity(f2.dim)
    expected_g = {}
    for key, op in f1.g_mat.items():
        expected_g[key] = op.kron(id2)
    for key, op in f2.g_mat.items():
        expected_g = opmat_add(expected_g, {key: id1.kron(op)})
    assert prod.g_mat == expected_g
    # weights on |0> (x) |0>: lambda^(1) components add to -1
    vac = product_vector(f1.space, spinor_vacuum(f1.space),
                         f2.space, spinor_vacuum(f2.space))
    for i in (1, 2):
        eig = eig_poly_on(prod, -i, i, vac)
        assert eig.degree == 2 and eig.coeff(1) == -ONE


def test_gl2_chain_and_ratio():
    gl2 = build_gl2_js_chain([(ZERO, 1)])
    assert gl2.eigen_a() == UniPoly([-ONE, ONE]) and gl2.eigen_d() == UniPoly.u()
    # verify by action on the highest monomial
    hw = {gl2.hw_index: ONE}
    vals = []
    for k in range(gl2.order + 1):
        cv = gl2.coeff_entry(k, 1, 1).apply(hw)
        vals.append(cv.get(gl2.hw_index, ZERO))
        assert gl2.coeff_entry(k, 1, 2).apply(hw) == {}
    assert UniPoly(vals) == gl2.eigen_a()
    num, den = reduce_ratio(*gl2.ratio())
    assert (num, den) == (UniPoly([ONE, ONE]), UniPoly.u())  # (u+1)/u

    with pytest.raises(ValueError):
        build_gl2_js_chain([(ZERO, -1)])

    gl2b = build_gl2_js_chain([(ZERO, 1), (Scalar(1, 0, 2), 1)])
    numb, denb = reduce_ratio(*gl2b.ratio())
    u = UniPoly.u()
    assert numb * (u * (u + Scalar(1, 0, 2))) == denb * ((u + 1) * (u + Scalar(3, 0, 2)))


def test_fusion_single_factor_weights():
    gl2 = build_gl2_js_chain([(ZERO, 1)])
    lop, qdet = fuse_so3_from_gl2(gl2)
    assert lop.case.family == "so_odd" and lop.case.m == 1
    # q(u) = a(2u+2) d(2u+1) = (2u+1)^2
    assert qdet == UniPoly([ONE, Scalar(4), Scalar(4)])
    hw = {gl2.hw_index: ONE}
    # raising entries annihilate the highest vector
    for k in range(lop.order + 1):
        assert lop.coeff(k).get((-1, -1), SparseOp.zeros(lop.dim, lop.dim)).apply(hw) == {}
        assert lop.coeff(k).get((-1, 0), SparseOp.zeros(lop.dim, lop.dim)).apply(hw) == {}
    def eig(a, b):
        vals = []
        for k in range(lop.order + 1):
            cv = lop.coeff(k).get((a, b), SparseOp.zeros(lop.dim, lop.dim)).apply(hw)
            vals.append(cv.get(gl2.hw_index, ZERO))
            assert all(idx == gl2.hw_index for idx in cv)
        return UniPoly(vals)
    two_u = UniPoly([ZERO, Scalar(2)])
    a_p, d_p = gl2.eigen_a(), gl2.eigen_d()
    subs = lambda p, c: p.compose_linear(Scalar(2), c)
    assert eig(-1, 1) == subs(a_p, ZERO) * subs(a_p, ONE)
    assert eig(0, 0) == subs(d_p, ZERO) * subs(a_p, ONE)
    assert eig(1, -1) == subs(d_p, ZERO) * subs(d_p, ONE)


def test_fusion_trivial_chain_is_metric_pattern():
    gl2 = build_gl2_js_chain([(ZERO, 0)])
    lop, qdet = fuse_so3_from_gl2(gl2)
    case = lop.case
    for k, mat in enumerate(lop.coeffs):
        for (a, b), op in mat.items():
            assert a == -b, "only metric-pattern entries may appear"
