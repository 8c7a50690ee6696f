"""L-operator constructions: entries, hand-checked eigenvalues, budgets."""

import hashlib
import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yanglab import lops, spaces
from yanglab.cli import DEFAULT_CHECKS, run_checks
from yanglab.exact import ONE, ZERO, Scalar, SparseOp, UniPoly, VectorSpan, reduce_ratio
from yanglab.lops import (
    GL2_PAIRING,
    build_gl2_js_chain,
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    cyclic_span,
    default_js_central_value,
    fuse_so3_from_gl2,
    generating_set,
    heisenberg_vacuum,
    js_highest_vector,
    metric_opmat,
    opmat_acc,
    opmat_add,
    opmat_apply,
    opmat_contract,
    opmat_form,
    opmat_mul,
    opmat_mul_tt,
    opmat_poly_subs,
    opmat_scale,
    opmat_sub,
    opmat_transpose,
    product_vector,
    spinor_vacuum,
)
from yanglab.spaces import js_layer_generators, spinor_space
from yanglab.structure import make_case
from yanglab.verify import Premises

# the elimination over Q that VectorSpan is tested against
from test_exact import _FractionSpan


def opmat_eq_on_cols(a, b, dim, cols):
    diff = opmat_sub(a, b)
    return all(op.restrict_cols(cols).is_zero for op in diff.values())


def vec_scaled(vec, s):
    return {k: v * s for k, v in vec.items() if not (v * s).is_zero}


def eig_poly_on(lop, a, b, vec):
    """Eigen-polynomial of L_ab(u) on vec; asserts proportionality."""
    coeff_vecs = [mat[a, b].apply(vec) if (a, b) in mat else {} for mat in lop.coeffs]
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
                assert (lhs - rhs).restrict_cols(cols).is_zero, (a, b)


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
    vac = product_vector(spinor_vacuum(f1.space), f2.space, spinor_vacuum(f2.space))
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
        cv = gl2.coeffs[k][1, 1].apply(hw)
        vals.append(cv.get(gl2.hw_index, ZERO))
        assert (1, 2) not in gl2.coeffs[k] or gl2.coeffs[k][1, 2].apply(hw) == {}
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


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _vectors_key(vectors):
    return [sorted((i, str(v)) for i, v in vec.items()) for vec in vectors]


def _coeffs_key(lop):
    return [sorted((list(key), sorted((i, j, str(v)) for (i, j), v in op.data.items()))
                   for key, op in mat.items()) for mat in lop.coeffs]


# (digest of the cyclic span of hw on the layer, VectorSpan.add calls and
# accepts of that closure, digest of the restricted coefficients and hw
# vector, the generating set of the restricted module under its G_p,
# digest of the span vectors that generating_set picks on the layer).  All
# but the third were taken from the elimination over Scalar rows that the
# integer rows replaced; the third is the operator in the reduced echelon
# basis of the span, which is unique, so any correct restriction gives it
JS_SPAN_PINS = {
    ("so_odd", 2): ("9de8f9215aaace4e", 1173, 30, "d7dca583753215f9", [14], "39051f43e021c544"),
    ("so_even", 3): ("a2790f9f3eab17b0", 2424, 50, "947229c59ba8e9f5", [34], "39051f43e021c544"),
}


def _reference_layer(case, two_l):
    """The JS operator on the whole degree-2l layer, built test-side: G from
    the generators of `homogeneous_space` (`js_layer_generators`), H from
    Scalar opmat products.  sp's layer is labelled by bitmasks of the
    occupied modes, its hw vector the mode of x_(-1) (the empty mask at
    2l = 0)."""
    layer, g = js_layer_generators(case, two_l)
    k = default_js_central_value(case, two_l)
    h = opmat_add(opmat_add(opmat_mul(case, g, g), opmat_scale(g, case.beta)),
                  metric_opmat(case, layer.dim, k))
    if case.family == "sp":
        hw = {layer.index[1 << case.pos(-1) if two_l else 0]: ONE}
    else:
        hw = js_highest_vector(case, layer, two_l)
    return lops.LOperator(case, layer, [opmat_scale(h, Scalar(1, 0, 2)), g,
                                        metric_opmat(case, layer.dim)],
                          kind="js", params={"two_l": two_l, "k": k}, hw_vector=hw)


def _exponents(case, label):
    """A label of `_reference_layer` as the exponent tuple of its monomial."""
    if case.family == "sp":
        return tuple(label >> p & 1 for p in range(case.n))
    return label


def _js_layer(family, m):
    """(the degree-3 layer operator, its restriction to the cyclic span of
    its highest vector x_(-1)^3), both built test-side."""
    layer = _reference_layer(make_case(family, m), 3)
    return layer, lops.restrict_to_submodule(layer, cyclic_span(layer, [layer.hw_vector]))


@pytest.mark.parametrize("family,m", sorted(JS_SPAN_PINS))
def test_js_cyclic_span_pins(family, m, monkeypatch):
    layer, restricted = _js_layer(family, m)
    calls = []
    real_add = VectorSpan.add

    def counted_add(span, vec):
        calls.append(real_add(span, vec))
        return calls[-1]

    monkeypatch.setattr(VectorSpan, "add", counted_add)
    span = cyclic_span(layer, [layer.hw_vector])
    monkeypatch.undo()
    picked = generating_set(layer, Premises(layer).ops(), span)
    got = (_digest(_vectors_key(span)), len(calls), sum(calls),
           _digest([_coeffs_key(restricted), _vectors_key([restricted.hw_vector])[0]]),
           Premises(restricted).seeds(), _digest(_vectors_key(picked)))
    assert got == JS_SPAN_PINS[family, m]


@pytest.mark.parametrize("family,m", [("so_odd", 2), ("so_even", 3)])
def test_restriction_matches_fraction_rref_basis(family, m, monkeypatch):
    # B, the reduced echelon basis of the cyclic span built test-side, times
    # each restricted coefficient is that coefficient of the layer times B,
    # and B times the restricted hw vector is the layer's hw vector
    layer, restricted = _js_layer(family, m)
    ref = _FractionSpan()
    for vec in cyclic_span(layer, [layer.hw_vector]):
        ref.add(vec)
    rref = ref.reduced()
    dim = len(rref)
    assert restricted.dim == dim
    basis = SparseOp(layer.dim, dim, {(i, j): Scalar(x.numerator, 0, x.denominator)
                                      for j, row in enumerate(rref) for i, x in row.items()})
    for mat, new in zip(layer.coeffs, restricted.coeffs):
        images = {key: op @ basis for key, op in mat.items()}
        assert set(new) == {key for key, image in images.items() if not image.is_zero}
        for key, op in new.items():
            assert basis @ op == images[key]
    hw = SparseOp(dim, 1, {(i, 0): v for i, v in restricted.hw_vector.items()})
    assert basis @ hw == SparseOp(layer.dim, 1, {(i, 0): v for i, v in layer.hw_vector.items()})


def test_restriction_raises_off_an_invariant_span():
    layer, _ = _js_layer("so_odd", 2)
    span = cyclic_span(layer, [layer.hw_vector])
    for prefix in (span[:1], span[:-1]):
        with pytest.raises(ValueError, match="not invariant"):
            lops.restrict_to_submodule(layer, prefix)
    inside = VectorSpan()
    for vec in span:
        inside.add(vec)
    outside = next(j for j in range(layer.dim) if inside.add({j: ONE}))
    moved = lops.LOperator(layer.case, layer.space, layer.coeffs, layer.entry_budget,
                           layer.kind, layer.params, {outside: ONE})
    with pytest.raises(ValueError, match="hw vector is not in the span"):
        lops.restrict_to_submodule(moved, span)


def _harmonic_dimension(n, two_l):
    return comb(two_l + n - 1, n - 1) - comb(two_l + n - 3, n - 1)


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("so_even", 2), ("so_odd", 2),
                                      ("so_even", 3), ("so_odd", 3)])
def test_js_quotient_matches_layer_restriction(family, m):
    # the build on standard monomials against the cyclic module of the
    # test-side layer: the same dimension (that of Harm_3) and, check by
    # check, the same verdicts, details, constraint scalars and c(u)
    lop = build_js_quadratic(make_case(family, m), 3)
    _, ref = _js_layer(family, m)
    assert lop.dim == ref.dim == _harmonic_dimension(lop.case.n, 3)
    assert lop.space.name == ref.space.name and lop.params == ref.params
    assert Premises(lop).generated_by(lop.hw_vector)
    got, want = (run_checks(op, DEFAULT_CHECKS["js"])[0] for op in (lop, ref))
    assert [rep.to_dict() for rep in got] == [rep.to_dict() for rep in want]
    assert all(rep.passed for rep in got)


@pytest.mark.parametrize("family,m,two_l", [
    ("so_odd", 1, 0), ("so_odd", 1, 2), ("so_even", 1, 2), ("so_even", 2, 1), ("so_even", 2, 2),
    ("so_odd", 2, 1), ("so_odd", 2, 2), ("so_even", 3, 2), ("sp", 1, 0), ("sp", 2, 1)])
def test_js_small_layers_match_reference(family, m, two_l):
    # up to 2l = 2 nothing is reduced: the labels, coefficients and hw
    # vector are those of the test-side layer
    case = make_case(family, m)
    lop = build_js_quadratic(case, two_l)
    ref = _reference_layer(case, two_l)
    assert lop.space.labels == tuple(_exponents(case, lab) for lab in ref.space.labels)
    assert lop.space.name == ref.space.name
    assert list(lop.coeffs) == list(ref.coeffs) and lop.hw_vector == ref.hw_vector


# digest of every JS operator by position (its coefficients, hw vector,
# dimension, space name and params; the labels are left out), over 2l and
# k in (the JS value, 1), taken from the build that formed sp's G from the
# exterior-algebra generators of `homogeneous_space`
JS_OPERATOR_PINS = {
    ("so_even", 1): "1479f328107aad08",
    ("so_odd", 1): "9de0550466547e08",
    ("so_even", 2): "abfe0d85d03ab579",
    ("so_odd", 2): "321ea5f751773a07",
    ("so_even", 3): "7ab35185e3b68d9d",
    ("so_odd", 3): "3d9709d6a1bcfc9e",
    ("so_even", 4): "5baee380d9d83f57",
    ("sp", 1): "d66a1887d09e1842",
    ("sp", 2): "abfa63356178f9f6",
    ("sp", 3): "ec4cf5ab699a6b4d",
}


@pytest.mark.parametrize("family,m", sorted(JS_OPERATOR_PINS))
def test_js_operators_are_pinned(family, m):
    case = make_case(family, m)
    ops = [build_js_quadratic(case, two_l, k) for two_l in range(2 if family == "sp" else 5)
           for k in (None, 1)]
    got = [(_coeffs_key(lop), _vectors_key([lop.hw_vector]), lop.dim, lop.space.name,
            sorted((key, str(v)) for key, v in lop.params.items())) for lop in ops]
    assert _digest(got) == JS_OPERATOR_PINS[family, m]


def test_js_so2_keeps_the_cyclic_line():
    # so(2) is abelian: its module stays the cyclic span of x_(-1)^(2l),
    # which is the restriction of the whole layer to that span
    case = make_case("so_even", 1)
    for two_l in (3, 4):
        lop = build_js_quadratic(case, two_l)
        assert lop.dim == 1 and lop.params["module"] == "cyclic"
        assert lop.space.name == f"homog[so(2),2l={two_l}]|cyclic"
        layer = _reference_layer(case, two_l)
        restricted = lops.restrict_to_submodule(layer, cyclic_span(layer, [layer.hw_vector]))
        assert restricted.dim == 1
        assert lop.coeffs == restricted.coeffs and lop.hw_vector == restricted.hw_vector


def test_js_quotient_raises_when_g_moves_q(monkeypatch):
    # the check that replaced the restriction's: a G that does not kill the
    # invariant quadratic has no quotient module
    real = spaces._js_terms

    def skewed(case, exp):
        for key, image, v in real(case, exp):
            yield key, image, 2 * v if key == (-1, 1) and v > 0 else v  # 2 x_1 d_1 - x_-1 d_-1

    monkeypatch.setattr(spaces, "_js_terms", skewed)
    with pytest.raises(ValueError, match="invariant quadratic"):
        build_js_quadratic(make_case("so_odd", 2), 3)


# ---------------------------------------------------------------------------
# the column-form contraction kernel against per-block SparseOp products

_KERNEL_CASES = [make_case("so_even", 2), make_case("so_odd", 1), make_case("sp", 2)]
_kernel_entries = st.sampled_from([ONE, -ONE, Scalar(2), Scalar(-3, 0, 2), Scalar(1, 0, 3),
                                   Scalar(5, 0, 6)])


def _block_reference(a, b, pairing):
    """sum_d sign A[r, d] @ B[partner, c], one SparseOp product per block pair."""
    out = {}
    for (r, d), op_a in a.items():
        partner, sign = pairing[d]
        for (e, c), op_b in b.items():
            if e == partner:
                prod = op_a @ op_b
                opmat_acc(out, (r, c), prod if sign == 1 else -prod)
    return out


def _pairing(kind, case):
    if kind == "gl2":
        return GL2_PAIRING
    sign = case.sign if kind == "tt" else (lambda d: case.sign(-d))
    return {d: (-d, sign(d)) for d in case.indices}


@st.composite
def contractions(draw):
    """(kind, case, A, B): opmats with rational entries, missing and empty
    blocks and planted cancellations; B thin (1-3 columns) or square."""
    kind = draw(st.sampled_from(["o", "tt", "gl2"]))
    case = None if kind == "gl2" else draw(st.sampled_from(_KERNEL_CASES))
    indices = (1, 2) if case is None else case.indices
    pairing = _pairing(kind, case)
    dim = draw(st.integers(1, 4))
    width = draw(st.sampled_from([1, 2, 3, dim]))
    keys = [(x, y) for x in indices for y in indices]

    def opmat(ncols):
        out = {}
        for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=6)):
            data = {}
            for _ in range(draw(st.integers(0, 4))):  # no draw: an empty block
                data[draw(st.integers(0, dim - 1)), draw(st.integers(0, ncols - 1))] = \
                    draw(_kernel_entries)
            out[key] = SparseOp(dim, ncols, data)
        return out

    a, b = opmat(dim), opmat(width)  # a as contracted on its second index
    if a and draw(st.booleans()):
        # A[r, d2] B[p2, c] cancels A[r, d] B[p, c] for every c
        (r, d), d2 = draw(st.sampled_from(sorted(a))), draw(st.sampled_from(indices))
        (p, s), (p2, s2) = pairing[d], pairing[d2]
        if d2 != d:
            a[r, d2] = a[r, d].scale(Scalar(-s * s2))
            for (e, c), op in list(b.items()):
                if e == p:
                    b[p2, c] = op
    return kind, case, a, b


@settings(max_examples=300, deadline=None)
@given(contractions())
def test_contraction_kernel_matches_block_products(example):
    kind, case, a, b = example
    pairing = _pairing(kind, case)
    want = _block_reference(a, b, pairing)
    if kind == "tt":  # the *tt form indexes the transpose by its first index
        a = opmat_transpose(a)
        got = [opmat_mul_tt(case, a, b), opmat_mul_tt(case, opmat_form(a, first=True), b)]
    elif kind == "o":
        got = [opmat_mul(case, a, b), opmat_mul(case, opmat_form(a), b)]
    else:
        got = [opmat_contract(a, b, GL2_PAIRING), opmat_contract(opmat_form(a), b, GL2_PAIRING)]
    for out in got:
        assert out == want
        assert all(op.data and all(type(v) is Scalar and v for v in op.data.values())
                   for op in out.values())
    if kind != "tt":
        for basis in b.values():
            applied = {key: op @ basis for key, op in a.items()}
            assert opmat_apply(opmat_form(a), basis) == {
                key: op for key, op in applied.items() if op.data}


_poly_points = st.sampled_from([ZERO, ONE, -ONE, Scalar(2), Scalar(-1, 0, 2), Scalar(3, 0, 4)])


@settings(max_examples=100, deadline=None)
@given(contractions(), _poly_points, _poly_points, _poly_points)
def test_poly_subs_evaluates_the_substituted_polynomial(example, a, b, u):
    # sum_j u^j M'_j == sum_k (a u + b)^k M_k, M' = opmat_poly_subs(M, a, b),
    # with no zero entry and no empty block; -M_0 plants cancellations
    m = example[2]
    coeffs = [m, opmat_transpose(m), opmat_scale(m, -1)]
    subs = opmat_poly_subs(coeffs, a, b)

    def value(mats, x):
        out, power = {}, ONE
        for mat in mats:
            out = opmat_add(out, opmat_scale(mat, power))
            power = power * x
        return out

    assert value(subs, u) == value(coeffs, a * u + b)
    assert all(op.data and all(op.data.values()) for mat in subs for op in mat.values())
    assert not subs or subs[-1]


def test_column_form_contracts_the_index_it_was_built_for():
    case = make_case("so_even", 2)
    g = build_js_quadratic(case, 1).g_mat
    with pytest.raises(ValueError):
        opmat_mul(case, opmat_form(g, first=True), g)
    with pytest.raises(ValueError):
        opmat_mul_tt(case, opmat_form(g), g)
