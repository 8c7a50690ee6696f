"""Representation spaces and defining (anti)commutation relations."""

import pytest

from yanglab.exact import ONE, ZERO, Scalar, SparseOp
from yanglab.spaces import (
    gl2_chain_space,
    heisenberg_space,
    homogeneous_dimension,
    homogeneous_space,
    spinor_space,
)
from yanglab.structure import make_case


def raised_c(case, gens, b):
    """c^b = eps^{bc} c_c = eps_{-b} c_{-b}."""
    return gens.c(-b).scale(case.sign(-b))


def check_on_cols(lhs: SparseOp, rhs: SparseOp, cols) -> bool:
    return (lhs - rhs).is_zero_on_cols(cols)


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("so_even", 2), ("so_odd", 2), ("sp", 1), ("sp", 2)])
def test_clifford_relations(family, m):
    case = make_case(family, m)
    space, gens = spinor_space(case, trunc=4)
    eps = case.eps
    cols = space.safe_indices(2)
    assert cols, "safe subspace must be nonempty"
    # so(2m+1) is built in its rational frame, whose relations are twice these
    ident = SparseOp.identity(space.dim, 2 if case.has_zero else 1)
    for a in case.indices:
        for b in case.indices:
            ca, cb_up = gens.c(a), raised_c(case, gens, b)
            rel = ca @ cb_up + (cb_up @ ca).scale(eps)
            want = ident if a == b else SparseOp.zeros(space.dim, space.dim)
            assert check_on_cols(rel, want, cols), (a, b)
            # lowered version: c_a c_b + eps c_b c_a = eps * eps_{ab}
            cb = gens.c(b)
            rel2 = ca @ cb + (cb @ ca).scale(eps)
            want2 = ident.scale(Scalar.of(eps) * case.metric_lower(a, b))
            assert check_on_cols(rel2, want2, cols), (a, b)
    # c_a c^a = n/2
    total = SparseOp.zeros(space.dim, space.dim)
    for a in case.indices:
        total = total + gens.c(a) @ raised_c(case, gens, a)
    assert check_on_cols(total, ident.scale(Scalar(case.n, 0, 2)), cols)


def test_spinor_dimensions_and_c0():
    case = make_case("so_odd", 1)
    space, gens = spinor_space(case)
    assert space.dim == 2
    c0 = gens.c(0)  # (-1)^F in the rational frame
    assert c0 == SparseOp(2, 2, {(0, 0): ONE, (1, 1): -ONE})
    assert c0 @ c0 == SparseOp.identity(2)
    assert gens.c(1) == SparseOp(2, 2, {(1, 0): Scalar(2)})  # lands in the odd state
    assert gens.c(-1) == SparseOp(2, 2, {(0, 1): ONE})
    case4 = make_case("so_even", 2)
    space4, _ = spinor_space(case4)
    assert space4.dim == 4 and space4.trunc is None


def test_homogeneous_dimensions():
    assert homogeneous_dimension(make_case("so_odd", 2), 2) == 15
    assert homogeneous_dimension(make_case("sp", 2), 1) == 4
    layer, _ = homogeneous_space(make_case("so_odd", 2), 2)
    assert layer.dim == 15
    layer0, _ = homogeneous_space(make_case("so_even", 2), 0)
    assert layer0.dim == 1
    with pytest.raises(ValueError):
        homogeneous_space(make_case("sp", 2), 2)


@pytest.mark.parametrize("family,m,two_l", [("so_odd", 1, 2), ("so_even", 2, 1),
                                            ("so_odd", 2, 2), ("sp", 2, 1), ("sp", 1, 0)])
def test_canonical_pair_relations_on_layer(family, m, two_l):
    # d_a x_b - eps x_b d_a = eps_{ab} on the homogeneous layer
    case = make_case(family, m)
    layer, gens = homogeneous_space(case, two_l)
    amb = gens.space
    layer_cols = [amb.index[lab] for lab in layer.labels]
    for a in case.indices:
        for b in case.indices:
            rel = gens.d(a) @ gens.x(b) - (gens.x(b) @ gens.d(a)).scale(case.eps)
            want = SparseOp.identity(amb.dim, case.metric_lower(a, b))
            assert check_on_cols(rel, want, layer_cols), (a, b)


def test_grading_of_layer_ops():
    case = make_case("so_odd", 1)
    _, gens = homogeneous_space(case, 2)
    amb = gens.space
    for a in case.indices:
        for (i, j) in gens.x(a).data:
            assert amb.grade[i] == amb.grade[j] + 1
        for (i, j) in gens.d(a).data:
            assert amb.grade[i] == amb.grade[j] - 1


def test_heisenberg_variable_counts_and_dims():
    sp4 = heisenberg_space(make_case("so_even", 2), 3)[0]
    assert sp4.dim == 4  # one variable, degrees 0..3
    sp2 = heisenberg_space(make_case("sp", 1), 2)[0]
    assert sp2.dim == 3
    with pytest.raises(ValueError):
        heisenberg_space(make_case("so_odd", 2), 3)


@pytest.mark.parametrize("family,m,deg", [("so_even", 2, 3), ("sp", 1, 3), ("sp", 2, 2), ("so_even", 3, 2)])
def test_heisenberg_commutators(family, m, deg):
    case = make_case(family, m)
    space, gens = heisenberg_space(case, deg)
    cols = space.safe_indices(1)
    eps = case.eps
    rng = range(1, m + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                for l in rng:
                    rel = gens.dm(i, j) @ gens.xm(k, l) - gens.xm(k, l) @ gens.dm(i, j)
                    val = (1 if (k == j and i == l) else 0) - eps * (1 if (i == k and j == l) else 0)
                    want = SparseOp.identity(space.dim, Scalar.of(val))
                    assert check_on_cols(rel, want, cols), (i, j, k, l)


def test_heisenberg_sp2_commutator_value_is_two():
    case = make_case("sp", 1)
    space, gens = heisenberg_space(case, 1)
    rel = gens.dm(1, 1) @ gens.xm(1, 1) - gens.xm(1, 1) @ gens.dm(1, 1)
    cols = space.safe_indices(1)  # constants only at D=1
    assert check_on_cols(rel, SparseOp.identity(space.dim, Scalar(2)), cols)


def test_gl2_chain_space():
    space, ops = gl2_chain_space([1, 2])
    assert space.dim == 6 and space.trunc is None
    for k, d in enumerate([1, 2]):
        number = ops[("e", k, 1, 1)] + ops[("e", k, 2, 2)]
        assert number == SparseOp.identity(space.dim, Scalar.of(d))
    # single-factor commutator [e12, e21] = e11 - e22
    space1, ops1 = gl2_chain_space([3])
    e12, e21 = ops1[("e", 0, 1, 2)], ops1[("e", 0, 2, 1)]
    e11, e22 = ops1[("e", 0, 1, 1)], ops1[("e", 0, 2, 2)]
    assert e12 @ e21 - e21 @ e12 == e11 - e22
