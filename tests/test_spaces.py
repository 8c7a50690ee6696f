"""Representation spaces and defining (anti)commutation relations."""

import hashlib
import json

import pytest

from yanglab.exact import ONE, ZERO, Scalar, SparseOp
from yanglab.spaces import (
    gl2_chain_space,
    heisenberg_space,
    homogeneous_space,
    spinor_space,
)
from yanglab.structure import make_case


def raised_c(case, gens, b):
    """c^b = eps^{bc} c_c = eps_{-b} c_{-b}."""
    return gens.c(-b).scale(case.sign(-b))


def check_on_cols(lhs: SparseOp, rhs: SparseOp, cols) -> bool:
    return (lhs - rhs).restrict_cols(cols).is_zero


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
    layer, _ = homogeneous_space(make_case("so_odd", 2), 2)
    assert layer.dim == 15
    assert homogeneous_space(make_case("sp", 2), 1)[0].dim == 4
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


# digests of the gl(2) chain layers (labels, grades, name and every e_ab),
# taken from the build that wrote out each (alpha, beta) case
GL2_CHAIN_PINS = {
    (0,): "9b30c47f366125b0",
    (1,): "36309a2545969610",
    (2,): "ac5888cc253768dd",
    (3,): "4b9cbe5c75f894b6",
    (1, 1): "7ecdc885ec33cd47",
    (2, 1): "42d6e33e4a1d4bf6",
    (1, 2, 3): "34a996071b56c1c0",
    (0, 2): "d8598dad1840653e",
    (4, 0, 1): "095d46c6364a108a",
}


@pytest.mark.parametrize("excitations", sorted(GL2_CHAIN_PINS))
def test_gl2_chain_spaces_are_pinned(excitations):
    space, ops = gl2_chain_space(list(excitations))
    ops = sorted((list(key), sorted((i, j, str(v)) for (i, j), v in op.data.items()))
                 for key, op in ops.items())
    blob = json.dumps([[list(lab) for lab in space.labels], list(space.grade), space.name, ops])
    assert hashlib.sha256(blob.encode()).hexdigest()[:16] == GL2_CHAIN_PINS[excitations]


def _genset_digest(space, gens) -> str:
    """Digest of every generator op of `gens` (key, sorted entries) with
    the labels, grades and trunc of `space` and of the ambient space."""
    def basis(sp):
        return [[list(lab) if isinstance(lab, tuple) else lab for lab in sp.labels],
                list(sp.grade), sp.trunc]

    ops = sorted((list(key), sorted((i, j, str(v)) for (i, j), v in op.data.items()))
                 for key, op in gens.ops.items())
    blob = json.dumps([basis(space), basis(gens.space), ops])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# digests of the generator sets, taken from the per-space loops that the
# bosonic and fermionic routines replaced
GENSET_PINS = {
    ('spinor', 'so_odd', 1, 1): 'adb3950e2dd743d9',
    ('spinor', 'so_odd', 1, 4): 'adb3950e2dd743d9',
    ('spinor', 'so_odd', 1, 6): 'adb3950e2dd743d9',
    ('spinor', 'so_even', 2, 1): '9afc04703bb96b01',
    ('spinor', 'so_even', 2, 4): '9afc04703bb96b01',
    ('spinor', 'so_even', 2, 6): '9afc04703bb96b01',
    ('spinor', 'so_odd', 2, 1): '650ddf749bb8c087',
    ('spinor', 'so_odd', 2, 4): '650ddf749bb8c087',
    ('spinor', 'so_odd', 2, 6): '650ddf749bb8c087',
    ('spinor', 'so_even', 3, 1): 'd47bf5d3b1cf2b68',
    ('spinor', 'so_even', 3, 4): 'd47bf5d3b1cf2b68',
    ('spinor', 'so_even', 3, 6): 'd47bf5d3b1cf2b68',
    ('spinor', 'so_odd', 3, 1): 'd684e67cf7d28f2f',
    ('spinor', 'so_odd', 3, 4): 'd684e67cf7d28f2f',
    ('spinor', 'so_odd', 3, 6): 'd684e67cf7d28f2f',
    ('spinor', 'sp', 1, 1): '6e6b315e434a8c4a',
    ('spinor', 'sp', 1, 4): '14ceb4ca3e69300d',
    ('spinor', 'sp', 1, 6): '68498e451d93640f',
    ('spinor', 'sp', 2, 1): '5668f8290f118d69',
    ('spinor', 'sp', 2, 4): '795bb14aeebe77e2',
    ('spinor', 'sp', 2, 6): 'bdcf66a27bf6108c',
    ('spinor', 'sp', 3, 1): '2ffc2b157d96825c',
    ('spinor', 'sp', 3, 4): '54a80f09cb6209ed',
    ('spinor', 'sp', 3, 6): '38481210fb5ce991',
    ('homogeneous', 'so_odd', 1, 2): '9e470eca01dbbc46',
    ('homogeneous', 'so_even', 2, 1): '33584239071ebaee',
    ('homogeneous', 'so_odd', 2, 2): '88dcd77d92435077',
    ('homogeneous', 'so_even', 3, 3): 'd1c8d2c3ef199635',
    ('homogeneous', 'sp', 1, 0): '6e618a056952483a',
    ('homogeneous', 'sp', 2, 1): '7f9a12856984a4ee',
    ('homogeneous', 'sp', 3, 1): '1a41af574fe04b18',
    ('heisenberg', 'so_even', 2, 3): '5f59b20e52d96a17',
    ('heisenberg', 'so_even', 3, 4): '3d3e8c5ac0ed2013',
    ('heisenberg', 'so_even', 4, 3): '6c9dccfa938b8adc',
    ('heisenberg', 'sp', 1, 2): '01126c20bb998791',
    ('heisenberg', 'sp', 2, 4): '4aa11c2834f042da',
}


def _genset(kind, family, m, arg):
    case = make_case(family, m)
    if kind == "spinor":
        return spinor_space(case, trunc=arg)
    if kind == "homogeneous":
        return homogeneous_space(case, arg)
    return heisenberg_space(case, arg)


@pytest.mark.parametrize("kind,family,m,arg", sorted(GENSET_PINS))
def test_generator_sets_are_pinned(kind, family, m, arg):
    assert _genset_digest(*_genset(kind, family, m, arg)) == GENSET_PINS[kind, family, m, arg]
