"""Master property suite: cross-cutting invariants over all constructions.

Every construction must satisfy the Lie relations (and the adjoint
relations when quadratic); RLL passing must imply the symmetric
constraints on the cyclic module; weight components must respect the
sign parities; and the even second components must match their closed
formula in terms of the first components and the central value.
"""

import pytest

from yanglab.exact import ONE, ZERO, Scalar, SparseOp
from yanglab.lops import (
    build_heisenberg_linear,
    build_js_quadratic,
    build_product,
    build_spinorial_linear,
    cyclic_span,
    product_vector,
    spinor_flipped_vacuum,
    spinor_vacuum,
)
from yanglab.spaces import spinor_space
from yanglab.structure import make_case
from yanglab.verify import check_adjoint, check_lie, check_rll, check_symmetric_constraints
from yanglab.weights import (
    tilde_component_formula,
    weight_components,
    weight_functions,
    weight_report,
)

LINEAR_SWEEP = [
    ("spinor", "so_odd", 1, None),
    ("spinor", "so_even", 2, None),
    ("spinor", "sp", 1, None),
    ("spinor", "sp", 2, None),
    ("heisenberg", "so_even", 2, 1),
    ("heisenberg", "sp", 1, 2),
    ("heisenberg", "sp", 2, 1),
]

QUADRATIC_SWEEP = [
    ("js", "so_even", 2, 1),
    ("js", "so_even", 2, 2),
    ("js", "so_odd", 2, 2),
    ("js", "sp", 1, 1),
    ("js", "sp", 2, 1),
    ("product", "so_even", 2, 0),
    ("product", "so_even", 2, 1),
]


def build(kind, family, m, param):
    case = make_case(family, m)
    if kind == "spinor":
        lop = build_spinorial_linear(case, trunc=5)
        return lop, lop.hw_vector
    if kind == "heisenberg":
        lop = build_heisenberg_linear(case, param, max_degree=3)
        return lop, lop.hw_vector
    if kind == "js":
        lop = build_js_quadratic(case, param)
        return lop, lop.hw_vector
    f1 = build_spinorial_linear(case)
    f2 = build_spinorial_linear(case)
    lop = build_product(f1, f2, Scalar.of(param))
    return lop, lop.hw_vector


@pytest.mark.parametrize("kind,family,m,param", LINEAR_SWEEP + QUADRATIC_SWEEP)
def test_lie_relations_hold_everywhere(kind, family, m, param):
    lop, _ = build(kind, family, m, param)
    assert check_lie(lop).passed


@pytest.mark.parametrize("kind,family,m,param", QUADRATIC_SWEEP)
def test_adjoint_relations_hold_for_quadratics(kind, family, m, param):
    lop, _ = build(kind, family, m, param)
    assert check_adjoint(lop).passed


@pytest.mark.parametrize("kind,family,m,param", QUADRATIC_SWEEP)
def test_rll_implies_symmetric_constraints(kind, family, m, param):
    lop, vec = build(kind, family, m, param)
    if not check_rll(lop).passed:
        pytest.fail("RLL must hold for every shipped construction")
    span = cyclic_span(lop, [vec]) if lop.space.trunc is None else None
    assert check_symmetric_constraints(lop, span=span).passed


@pytest.mark.parametrize("kind,family,m,param", QUADRATIC_SWEEP)
def test_component_parity_and_tilde_formula(kind, family, m, param):
    lop, vec = build(kind, family, m, param)
    case = lop.case
    wf = weight_functions(lop, vec)
    comps = weight_components(wf)
    eps = Scalar.of(case.eps)
    for i in range(1, m + 1):
        # lam1_i = -eps lam1_{-i}; tilde and bar have opposite parities
        assert comps["lam1"][i] == -eps * comps["lam1"][-i]
        tilde_minus = (comps["lam2"][-i] + eps * comps["lam2"][i]) * Scalar(1, 0, 2)
        bar_minus = (comps["lam2"][-i] - eps * comps["lam2"][i]) * Scalar(1, 0, 2)
        assert tilde_minus == eps * comps["tilde"][i]
        assert bar_minus == -eps * comps["bar"][i]
    if case.has_zero:
        assert comps["lam1"][0] == ZERO
    span = cyclic_span(lop, [vec]) if lop.space.trunc is None else None
    sym = check_symmetric_constraints(lop, span=span)
    assert sym.passed
    assert tilde_component_formula(comps, case, sym.scalars["c23"])


def test_eps_antisymmetry_of_every_built_g():
    for kind, family, m, param in LINEAR_SWEEP + QUADRATIC_SWEEP:
        lop, _ = build(kind, family, m, param)
        case = lop.case
        cols = lop.space.safe_indices(lop.entry_budget)
        g = lop.g_mat
        zero = SparseOp.zeros(lop.dim, lop.dim)
        for a in case.indices:
            for b in case.indices:
                diff = g.get((a, b), zero) - g.get((b, a), zero).scale(-case.eps)
                assert diff.restrict_cols(cols).is_zero, (kind, family, m, a, b)


def test_product_k_value_formula():
    # k = -(1/2) delta^2 - c2(1) - c2(2) for products of linear factors
    case = make_case("so_even", 2)
    f1 = build_spinorial_linear(case)
    f2 = build_spinorial_linear(case)
    delta = ONE
    prod = build_product(f1, f2, delta)
    span = cyclic_span(prod, [prod.hw_vector])
    sym = check_symmetric_constraints(prod, span=span)
    c2 = Scalar(case.eps * (case.n - case.eps), 0, 4)
    assert sym.scalars["c23"] == -delta * delta * Scalar(1, 0, 2) - c2 - c2
