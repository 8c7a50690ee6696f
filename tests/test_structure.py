"""Cases, metric, I/P/K tensors, R-matrix and the Yang-Baxter identity."""

import pytest

from yanglab.exact import ONE, ZERO, Scalar, SparseOp, UniPoly
from yanglab.structure import (
    check_ybe,
    fundamental_r,
    make_case,
    sp2_gl2_comparison,
    tensor_i,
    tensor_k,
    tensor_p,
)


def test_make_case_values():
    so3 = make_case("so_odd", 1)
    assert (so3.n, so3.eps) == (3, 1) and so3.beta == Scalar(1, 0, 2)
    sp2 = make_case("sp", 1)
    assert (sp2.n, sp2.eps) == (2, -1) and sp2.beta == Scalar(2)
    so4 = make_case("so_even", 2)
    assert (so4.n, so4.eps) == (4, 1) and so4.beta == ONE
    assert so3.indices == (-1, 0, 1) and sp2.indices == (-1, 1)
    with pytest.raises(ValueError):
        make_case("gl", 2)
    with pytest.raises(ValueError):
        make_case("sp", 0)


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("so_even", 2), ("sp", 2),
                                      ("so_odd", 3), ("so_even", 4), ("sp", 4)])
def test_metric_symmetry_and_inverse(family, m):
    case = make_case(family, m)
    for a in case.indices:
        for b in case.indices:
            assert case.metric_lower(a, b) == Scalar.of(case.eps) * case.metric_lower(b, a)
            total = sum((case.metric_lower(a, c) * case.metric_upper(-c, b)
                         for c in case.indices), ZERO)
            # contraction eps_{ac} eps^{cb} over c
            total = sum((case.metric_lower(a, c) * case.metric_upper(c, b)
                         for c in case.indices), ZERO)
            assert total == (ONE if a == b else ZERO)


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("so_even", 2), ("so_odd", 2),
                                      ("sp", 1), ("sp", 2), ("so_even", 3)])
def test_ipk_relations(family, m):
    case = make_case(family, m)
    i_op, p_op, k_op = tensor_i(case), tensor_p(case), tensor_k(case)
    n = case.n
    assert p_op @ p_op == i_op
    # K^2 = eps n K under the metric conventions used here
    assert k_op @ k_op == k_op.scale(Scalar.of(case.eps * n))
    assert p_op @ k_op == k_op.scale(Scalar.of(case.eps))
    assert k_op @ p_op == k_op.scale(Scalar.of(case.eps))


def test_r_entry_so3_hand_value():
    # entry ((1,-1),(-1,1)): P gives (u + 1/2), K gives -u * eps^{1,-1} eps_{-1,1}
    case = make_case("so_odd", 1)
    r = fundamental_r(case)
    entry = r.entry((1, -1), (-1, 1))
    expected = UniPoly([case.beta, ONE]) - UniPoly([ZERO, case.metric_upper(1, -1) * case.metric_lower(-1, 1)])
    assert entry == expected == UniPoly([Scalar(1, 0, 2)])


def test_r_at_zero_is_beta_p():
    case = make_case("sp", 2)
    r = fundamental_r(case)
    assert r.eval(ZERO) == tensor_p(case).scale(case.beta)


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("sp", 1), ("so_even", 2)])
def test_ybe_passes(family, m):
    report = check_ybe(make_case(family, m))
    assert report.passed and report.violation is None


def test_ybe_negative_control():
    case = make_case("so_odd", 1)
    report = check_ybe(case, fundamental_r(case, flip_k=True))
    assert not report.passed
    row, col, residual = report.violation
    assert (row, col) == ((-1, -1, 1), (-1, 0, 0))
    assert residual.to_strings() == {"1,2": "-1/1", "1,3": "2/1", "2,1": "1/1",
                                     "2,2": "-4/1", "3,1": "2/1"}


def test_sp2_matches_gl2_at_half_argument():
    scalar, passed = sp2_gl2_comparison()
    assert passed
    # the exact proportionality factor is 2(u+1)
    assert scalar == UniPoly([Scalar(2), Scalar(2)])
