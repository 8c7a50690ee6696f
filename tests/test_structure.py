"""Cases, metric, I/P/K tensors, R-matrix and the Yang-Baxter identity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yanglab.exact import ONE, ZERO, BiPoly, Scalar, SparseOp, UniPoly
from yanglab.structure import (
    YANG_GL2_IPK,
    check_ybe,
    fundamental_r,
    identity_residual,
    make_case,
    slot_operator,
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


# ---------------------------------------------------------------------------
# the identity engine against an entrywise BiPoly expansion (gl(2) RLL)

PAIRS = [(a, b) for a in range(2) for b in range(2)]


def _reference_gl2_residual(coeffs, w):
    """R(u-v) L1(u) L2(v) - L2(v) L1(u) R(u-v), R(w) = w I + P, entry by entry.

    `coeffs[k][(a, b)]` is the dense w x w matrix of the u^k coefficient of
    L_ab; the result has the engine's shape {(du, dv): {(row, col): Scalar}}
    with row/col = (a1 * 2 + a2) * w + x.
    """
    def op_entries(power):  # (a, b, x, z) -> L_ab[x, z] as a BiPoly
        return {(a, b, x, z): BiPoly({power(k): m[(a, b)][x][z] for k, m in enumerate(coeffs)})
                for a, b in PAIRS for x in range(w) for z in range(w)}

    lu, lv = op_entries(lambda k: (k, 0)), op_entries(lambda k: (0, k))
    r = {(p1, p2): (BiPoly({(1, 0): 1, (0, 1): -1}) if p1 == p2 else BiPoly())
         + (BiPoly({(0, 0): 1}) if p1 == p2[::-1] else BiPoly())
         for p1 in PAIRS for p2 in PAIRS}

    residual: dict = {}
    for (a1, a2) in PAIRS:
        for (b1, b2) in PAIRS:
            for x in range(w):
                for y in range(w):
                    diff = BiPoly()
                    for (c1, c2) in PAIRS:
                        if not r[(a1, a2), (c1, c2)].is_zero:
                            lhs = sum((lu[c1, b1, x, z] * lv[c2, b2, z, y] for z in range(w)),
                                      BiPoly())
                            diff = diff + r[(a1, a2), (c1, c2)] * lhs
                        if not r[(c1, c2), (b1, b2)].is_zero:
                            rhs = sum((lv[a2, c2, x, z] * lu[a1, c1, z, y] for z in range(w)),
                                      BiPoly())
                            diff = diff - rhs * r[(c1, c2), (b1, b2)]
                    pos = ((a1 * 2 + a2) * w + x, (b1 * 2 + b2) * w + y)
                    for key, val in diff.terms.items():
                        residual.setdefault(key, {})[pos] = val
    return residual


def _engine_gl2_residual(coeffs, w):
    def slot(m, which):
        entries = ((a, b, i, j, Scalar.of(v)) for (a, b), mat in m.items()
                   for i, row in enumerate(mat) for j, v in enumerate(row) if v)
        return slot_operator(2, entries, w, which)

    residual, _ = identity_residual(YANG_GL2_IPK, [slot(m, 1) for m in coeffs],
                                    [slot(m, 2) for m in coeffs], range(4 * w), 2)
    return residual


fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6]))


@st.composite
def gl2_operators(draw):
    """(coeffs, w, solves): a random rational L(u) of degree <= 2 on C^w.

    Solutions are L_ab(u) = s ((u + c) delta_ab + e_ba), e_ba the matrix
    unit on the C^2 summand of C^w (plus a trivial summand when w = 3);
    some of them get one entry perturbed.  The rest are fully random.
    """
    w = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        s, c = draw(fractions.filter(bool)), draw(fractions)
        zero = [[Fraction(0)] * w for _ in range(w)]
        const = {(a, b): [row[:] for row in zero] for a, b in PAIRS}
        lin = {(a, b): [row[:] for row in zero] for a, b in PAIRS}
        for a, b in PAIRS:
            const[(a, b)][b][a] = s
            for x in range(w):
                if a == b:
                    const[(a, b)][x][x] += s * c
                    lin[(a, b)][x][x] = s
        solves = not draw(st.booleans())
        if not solves:
            a, b = draw(st.sampled_from(PAIRS))
            x, y = draw(st.integers(0, w - 1)), draw(st.integers(0, w - 1))
            const[(a, b)][x][y] += draw(fractions.filter(bool))
        return [const, lin], w, solves
    degree = draw(st.integers(0, 2))
    entry = st.one_of(st.just(Fraction(0)), fractions)  # about half the entries zero
    mat = st.lists(st.lists(entry, min_size=w, max_size=w), min_size=w, max_size=w)
    coeffs = [{pair: draw(mat) for pair in PAIRS} for _ in range(degree + 1)]
    return coeffs, w, False


@settings(max_examples=40, deadline=None)
@given(gl2_operators())
def test_identity_residual_matches_bipoly_reference(draw):
    coeffs, w, solves = draw
    engine = _engine_gl2_residual(coeffs, w)
    assert engine == _reference_gl2_residual(coeffs, w)
    if solves:
        assert engine == {}


def test_identity_residual_reference_sees_failures():
    # a perturbed fundamental L(u) = u I + E^t fails, and both sides agree on how
    one, zero = Fraction(1), Fraction(0)
    const = {(a, b): [[one if (x, y) == (b, a) else zero for y in range(2)]
                      for x in range(2)] for a, b in PAIRS}
    lin = {(a, b): [[one if a == b and x == y else zero for y in range(2)]
                    for x in range(2)] for a, b in PAIRS}
    assert _engine_gl2_residual([const, lin], 2) == {}
    const[(0, 1)][0][0] = Fraction(1, 3)
    engine = _engine_gl2_residual([const, lin], 2)
    assert engine and engine == _reference_gl2_residual([const, lin], 2)
