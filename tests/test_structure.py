"""Cases, metric, I/P/K tensors, R-matrix and the Yang-Baxter identity."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yanglab.exact import ONE, ZERO, BiPoly, Scalar, SparseOp, UniPoly, VectorSpan, clear_opmats
from yanglab.lops import build_js_quadratic, build_spinorial_linear
from yanglab.structure import (
    YANG_GL2_IPK,
    IdentityForm,
    block_violation,
    bracket,
    cartan_grading,
    chevalley_pairs,
    check_ybe,
    describe_flat,
    extremal_vectors,
    first_violation,
    fundamental_r,
    graded,
    identity_residual,
    locate_violation,
    make_case,
    presentation,
    rho,
    sp2_gl2_comparison,
    tensor_i,
    tensor_k,
    tensor_p,
    unit_vectors,
    vector_seeds,
    ybe_form,
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


@pytest.mark.parametrize("family,m,row,col,expected", [
    ("so_odd", 1, (-1, -1, 1), (-1, 0, 0),
     {"1,2": "-1/1", "1,3": "2/1", "2,1": "1/1", "2,2": "-4/1", "3,1": "2/1"}),
    ("sp", 2, (-2, -2, 2), (-2, -1, 1),
     {"1,2": "-6/1", "1,3": "2/1", "2,1": "6/1", "2,2": "-4/1", "3,1": "2/1"}),
    ("so_even", 2, (-2, -2, 2), (-2, -1, 1),
     {"1,2": "-2/1", "1,3": "2/1", "2,1": "2/1", "2,2": "-4/1", "3,1": "2/1"}),
], ids=["so3", "sp4", "so4"])
def test_ybe_negative_control(family, m, row, col, expected):
    case = make_case(family, m)
    report = check_ybe(case, fundamental_r(case, flip_k=True))
    assert not report.passed
    got_row, got_col, residual = report.violation
    assert (got_row, got_col) == (row, col)
    assert residual.to_strings() == expected


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


def _engine_gl2_residual(coeffs, w, cols=None, vectors=unit_vectors(4)):
    blocks = [{pair: SparseOp(w, w, {(i, j): Scalar.of(v) for i, row in enumerate(mat)
                                     for j, v in enumerate(row)})
               for pair, mat in m.items()} for m in coeffs]
    residual, _ = identity_residual(IdentityForm(YANG_GL2_IPK, *clear_opmats(blocks), 2, w),
                                    vectors, range(w) if cols is None else cols)
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
@given(gl2_operators(), st.data())
def test_identity_residual_matches_bipoly_reference(draw, data):
    coeffs, w, solves = draw
    engine = _engine_gl2_residual(coeffs, w)
    assert engine == _reference_gl2_residual(coeffs, w)
    if solves:
        assert engine == {}
    # on a subset of the W columns: the entries at the flat columns (q1, q2, x), x in it
    cols = data.draw(st.lists(st.integers(0, w - 1), min_size=1, unique=True))
    kept = {key: {pos: v for pos, v in entries.items() if pos[1] % w in cols}
            for key, entries in engine.items()}
    assert _engine_gl2_residual(coeffs, w, cols) == {key: e for key, e in kept.items() if e}
    # on random int vectors, P-closed with disjoint supports: a e_00 + b e_11
    # and c (e_01 + s e_10); column (k, x) is sum_q l_k[q] times column (q, x)
    a, b, c = (data.draw(st.integers(-3, 3).filter(bool)) for _ in range(3))
    vectors = [{0: a, 3: b}, {1: c, 2: data.draw(st.sampled_from([c, -c]))}]
    combined = {}
    for key, entries in engine.items():
        acc = combined.setdefault(key, {})
        for (row, col), v in entries.items():
            q, x = divmod(col, w)
            for k, vec in enumerate(vectors):
                if q in vec:
                    acc[row, k * w + x] = acc.get((row, k * w + x), ZERO) + vec[q] * v
    combined = {key: {pos: v for pos, v in e.items() if v} for key, e in combined.items()}
    assert _engine_gl2_residual(coeffs, w, vectors=vectors) == {
        key: e for key, e in combined.items() if e}


def test_identity_residual_needs_vectors_closed_under_p_and_k():
    # R = u I + P reads P l_k off the computed columns: it must be one of them
    coeffs = [{pair: [[Fraction(1)]] for pair in PAIRS}]
    assert _engine_gl2_residual(coeffs, 1, vectors=[{0: 1}, {1: 2, 2: -2}, {3: 5}]) == {}
    for vectors in ([{1: 1}], [{0: 1, 1: 1}, {1: 1}], [{1: 2, 2: 1}]):
        with pytest.raises(ValueError):
            _engine_gl2_residual(coeffs, 1, vectors=vectors)
    # K l_k must lie on the span: the trivial vector of so(3) without its e_(0, 0)
    case = make_case("so_odd", 1)
    with pytest.raises(ValueError):
        identity_residual(ybe_form(fundamental_r(case)), [{2: 1, 6: 1}], vector_seeds(case))


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


# ---------------------------------------------------------------------------
# the block kernel against a plain n^4 scan (Lie, adjoint and W)


def _dense(op, dim):
    return [[op.data.get((i, j), ZERO) if op is not None else ZERO for j in range(dim)]
            for i in range(dim)]


def _mm(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), ZERO) for j in range(len(y))]
            for i in range(len(x))]


def _reference_block_violation(case, g, x, dim, cols, w_tensor, pairs=None):
    """First (a, b, c, d) in sorted order, (a, b) in pairs unless None and
    (c, d) in pairs[a, b] for a mapping, then
    first (i, j), j in cols, where [G_ab, X_cd] - (adjoint combination of X),
    or W_abcd, is nonzero."""
    gd = {key: _dense(g.get(key), dim) for key in product(case.indices, repeat=2)}
    xd = {key: _dense(x.get(key), dim) for key in product(case.indices, repeat=2)}
    eps = case.metric_lower
    for a, b, c, d in product(case.indices, repeat=4):
        if pairs is not None and (a, b) not in pairs:
            continue
        if isinstance(pairs, dict) and (c, d) not in pairs[a, b]:
            continue
        if w_tensor:
            terms = [(ONE, _mm(gd[p], xd[q])) for p, q in (
                ((a, b), (c, d)), ((a, c), (d, b)), ((a, d), (b, c)))]
            terms += [(ONE, _mm(xd[q], gd[p])) for p, q in (
                ((a, b), (c, d)), ((a, c), (d, b)), ((a, d), (b, c)))]
        else:
            terms = [(ONE, _mm(gd[a, b], xd[c, d])), (-ONE, _mm(xd[c, d], gd[a, b])),
                     (eps(c, b), xd[a, d]), (-eps(a, d), xd[c, b]),
                     (-eps(a, c), xd[b, d]), (eps(d, b), xd[c, a])]
        for i in range(dim):
            for j in cols:
                val = sum((s * m[i][j] for s, m in terms), ZERO)
                if val:
                    return (a, b, c, d), val
    return None


def _unipotent(dim, p, q, t):
    """I + t E_pq as a sparse op (p != q); its inverse is I - t E_pq."""
    return SparseOp.identity(dim) + SparseOp(dim, dim, {(p, q): t})


def _conjugate(mat, m, m_inv):
    return {key: m @ op @ m_inv for key, op in mat.items()}


def _padded(mat, dim):
    return {key: SparseOp(dim, dim, op.data) for key, op in mat.items()}


def _base_solution(family, rep, m=1):
    """(case, G, H, dim): so(2m+1) or sp(2m) in its fundamental (JS 2l=1, H
    from it) or, for so(2m+1), the spinor (H = 0); so(3) or sp(2) by
    default."""
    case = make_case(family, m)
    if rep == "spinor":
        lop = build_spinorial_linear(case)
        return case, lop.g_mat, {}, lop.dim
    lop = build_js_quadratic(case, 1)
    return case, lop.g_mat, lop.h_mat, lop.dim


scalars = fractions.map(lambda f: Scalar(f.numerator, 0, f.denominator))
nonzero = scalars.filter(bool)


@st.composite
def block_operands(draw):
    """(case, g, x, dim, cols, w_tensor, pairs, solves) for the block kernel.

    Solutions conjugate a base representation (padded by a trivial summand
    to dim 3 at random) by I + t E_pq, so G and X carry mixed denominators;
    the adjoint X is H + s G.  Perturbed solutions change one entry of X
    (of G for lie and W, where X = G).  Random draws fill about half the
    entries of G and X with small fractions.
    For lie and adjoint, pairs is None, the Chevalley pairs, a random
    nonempty set of first-slot pairs or a random mapping of first-slot
    pairs to nonempty sets of keys (c, d); for W it is None.
    """
    check = draw(st.sampled_from(["lie", "adjoint", "w"]))
    kind = draw(st.sampled_from(["solution", "perturbed", "random"]))
    family, rep = draw(st.sampled_from([("so_odd", "js"), ("so_odd", "spinor"), ("sp", "js")]))
    case, g, h, dim = _base_solution(family, rep)
    if kind == "random":
        dim = draw(st.sampled_from([2, 3]))
        keys = list(product(case.indices, repeat=2))
        entry = st.one_of(st.just(ZERO), scalars)

        def opmat():
            out = {}
            for key in keys:
                data = {(i, j): draw(entry) for i in range(dim) for j in range(dim)}
                if any(data.values()):
                    out[key] = SparseOp(dim, dim, data)
            return out

        g = opmat()
        x = g if check != "adjoint" else opmat()
    else:
        if dim == 2 and draw(st.booleans()):
            dim = 3
            g, h = _padded(g, dim), _padded(h, dim)
        p, q = draw(st.sampled_from([(p, q) for p in range(dim) for q in range(dim) if p != q]))
        t = draw(nonzero)
        m, m_inv = _unipotent(dim, p, q, t), _unipotent(dim, p, q, -t)
        g = _conjugate(g, m, m_inv)
        if check == "adjoint":
            s = draw(scalars)
            x = {key: _conjugate(h, m, m_inv).get(key, SparseOp(dim, dim))
                 + g.get(key, SparseOp(dim, dim)).scale(s)
                 for key in set(g) | set(h)}
        else:
            x = g
        if kind == "perturbed":
            key = draw(st.sampled_from(sorted(x)))
            i, j = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
            x[key] = x[key] + SparseOp(dim, dim, {(i, j): draw(nonzero)})
    cols = draw(st.lists(st.integers(0, dim - 1), min_size=1, unique=True).map(sorted))
    pairs = None
    if check != "w":
        keys = st.sampled_from(list(product(case.indices, repeat=2)))
        pairs = draw(st.one_of(
            st.none(), st.just(chevalley_pairs(case)), st.lists(keys, min_size=1, unique=True),
            st.dictionaries(keys, st.lists(keys, min_size=1, unique=True).map(tuple),
                            min_size=1)))
    return case, g, x, dim, cols, check == "w", pairs, kind == "solution"


@settings(max_examples=60, deadline=None)
@given(block_operands())
def test_block_violation_matches_n4_reference(draw):
    case, g, x, dim, cols, w_tensor, pairs, solves = draw
    (gi, xi), den = clear_opmats([g, x])
    got = block_violation(case, gi, xi, den, cols, w_tensor, pairs)
    assert got == _reference_block_violation(case, g, x, dim, cols, w_tensor, pairs)
    if solves:
        assert got is None


# ---------------------------------------------------------------------------
# the Chevalley pairs generate g


def _x(case, a, b, coeff=ONE):
    """x_ab in g as {canonical pair: coefficient}, x_ab = -eps x_ba."""
    if a == b and case.eps == 1:
        return {}
    return {(a, b): coeff} if a <= b else {(b, a): coeff * -case.eps}


def _bracket(case, x, y):
    """[x, y] by the right side of the Lie relation on the generators:
    [x_ab, x_cd] = -eps_cb x_ad + eps_ad x_cb + eps_ac x_bd - eps_db x_ca."""
    eps = case.metric_lower
    out = {}
    for (a, b), s in x.items():
        for (c, d), t in y.items():
            for coeff, (p, q) in ((-eps(c, b), (a, d)), (eps(a, d), (c, b)),
                                  (eps(a, c), (b, d)), (-eps(d, b), (c, a))):
                for key, v in _x(case, p, q, coeff * s * t).items():
                    out[key] = out.get(key, ZERO) + v
    return {key: v for key, v in out.items() if v}


@pytest.mark.parametrize("family,m", [("so_odd", m) for m in range(1, 5)]
                         + [("so_even", m) for m in range(1, 5)]
                         + [("sp", m) for m in range(1, 4)])
def test_chevalley_pairs_generate_g(family, m):
    # the ad-closure of the pairs' span is the subalgebra they generate
    case = make_case(family, m)
    pairs = chevalley_pairs(case)
    assert len(pairs) == (1 if (family, m) == ("so_even", 1) else 2 * m)
    gens = [_x(case, a, b) for a, b in pairs]
    span, queue = VectorSpan(), list(gens)
    while queue:
        vec = queue.pop()
        if span.add(vec):
            queue.extend(_bracket(case, p, vec) for p in gens)
    n = case.n
    assert len(span) == (m * (2 * m + 1) if family == "sp" else n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# the presentation of g and the weight test


FAMILY_RANKS = ([("so_odd", m) for m in range(1, 5)] + [("so_even", m) for m in range(1, 5)]
                + [("sp", m) for m in range(1, 4)])


def _g_basis(case):
    """The keys (a, b), a < b (a <= b for sp), of a basis x_ab of g."""
    idx = case.indices
    return [(a, b) for a in idx for b in idx if a < b or (a == b and case.eps == -1)]


def _root(case, key):
    """The weight of x_key under the x_(i,-i): -lambda_i(c, d) for i = 1..m."""
    c, d = key
    return tuple((c == -i) - (c == i) + (d == -i) - (d == i) for i in range(1, case.m + 1))


@pytest.mark.parametrize("family,m", FAMILY_RANKS)
def test_presentation_is_read_off_the_structure_constants(family, m):
    case = make_case(family, m)
    pairs, relations = chevalley_pairs(case), presentation(case)
    basis = set(_g_basis(case))
    assert set(relations) <= set(pairs)
    assert all(set(keys) <= basis and len(set(keys)) == len(keys) for keys in relations.values())
    if len(pairs) < 2 * m:  # so(2) is abelian
        assert relations == {}
        return
    roots = [_root(case, p) for p in pairs]
    # the pairs e_0::2 and f_1::2 are the simple roots of two opposite Borel halves
    assert all(roots[2 * i] == tuple(-v for v in roots[2 * i + 1]) for i in range(m))
    # the h_i = [e_i, f_i] span the Cartan subalgebra
    span = VectorSpan()
    for i in range(m):
        h = bracket(case, pairs[2 * i], pairs[2 * i + 1])
        assert h and all(c == -d for c, d in h)
        span.add({key: Scalar(v) for key, v in h.items()})
    assert len(span) == m
    # ad(x_i)^k x_j = 0 first at k = 1 - a_ij, a_ij = 2 (a_i, a_j) / (a_i, a_i)
    for s in (0, 1):
        for i, j in product(range(m), repeat=2):
            if i == j:
                continue
            a_i, a_j = roots[2 * i + s], roots[2 * j + s]
            cartan = 2 * sum(x * y for x, y in zip(a_i, a_j)) // sum(x * x for x in a_i)
            z, k = {pairs[2 * j + s]: 1}, 0
            while z:
                (y,) = z
                z, k = bracket(case, pairs[2 * i + s], y), k + 1
            assert k == 1 - cartan
    # about dim g + O(m^2) relations, against 2m dim g on every key of the pairs
    assert sum(map(len, relations.values())) < len(basis) + 4 * m * m


@st.composite
def graded_operands(draw):
    """(case, g, x): diagonal Cartan blocks G_(i,-i) (some absent) with small
    rational weights on dim 2-4, and X with entries on keys whose lambda
    fits the weights of their position or, at random, on any key."""
    case = make_case(*draw(st.sampled_from([("so_even", 1), ("so_odd", 1), ("sp", 1),
                                             ("so_even", 2), ("so_odd", 2), ("sp", 3)])))
    dim = draw(st.integers(2, 4))
    weight = st.sampled_from([Scalar(v) for v in (-2, -1, 0, 1, 2)] + [Scalar(1, 0, 2)])
    mu = {i: [draw(weight) for _ in range(dim)] for i in range(1, case.m + 1)}
    g = {(i, -i): SparseOp(dim, dim, {(r, r): w for r, w in enumerate(mu[i])})
         for i in mu if draw(st.booleans())}
    keys = list(product(case.indices, repeat=2))
    x: dict = {}
    for _ in range(draw(st.integers(1, 6))):
        r, s = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        fits = [(c, d) for c, d in keys if all(
            (mu[i][r] - mu[i][s] if (i, -i) in g else ZERO)
            == Scalar(-((c == i) - (c == -i) + (d == i) - (d == -i))) for i in mu)]
        key = draw(st.sampled_from(fits if fits and draw(st.booleans()) else keys))
        data = dict(x[key].data) if key in x else {}
        data[r, s] = draw(nonzero)
        x[key] = SparseOp(dim, dim, data)
    return case, g, x


@settings(max_examples=150, deadline=None)
@given(graded_operands())
def test_weight_test_is_the_relation_at_the_cartan_pairs(drawn):
    case, g, x = drawn
    dim = next(iter(x.values())).nrows
    cartan = [(i, -i) for i in range(1, case.m + 1)]
    (g, x), den = clear_opmats([g, x])
    grading = cartan_grading(case, g, den)
    assert grading is not None
    holds = block_violation(case, g, x, den, range(dim), pairs=cartan) is None
    assert graded(grading, x) == holds


def test_cartan_grading_needs_diagonal_blocks():
    case = make_case("so_odd", 1)
    assert cartan_grading(case, {}, 1) is not None
    assert cartan_grading(case, {(1, -1): SparseOp(2, 2, {(0, 1): 1})}, 1) is None


# ---------------------------------------------------------------------------
# the extremal vectors of V x V and the YBE certificate on their columns

FUNDAMENTAL = ([("so_even" if n % 2 == 0 else "so_odd", n // 2) for n in range(3, 11)]
               + [("sp", m) for m in range(1, 5)])
FUNDAMENTAL_IDS = [f"so{n}" for n in range(3, 11)] + [f"sp{2 * m}" for m in range(1, 5)]
# (r, |supp(l_k)|): the r vectors l_k the certificate compares, 3 but for
# so(4) (so(3) + so(3): four summands) and sp(2) (V x V = S^2 V + 1), and
# their n + 3 pairs of V x V (a trivial vector on the n pairs (a, -a))
EXTREMAL = [(3, 6), (4, 9), (3, 8), (3, 9), (3, 10), (3, 11), (3, 12), (3, 13),
            (2, 3), (3, 7), (3, 9), (3, 11)]


def _pair_ops(case, pairs):
    """rho(x) x 1 + 1 x rho(x) on V x V for the pairs x."""
    ident = SparseOp.identity(case.n)
    return [rho(case, *p).kron(ident) + ident.kron(rho(case, *p)) for p in pairs]


@pytest.mark.parametrize("family,m,count",
                         [fm + (c,) for fm, c in zip(FUNDAMENTAL, EXTREMAL)],
                         ids=FUNDAMENTAL_IDS)
def test_extremal_vectors_are_killed_by_the_half_and_weight_homogeneous(family, m, count):
    case = make_case(family, m)
    pairs, n = chevalley_pairs(case), case.n
    ell = extremal_vectors(case)
    cartan = [rho(case, i, -i) for i in range(1, m + 1)]
    assert all(r.data.keys() <= {(p, p) for p in range(n)} for r in cartan)

    def weight(x):
        return tuple(r.data.get((x // n, x // n), ZERO) + r.data.get((x % n, x % n), ZERO)
                     for r in cartan)

    for vec in ell:
        assert all(not op.apply(vec) for op in _pair_ops(case, pairs[0::2]))
        assert len({weight(x) for x in vec}) == 1
    assert (len(ell), sum(map(len, ell))) == count
    assert all(type(v) is int for vec in ell for v in vec.values())
    # S_H is e_-1 alone: V is irreducible, and the half lowers e_-1 through V
    assert vector_seeds(case) == [case.pos(-1)]


def test_so2_has_no_generating_extremal_vectors():
    # so(2) is abelian: the vectors killed by its one pair are the weight 0
    # ones, which span 2 of the 4 dimensions, so YBE compares every column
    case = make_case("so_even", 1)
    assert extremal_vectors(case) is None
    assert check_ybe(case).passed
    assert not check_ybe(case, fundamental_r(case, flip_k=True)).passed


@pytest.mark.parametrize("family,m", [("so_odd", 1), ("so_even", 2), ("so_odd", 2), ("sp", 2)],
                         ids=["so3", "so4", "so5", "sp4"])
def test_ybe_residual_commutes_with_the_diagonal_action(family, m):
    # flip_k's R is still in span{I, P, K}: its residual is nonzero and
    # commutes with rho + rho + rho, which pins the index convention of rho
    case = make_case(family, m)
    n = case.n
    full, _ = identity_residual(ybe_form(fundamental_r(case, flip_k=True)), unit_vectors(n * n),
                                range(n))
    assert full
    ident = SparseOp.identity(n)
    for p in chevalley_pairs(case):
        r = rho(case, *p)
        d = r.kron(ident).kron(ident) + ident.kron(r).kron(ident) + ident.kron(ident).kron(r)
        for entries in full.values():
            phi = SparseOp(n ** 3, n ** 3, entries)
            assert phi @ d == d @ phi


@pytest.mark.parametrize("family,m", FUNDAMENTAL, ids=FUNDAMENTAL_IDS)
def test_ybe_holds_on_the_extremal_columns(family, m):
    case = make_case(family, m)
    residual, keys = identity_residual(ybe_form(fundamental_r(case)), extremal_vectors(case),
                                       vector_seeds(case))
    assert residual == {} and keys and check_ybe(case).passed


@pytest.mark.parametrize("family,m", [("so_even", 1)] + FUNDAMENTAL[:6] + FUNDAMENTAL[8:11],
                         ids=["so2"] + FUNDAMENTAL_IDS[:6] + FUNDAMENTAL_IDS[8:11])
def test_ybe_refutation_is_the_first_violation_of_every_column(family, m):
    case = make_case(family, m)
    n, rmat = case.n, fundamental_r(case, flip_k=True)
    form = ybe_form(rmat)
    full, _ = identity_residual(form, unit_vectors(n * n), range(n))
    (row, col), res = first_violation(full)
    assert locate_violation(form, range(n)) == ((row, col), res)
    assert check_ybe(case, rmat).violation == (describe_flat(case, case.indices, row, n),
                                               describe_flat(case, case.indices, col, n), res)


def _corrupted_r(case, t, entry, value):
    """The fundamental R with `value` added at `entry` of its u^t coefficient."""
    rmat = fundamental_r(case)
    coeffs = list(rmat.coeffs)
    coeffs[t] = coeffs[t] + SparseOp(case.n ** 2, case.n ** 2, {entry: value})
    rmat.coeffs = tuple(coeffs)
    return rmat


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_row_block_locator_is_the_full_first_violation(data):
    family, m = data.draw(st.sampled_from([("so_odd", 1), ("sp", 1), ("so_even", 2), ("sp", 2)]))
    case = make_case(family, m)
    size = case.n ** 2
    rmat = _corrupted_r(case, data.draw(st.integers(0, 2)),
                        (data.draw(st.integers(0, size - 1)), data.draw(st.integers(0, size - 1))),
                        data.draw(nonzero))
    cols = data.draw(st.lists(st.integers(0, case.n - 1), min_size=1, unique=True))
    form = ybe_form(rmat)
    full, _ = identity_residual(form, unit_vectors(size), cols)
    assert locate_violation(form, cols) == (first_violation(full) if full else None)


def test_row_block_locator_finds_a_first_violation_in_a_k_block():
    # one more entry in R's u^0 coefficient breaks YBE first in the K row
    # block (-1, 1): the locator's left product there reads every K block
    case = make_case("so_odd", 1)
    form = ybe_form(_corrupted_r(case, 0, (6, 0), ONE))
    full, _ = identity_residual(form, unit_vectors(9), range(3))
    (row, col), res = first_violation(full)
    a1, a2, _ = describe_flat(case, case.indices, row, 3)
    assert (a1, a2) == (-1, 1)
    assert locate_violation(form, range(3)) == ((row, col), res)
