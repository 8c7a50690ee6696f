"""Exact scalar / polynomial / sparse matrix arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yanglab.exact import (
    ONE,
    ZERO,
    BiPoly,
    Scalar,
    SparseOp,
    UniPoly,
    VectorSpan,
    axpy,
    clear_opmats,
    common_denominator,
    int_columns,
    nullspace,
    poly_eval,
    rational_roots,
    reduce_ratio,
    scatter,
)


def rnd_scalar(rng):
    return Scalar(rng.randint(-6, 6), 0, rng.randint(1, 5))


def test_scalar_basic_arithmetic():
    a = Scalar(1, 0, 2)
    b = Scalar(-4, 0, 6)  # normalized to -2/3
    assert (b.p, b.r) == (-2, 3) and not hasattr(b, "q")
    assert a + b == Scalar(-1, 0, 6)
    assert a * b == Scalar(-1, 0, 3)
    assert a * 2 == 1 and a + 1 == Scalar(3, 0, 2)
    assert (a - a).is_zero and (a - a).r == 1
    with pytest.raises(ValueError):  # the q slot of (p, q, r) only takes 0
        Scalar(1, 1, 2)


def test_scalar_inverse_and_division():
    a = Scalar(-3, 0, 4)
    assert a.inv() == Scalar(-4, 0, 3)
    assert a * a.inv() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()
    # the guard also catches the normalized zero
    with pytest.raises(ZeroDivisionError):
        ONE / (a - a)
    assert (Scalar(2, 0, 3) / Scalar(2, 0, 3)) == ONE and 2 / Scalar(4) == Scalar(1, 0, 2)


def test_scalar_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(300):
        a, b, c = (rnd_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_scalar_string_round_trip():
    rng = random.Random(11)
    values = [ZERO, ONE, Scalar(-3, 0, 4), Scalar(2, 0, 6)]
    values += [Scalar(rng.randint(-40, 40), 0, rng.randint(1, 30)) for _ in range(300)]
    for v in values:
        assert Scalar.from_string(v.to_string()) == v
    assert Scalar.from_string("3/2") == Scalar(3, 0, 2)
    assert Scalar.from_string("-2/4") == Scalar(-1, 0, 2)
    assert Scalar.from_string(" -7 ") == Scalar(-7)
    assert ZERO.to_string() == "0/1" and Scalar(6, 0, -4).to_string() == "-3/2"


@pytest.mark.parametrize("text", ["1+2*s2", "1/2+1/2*s2",
                                  "2*s2+1", "s2", "1/2*s2", "1/2+s2", "1/2+-1/3*s2",
                                  "1/2+1/3*s2+1", "1.5", "1/0", "1/2+1/0*s2", "1 2",
                                  "", "abc", "1/2/3"])
def test_scalar_from_string_rejects_other_forms(text):
    with pytest.raises(ValueError):
        Scalar.from_string(text)


def test_poly_eval_examples():
    p = UniPoly([-1, 0, 1])  # u^2 - 1
    assert poly_eval(p, 3) == 8
    assert poly_eval(UniPoly(), Scalar(5, 0, 7)) == ZERO


def test_poly_degree_additivity_randomized():
    rng = random.Random(7)
    for _ in range(60):
        p = UniPoly([rnd_scalar(rng) for _ in range(rng.randint(1, 4))] + [ONE])
        q = UniPoly([rnd_scalar(rng) for _ in range(rng.randint(1, 4))] + [ONE])
        assert (p * q).degree == p.degree + q.degree
    assert UniPoly().degree == float("-inf")


def test_poly_shift_reflect_divmod():
    u = UniPoly.u()
    p = (u - 1) * (u + Scalar(1, 0, 2)) * (u + Scalar(1, 0, 2))
    q, r = p.divmod(u - 1)
    assert r.is_zero and q == (u + Scalar(1, 0, 2)) * (u + Scalar(1, 0, 2))
    assert p.shift(1).eval(ZERO) == p.eval(ONE)
    assert p.reflect().eval(Scalar(-2)) == p.eval(Scalar(2))
    assert p.compose_linear(2, 1).eval(Scalar(3)) == p.eval(Scalar(7))


def test_rational_roots_examples():
    u = UniPoly.u()
    half = Scalar(1, 0, 2)
    p = (u - 1) * (u + half) * (u + half)
    roots, rest = rational_roots(p)
    assert roots == {ONE: 1, -half: 2}
    assert rest == UniPoly.const(1)

    roots, rest = rational_roots(UniPoly([1, 0, 1]))  # u^2 + 1
    assert roots == {}
    assert rest == UniPoly([1, 0, 1])

    # (u - l)(u - l + 1)(u + l - 1) at l = 1 is u^2 (u - 1)
    p3 = (u - 1) * u * u
    roots, rest = rational_roots(p3)
    assert roots == {ONE: 1, ZERO: 2}
    assert rest == UniPoly.const(1)


def test_reduce_ratio_cancels_and_normalizes():
    u = UniPoly.u()
    num = (u - 1) * (u + 2) * Scalar(3)
    den = (u - 1) * (u + 5) * Scalar(6)
    rn, rd = reduce_ratio(num, den)
    assert rd == u + 5
    assert rn == (u + 2) * Scalar(1, 0, 2)


def test_bipoly_substitution():
    bp = BiPoly({(1, 1): ONE, (0, 2): Scalar(2), (0, 0): -ONE})
    p = bp.subs_v(Scalar(3))
    assert p == UniPoly([Scalar(17), Scalar(3)])
    assert (bp - bp).is_zero


def test_sparse_op_algebra():
    a = SparseOp(2, 2, {(0, 1): ONE, (1, 0): Scalar(2)})
    b = SparseOp(2, 2, {(0, 0): Scalar(3), (1, 1): -ONE})
    assert (a @ b).data == {(0, 1): -ONE, (1, 0): Scalar(6)}
    assert a.rows() == {0: {1: ONE}, 1: {0: Scalar(2)}}
    ident = SparseOp.identity(2)
    assert a @ ident == a
    kr = ident.kron(a)
    assert kr.nrows == 4 and kr.data[(0, 1)] == ONE and kr.data[(2, 3)] == ONE
    vec = a.apply({0: ONE, 1: Scalar(5)})
    assert vec == {0: Scalar(5), 1: Scalar(2)}


def test_sparse_op_associativity_randomized():
    rng = random.Random(99)
    for _ in range(25):
        def rnd_op():
            data = {}
            for _ in range(6):
                data[(rng.randrange(4), rng.randrange(4))] = rnd_scalar(rng)
            return SparseOp(4, 4, data)
        a, b, c = rnd_op(), rnd_op(), rnd_op()
        assert (a @ b) @ c == a @ (b @ c)


def _small_ops(shape, values):
    """SparseOps of `shape` with a few entries drawn from `values` (maybe none)."""
    rows, cols = shape
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    return st.dictionaries(cells, values, max_size=4).map(
        lambda data: SparseOp(rows, cols, data))


@st.composite
def scatter_inputs(draw):
    """Blocks {(f, d): op} of Scalars (2 x 3) and terms (d, c, sign, Y), Y int
    3 x 2: d = 3 has no block and some blocks have empty columns, (d, c)
    may repeat and a term may come back with the other sign, so that sums
    cancel."""
    entries = st.sampled_from([ONE, -ONE, Scalar(2), Scalar(-3, 0, 2), Scalar(1, 0, 3)])
    keys = st.tuples(st.integers(0, 2), st.integers(0, 2))
    blocks = draw(st.dictionaries(keys, _small_ops((2, 3), entries), max_size=5))
    term = st.tuples(st.integers(0, 3), st.integers(0, 1), st.sampled_from([1, -1]),
                     _small_ops((3, 2), st.integers(-3, 3)))
    terms = draw(st.lists(term, max_size=6))
    if terms and draw(st.booleans()):
        d, c, sign, y = draw(st.sampled_from(terms))
        terms.append((d, c, -sign, y))
    return blocks, terms


@settings(max_examples=200, deadline=None)
@given(scatter_inputs())
def test_scatter_is_the_signed_sum_of_block_products(drawn):
    blocks, terms = drawn
    (ints,), den = clear_opmats([blocks])
    columns = int_columns(ints)
    want: dict = {}  # (f, c): sum of sign * A[f, d] @ Y, one SparseOp product per block
    for d, c, sign, y in terms:
        for (f, e), op in ints.items():
            if e == d:
                prod = (op @ y).scale(sign)
                want[f, c] = want[f, c] + prod if (f, c) in want else prod
    got = scatter(columns, terms)
    for (f, c, i, j), v in got.items():
        assert v == want[f, c].data.get((i, j), 0)  # a cancelled entry stays as 0
    assert {key: op.data for key, op in want.items() if op.data} == {
        key: {(i, j): v for (f, c, i, j), v in got.items() if (f, c) == key and v}
        for key in {(f, c) for (f, c, _, _), v in got.items() if v}}


def test_axpy_drops_cancelling_entries():
    acc = {(0, 0): Scalar(2), (0, 1): Scalar(1)}
    axpy(acc, -1, {(0, 0): Scalar(2), (1, 1): Scalar(3)})
    assert acc == {(0, 1): Scalar(1), (1, 1): Scalar(-3)}
    axpy(acc, Scalar(1, 0, 3), {(1, 1): Scalar(9)})
    assert acc == {(0, 1): Scalar(1)}


def test_clear_opmats_to_ints_and_back():
    a = SparseOp(2, 2, {(0, 0): Scalar(1, 0, 2), (0, 1): Scalar(-2, 0, 3)})
    b = SparseOp(2, 2, {(1, 1): Scalar(5, 0, 4)})
    (ia, ib), d = clear_opmats([{0: a}, {1: b}])  # one lcm over both
    ia, ib = ia[0], ib[1]
    assert d == 12
    assert ia.data == {(0, 0): 6, (0, 1): -8} and ib.data == {(1, 1): 15}
    assert all(type(v) is int for v in list(ia.data.values()) + list(ib.data.values()))
    # int entries run through the same SparseOp arithmetic, zero tests included
    prod = ia @ ib
    assert prod.data == {(0, 1): -120}
    assert (ia + ia.scale(-1)).is_zero and not SparseOp(1, 1, {(0, 0): 0}).data
    assert {k: Scalar(v, 0, d * d) for k, v in prod.data.items()} == (a @ b).data
    assert common_denominator([]) == 1


def test_nullspace_exact():
    # kernel of [[1, 2, 3], [0, 1, 1]] is spanned by (-1, -1, 1)
    rows = [{0: ONE, 1: Scalar(2), 2: Scalar(3)}, {1: ONE, 2: ONE}]
    basis = nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert [x * v[2].inv() for x in v] == [-ONE, -ONE, ONE]
    # full-rank system has trivial kernel
    assert nullspace([{0: ONE}, {1: ONE}, {2: Scalar(3, 0, 2)}], 3) == []


def _dense_rank(rows, ncols):
    """Rank by plain Gaussian elimination on dense copies of the rows."""
    mat = [[row.get(j, ZERO) for j in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        hit = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if hit is None:
            continue
        mat[rank], mat[hit] = mat[hit], mat[rank]
        inv = mat[rank][col].inv()
        for i in range(rank + 1, len(mat)):
            f = mat[i][col] * inv
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


_entries = st.sampled_from([ZERO, ZERO, ONE, -ONE, Scalar(2), Scalar(-3, 0, 2), Scalar(1, 0, 3)])


@st.composite
def linear_systems(draw):
    """Rows over Q, some of them combinations of earlier rows."""
    ncols = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(_entries), draw(_entries)
            row = {j: a.get(j, ZERO) * s + b.get(j, ZERO) * t for j in range(ncols)}
        else:
            row = {j: draw(_entries) for j in range(ncols)}
        rows.append({j: v for j, v in row.items() if v})
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_nullspace_defining_properties(system):
    rows, ncols = system
    basis = nullspace(rows, ncols)
    assert len(basis) == ncols - _dense_rank(rows, ncols)
    # each vector has a one at its free column (its last nonzero entry)
    # and zeros at the free columns of the others
    free = [max(j for j, x in enumerate(v) if x) for v in basis]
    assert free == sorted(set(free))
    for v, fc in zip(basis, free):
        assert len(v) == ncols and v[fc] == ONE
        assert all(not v[other] for other in free if other != fc)
        for row in rows:
            total = ZERO
            for j, x in row.items():
                total = total + x * v[j]
            assert not total


def _subtract(vec, c, row):
    """vec -= c * row over Fractions, dropping the entries that cancel."""
    for j, v in row.items():
        acc = vec.get(j, 0) - c * v
        if acc:
            vec[j] = acc
        else:
            vec.pop(j, None)


class _FractionSpan:
    """Reference: the elimination over Q that VectorSpan's integer rows
    replace, with leading-one rows of Fractions reduced in pivot order."""

    def __init__(self):
        self.rows = []  # sorted (pivot, {index: Fraction})

    def reduce(self, vec):
        vec = {j: Fraction(v.p, v.r) for j, v in vec.items() if v}
        for piv, row in self.rows:
            c = vec.get(piv)
            if c is not None:
                _subtract(vec, c, row)
        return vec

    def add(self, vec):
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        self.rows.append((piv, {j: v / vec[piv] for j, v in vec.items()}))
        self.rows.sort(key=lambda item: item[0])
        return True

    def reduced(self):
        """The RREF: each leading-one row with its entries at the later
        pivots cleared by the rows already reduced, last pivot first."""
        done = []
        for piv, row in reversed(self.rows):
            row = dict(row)
            for q, red in done:
                c = row.get(q)
                if c is not None:
                    _subtract(row, c, red)
            done.append((piv, row))
        return [row for _, row in reversed(done)]

    def nullspace(self, ncols):
        pivots = {piv for piv, _ in self.rows}
        basis = []
        for fc in (j for j in range(ncols) if j not in pivots):
            vec = [Fraction(0)] * ncols
            vec[fc] = Fraction(1)
            for piv, row in reversed(self.rows):
                vec[piv] = -sum(v * vec[j] for j, v in row.items() if j != piv)
            basis.append(vec)
        return basis


_span_entries = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, Scalar(2), Scalar(-3, 0, 2),
                                 Scalar(5, 0, 6), Scalar(-7, 0, 4)])


def _combine(vectors, factors):
    out = {}
    for vec, f in zip(vectors, factors):
        for j, v in vec.items():
            out[j] = out.get(j, ZERO) + f * v
    return {j: v for j, v in out.items() if v}


@st.composite
def span_inputs(draw):
    """(ncols, vectors, probes): sparse rational vectors, some of them
    combinations of earlier ones (planted dependencies), some with plain
    int entries; probes are combinations of the vectors (in the span) or
    random vectors (in it or not)."""
    ncols = draw(st.integers(1, 8))
    vectors = []
    for _ in range(draw(st.integers(0, 8))):
        if vectors and draw(st.booleans()):
            picked = draw(st.lists(st.sampled_from(vectors), min_size=1, max_size=3))
            vec = _combine(picked, [draw(_span_entries) for _ in picked])
        else:
            vec = {j: draw(_span_entries) for j in range(ncols)}
        if draw(st.booleans()) and all(v.r == 1 for v in vec.values()):
            vec = {j: v.p for j, v in vec.items()}
        vectors.append({j: v for j, v in vec.items() if v})
    probes = []
    for _ in range(draw(st.integers(0, 4))):
        if vectors and draw(st.booleans()):
            probes.append(_combine(vectors, [draw(_span_entries) for _ in vectors]))
        else:
            probes.append({j: v for j in range(ncols) if (v := draw(_span_entries))})
    return ncols, vectors, probes


def _fractions(vec):
    return {j: v.as_fraction() if isinstance(v, Scalar) else Fraction(v) for j, v in vec.items()}


@settings(max_examples=200, deadline=None)
@given(span_inputs())
def test_vector_span_matches_fraction_elimination(drawn):
    ncols, vectors, probes = drawn
    span, ref = VectorSpan(), _FractionSpan()
    scalar_vectors = [{j: Scalar.of(v) for j, v in vec.items()} for vec in vectors]
    assert [span.add(vec) for vec in vectors] == [ref.add(vec) for vec in scalar_vectors]
    got = span.vectors()
    assert all(isinstance(v, Scalar) for vec in got for v in vec.values())
    assert [_fractions(vec) for vec in got] == [row for _, row in ref.rows]
    reduced = span.reduced()
    assert all(isinstance(v, Scalar) and v for vec in reduced for v in vec.values())
    assert [_fractions(vec) for vec in reduced] == ref.reduced()
    for probe in probes:  # membership: the remainder is empty exactly on the span
        assert bool(span.reduce(probe)) == bool(ref.reduce(probe))
    assert [[x.as_fraction() for x in vec] for vec in nullspace(scalar_vectors, ncols)] == \
        ref.nullspace(ncols)
