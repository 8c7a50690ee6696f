"""Case descriptors, invariant metric, fundamental R-matrix, the RLL
identity engine and the YBE checker built on it, and the block kernel of
the Lie, adjoint and W relations.

The block kernel compares every first-slot pair (a, b), or only a given
set of them: the Chevalley pairs (`chevalley_pairs`) generate g, and a
relation whose set of solutions x is a Lie subalgebra of g holds on all of
g once it holds on them (the premises are decided in the verify module).

Index conventions used everywhere in this package: the fundamental space
of so(2m) / sp(2m) carries indices (-m, ..., -1, +1, ..., +m) and so(2m+1)
additionally the index 0.  Basis order is (-m, ..., -1, 0, 1, ..., m) and
every tensor flattening is row-major in that order.

The metric is eps_{ab} = eps_a delta_{a,-b} with eps_i = 1 for i > 0,
eps_{-i} = eps (the orthogonal/symplectic sign) and eps_0 = 1.  Raising
uses the inverse metric eps^{ab} = eps_{-a} delta_{a,-b}, which satisfies
eps_{ac} eps^{cb} = delta_a^b.  Note K^2 = eps * n * K under these
conventions (the sign matters in the symplectic case).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

from .exact import (
    ONE,
    ZERO,
    BiPoly,
    Scalar,
    SparseOp,
    UniPoly,
    clear_denominators,
    common_denominator,
)

FAMILIES = ("so_even", "so_odd", "sp")


@dataclass(frozen=True)
class CaseDescriptor:
    """Algebra family, rank, dimension, sign and the constant beta."""

    family: str
    m: int
    n: int
    eps: int
    beta: Scalar
    indices: tuple = field(default_factory=tuple)

    @property
    def has_zero(self) -> bool:
        return self.family == "so_odd"

    def pos(self, a: int) -> int:
        return self.indices.index(a)

    def sign(self, a: int) -> int:
        """Metric sign eps_a (eps_i = 1, eps_{-i} = eps, eps_0 = 1)."""
        return 1 if a >= 0 else self.eps

    def metric_lower(self, a: int, b: int) -> Scalar:
        if a != -b:
            return ZERO
        return Scalar.of(self.sign(a))

    def metric_upper(self, a: int, b: int) -> Scalar:
        if a != -b:
            return ZERO
        return Scalar.of(self.sign(-a))

    def label(self) -> str:
        stem = {"so_even": "so", "so_odd": "so", "sp": "sp"}[self.family]
        return f"{stem}({self.n})"


def make_case(family: str, m: int) -> CaseDescriptor:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m < 1:
        raise ValueError("rank m must be >= 1")
    if family == "sp":
        n, eps = 2 * m, -1
    elif family == "so_even":
        n, eps = 2 * m, 1
    else:
        n, eps = 2 * m + 1, 1
    beta = Scalar(n, 0, 2) - eps
    idx = list(range(-m, 0)) + ([0] if family == "so_odd" else []) + list(range(1, m + 1))
    return CaseDescriptor(family, m, n, eps, beta, tuple(idx))


# ---------------------------------------------------------------------------
# I, P, K on the tensor square of the fundamental space


def _flat2(case: CaseDescriptor, a1: int, a2: int) -> int:
    return case.pos(a1) * case.n + case.pos(a2)


def tensor_i(case: CaseDescriptor) -> SparseOp:
    return SparseOp.identity(case.n * case.n)


def tensor_p(case: CaseDescriptor) -> SparseOp:
    """Permutation P: (b1, b2) -> (b2, b1)."""
    data = {}
    for a1 in case.indices:
        for a2 in case.indices:
            data[(_flat2(case, a1, a2), _flat2(case, a2, a1))] = ONE
    return SparseOp(case.n ** 2, case.n ** 2, data)


def k_form(case: CaseDescriptor):
    """K = |up><low| as two metric-sign maps {pair position: +-1}.

    up[(a, -a)] = eps^{a,-a} and low[(b, -b)] = eps_{b,-b}.
    """
    up = {_flat2(case, a, -a): case.sign(-a) for a in case.indices}
    low = {_flat2(case, b, -b): case.sign(b) for b in case.indices}
    return up, low


def tensor_k(case: CaseDescriptor) -> SparseOp:
    """K = eps^{a1 a2} eps_{b1 b2}, the metric rank-one projector times n."""
    up, low = k_form(case)
    data = {(x, y): Scalar.of(sx * sy) for x, sx in up.items() for y, sy in low.items()}
    return SparseOp(case.n ** 2, case.n ** 2, data)


class RMatrix:
    """R(w) = f_I(w) I + f_P(w) P + f_K(w) K on the tensor square of V.

    `ipk` holds the three polynomials f_I, f_P, f_K as coefficient tuples
    by power of w; `coeffs` are the matching SparseOps and `entry` exposes
    the UniPoly at a single multi-index.
    """

    __slots__ = ("case", "ipk", "coeffs")

    def __init__(self, case: CaseDescriptor, ipk):
        self.case = case
        self.ipk = tuple(tuple(Scalar.of(c) for c in f) for f in ipk)
        size = case.n ** 2
        ops = (tensor_i(case), tensor_p(case), tensor_k(case))
        self.coeffs = tuple(
            sum((op.scale(f[t]) for f, op in zip(self.ipk, ops) if t < len(f)),
                SparseOp.zeros(size, size))
            for t in range(max(map(len, self.ipk))))

    def entry(self, a_pair, b_pair) -> UniPoly:
        row = _flat2(self.case, *a_pair)
        col = _flat2(self.case, *b_pair)
        return UniPoly([c.data.get((row, col), ZERO) for c in self.coeffs])

    def eval(self, u) -> SparseOp:
        u = Scalar.of(u)
        acc = SparseOp.zeros(self.case.n ** 2, self.case.n ** 2)
        upow = ONE
        for c in self.coeffs:
            acc = acc + c.scale(upow)
            upow = upow * u
        return acc


def fundamental_ipk(case: CaseDescriptor, flip_k: bool = False) -> tuple:
    """(f_I, f_P, f_K) of R(w) = w(w+beta) I + (w+beta) P - eps w K."""
    k_sign = Scalar.of(case.eps if flip_k else -case.eps)
    return ((ZERO, case.beta, ONE), (case.beta, ONE), (ZERO, k_sign))


def fundamental_r(case: CaseDescriptor, flip_k: bool = False) -> RMatrix:
    """The fundamental R-matrix; flip_k flips the K-term sign (a knowingly
    broken variant used as the YBE negative control)."""
    return RMatrix(case, fundamental_ipk(case, flip_k))


# ---------------------------------------------------------------------------
# the RLL identity engine (the Yang-Baxter equation is RLL with L = R)


def slot_operator(n: int, entries, dim_w: int, slot: int) -> SparseOp:
    """Embed an operator matrix into slot 1 or 2 of (V x V) x W.

    `entries` yields (pa, pb, i, j, value): the (i, j) entry of the
    operator on W at matrix position (pa, pb), positions counted from 0.
    The flat index of (p1, p2, w) is (p1 * n + p2) * dim_w + w.
    """
    big = {}
    for pa, pb, i, j, val in entries:
        for c in range(n):
            if slot == 1:
                big[((pa * n + c) * dim_w + i, (pb * n + c) * dim_w + j)] = val
            else:
                big[((c * n + pa) * dim_w + i, (c * n + pb) * dim_w + j)] = val
    size = n * n * dim_w
    return SparseOp(size, size, big)


def _axpy(acc: dict, c, data: dict) -> None:
    """acc += c * data entrywise, dropping the entries that cancel."""
    neg = c == -1
    if not neg and c != 1:
        data = {key: val * c for key, val in data.items()}
    for key, val in data.items():
        cur = acc.get(key)
        if cur is None:
            acc[key] = -val if neg else val
        else:
            tot = cur - val if neg else cur + val
            if tot:
                acc[key] = tot
            else:
                del acc[key]


def _k_apply(k, data: dict, dim_w: int, left: bool) -> dict:
    """K times data (left) or data times K, K acting on the pair index."""
    up, low = k
    inner, outer = (low, up) if left else (up, low)
    contracted: dict = {}
    for (r, c), v in data.items():
        pair, w = divmod(r if left else c, dim_w)
        sign = inner.get(pair)
        if sign is None:
            continue
        key = (w, c) if left else (r, w)
        cur = contracted.get(key)
        if cur is None:
            contracted[key] = v if sign == 1 else -v
        else:
            tot = cur + v if sign == 1 else cur - v
            if tot:
                contracted[key] = tot
            else:
                del contracted[key]
    out = {}
    for (x, y), s in contracted.items():
        neg = -s
        for pair, sign in outer.items():
            key = (pair * dim_w + x, y) if left else (x, pair * dim_w + y)
            out[key] = s if sign == 1 else neg
    return out


def identity_residual(ipk, c1, c2, cols, n: int, k=None):
    """Residual of R12(u-v) L1(u) L2(v) - L2(v) L1(u) R12(u-v) by (u, v) key.

    R(w) = f_I(w) I + f_P(w) P + f_K(w) K acts on the pair of (V x V) x W;
    `ipk` = (f_I, f_P, f_K) as coefficient tuples by power of w, `k` the
    `k_form` of K (needed when f_K is nonzero).  `c1` and `c2` list the
    coefficients of L1(u) and L2(v) as slot operators (`slot_operator`).
    Only the columns `cols` are compared, exactly.

    For each (i, j) the products C1_i C2_j and C2_j C1_i are formed once,
    then D_X = X C1_i C2_j - C2_j C1_i X once for X in {I, P, K}; the sum
    over X of f_X[t] D_X is expanded over (u - v)^t into one residual.

    The residual is linear in R's coefficients and bilinear in (L1, L2),
    so C1, C2 and f_X are first multiplied by the lcm of their
    denominators (D1, D2, Dr) and the loop runs on plain ints; only the
    surviving residual entries are divided by D1 D2 Dr, at return.  An
    operand carrying sqrt2 keeps its Scalar entries (and a factor 1).

    Returns (residual, keys): residual maps each (deg_u, deg_v) key whose
    coefficient does not vanish to its entries {(row, col): Scalar}, and
    keys is the number of (u, v) keys compared.
    """
    c1, d1 = clear_denominators(c1)
    c2, d2 = clear_denominators(c2)
    dr = common_denominator(c for f in ipk for c in f)
    if dr is None:
        dr = 1
    else:
        ipk = [[c.p * (dr // c.r) for c in f] for f in ipk]
    den = d1 * d2 * dr
    dim = c1[0].nrows
    dim_w = dim // (n * n)
    swap = []
    for r in range(dim):
        pair, w = divmod(r, dim_w)
        p1, p2 = divmod(pair, n)
        swap.append((p2 * n + p1) * dim_w + w)
    actions = (  # (X times data, data times X) for X = I, P, K; left ones copy
        (dict, lambda d: d),
        (lambda d: {(swap[r], c): v for (r, c), v in d.items()},
         lambda d: {(r, swap[c]): v for (r, c), v in d.items()}),
        (lambda d: _k_apply(k, d, dim_w, True), lambda d: _k_apply(k, d, dim_w, False)),
    )
    # per power t of w: the pairs (f_X[t], X) with f_X[t] != 0
    terms = [[(f[t], x) for x, f in enumerate(ipk) if t < len(f) and f[t]]
             for t in range(max(map(len, ipk)))]
    used = sorted({x for t_terms in terms for _, x in t_terms})
    keep = set(cols)
    c1r = [op.restrict_cols(keep) for op in c1]
    c2r = [op.restrict_cols(keep) for op in c2]

    residual: dict = {}
    keys = set()
    for i, a in enumerate(c1):
        for j, b in enumerate(c2):
            if a.is_zero or b.is_zero:
                continue
            left, right = (a @ c2r[j]).data, (b @ c1r[i]).data
            diffs = {}
            for x in used:
                diffs[x] = actions[x][0](left)
                _axpy(diffs[x], -1, actions[x][1](right))
            for t, t_terms in enumerate(terms):
                diff: dict = {}
                for f, x in t_terms:
                    _axpy(diff, f, diffs[x])
                for p in range(t + 1 if t_terms else 0):
                    key = (i + p, j + t - p)
                    keys.add(key)
                    if diff:
                        _axpy(residual.setdefault(key, {}), (-1) ** (t - p) * comb(t, p), diff)
    return {key: {pos: _divide(v, den) for pos, v in entries.items()}
            for key, entries in residual.items() if entries}, len(keys)


def _divide(value, den: int) -> Scalar:
    """An int or Scalar residual entry divided by the cleared denominator."""
    if isinstance(value, int):
        return Scalar(value, 0, den)
    return Scalar(value.p, value.q, value.r * den)


def first_violation(residual: dict):
    """The first violating (row, col) in sorted order and its BiPoly residual."""
    first = min(min(entries) for entries in residual.values())
    return first, BiPoly({key: entries[first] for key, entries in sorted(residual.items())
                          if first in entries})


def describe_flat(case: CaseDescriptor, labels, flat: int, dim_w: int) -> tuple:
    """(a1, a2, label of w) for a flat index of (V x V) x W."""
    pair, w = divmod(flat, dim_w)
    p1, p2 = divmod(pair, case.n)
    return (case.indices[p1], case.indices[p2], labels[w])


# ---------------------------------------------------------------------------
# the (V x V) x W block kernel of the Lie, adjoint and W relations


def _cleared_blocks(case: CaseDescriptor, mat: dict):
    """({(pos a, pos b): op}, D): the opmat `mat` times D on ints, by position."""
    keys = list(mat)
    ops, den = clear_denominators([mat[key] for key in keys])
    return {(case.pos(a), case.pos(b)): op for (a, b), op in zip(keys, ops)}, den


def _slot(n: int, blocks: dict, dim_w: int, slot: int) -> SparseOp:
    entries = ((pa, pb, i, j, v) for (pa, pb), op in blocks.items() for (i, j), v in op.data.items())
    return slot_operator(n, entries, dim_w, slot)


def _row_blocks(op: SparseOp, size: int, count: int) -> list:
    """op split into `count` SparseOps holding `size` consecutive rows each."""
    blocks = [SparseOp(op.nrows, op.ncols) for _ in range(count)]
    for key, val in op.data.items():
        blocks[key[0] // size].data[key] = val
    return blocks


def chevalley_pairs(case: CaseDescriptor) -> list:
    """First-slot pairs (a, b) whose generators x_ab generate g as a Lie algebra.

    g is spanned by the x_ab modulo x_ab = -eps x_ba, with the bracket that
    the right side of the Lie relation (`block_violation`) applies to the
    indices.  The pairs are the Chevalley generators e_i, f_i: for i < m
    the simple root vectors (i, -(i+1)) and (-i, i+1), and one more pair
    with its negative, (m, 0) and (-m, 0) for so(2m+1), (m-1, m) and
    (-(m-1), -m) for so(2m), (m, m) and (-m, -m) for sp(2m).  so(2) is
    abelian and spanned by its one pair (-1, 1).
    """
    m = case.m
    if case.family == "so_even" and m == 1:
        return [(-1, 1)]
    pairs = [p for i in range(1, m) for p in ((i, -(i + 1)), (-i, i + 1))]
    last = {"so_odd": (m, 0), "so_even": (m - 1, m), "sp": (m, m)}[case.family]
    return pairs + [last, (-last[0], -last[1])]


def block_violation(case: CaseDescriptor, g: dict, x: dict, dim_w: int, cols,
                    w_tensor: bool = False, pairs=None):
    """First violation of the Lie-type identity of G and X on (V x V) x W.

    S1 carries G in slot 1 and S2 carries X in slot 2 (`slot_operator`), so
    the block ((a, c), (b, d)) of S1 S2 is G_ab X_cd and that of S2 S1 is
    X_cd G_ab.  The identity is the relation

      [G_ab, X_cd] = -eps_cb X_ad + eps_ad X_cb + eps_ac X_bd - eps_db X_ca

    (lie with X = G, adjoint with X = H), whose right side is placed block
    by block through index relabelling, with no product; or, with
    `w_tensor`, W_abcd = 0 for the cyclic sum over (b, c, d) of
    G_ab X_cd + X_cd G_ab, which is the six-term W tensor when X = G.

    The residual is streamed one first-slot block row a at a time: two
    SparseOp products per row (the rows a of S1 S2 and S2 S1, kept columns
    only), so the whole product is never formed, and the scan stops after
    the first row that holds a violation.  G and X are cleared to ints
    (D_G, D_X): the bilinear left side scales by D_G D_X and the right
    side, linear in X, is multiplied by D_G, so a surviving entry divided
    by D_G D_X is the exact residual.  An operand carrying sqrt2 keeps its
    Scalar entries (and D = 1).

    `pairs`, for the Lie-type relation only, restricts the comparison to
    the first-slot pairs (a, b) it lists, for every (c, d): S1 carries only
    the blocks G_ab of those pairs, a row a with no pair is skipped, and in
    the others S1 S2 takes only the rows b of its pairs from S2 and the
    right side only their blocks b.  None compares every pair.

    Returns None when the identity holds on the columns `cols` of W, else
    ((a, b, c, d), residual): the first index tuple in sorted order and
    the residual Scalar at its lexicographically first entry (i, j) with j
    in `cols`.
    """
    n, idx = case.n, case.indices
    pos = {a: p for p, a in enumerate(idx)}
    size = n * dim_w  # rows of one first-slot block row
    rows = dict.fromkeys(range(n))  # row a -> its blocks b, None for all
    if pairs is not None:  # only the pairs' blocks of G enter the products
        rows = {}
        for a, b in pairs:
            rows.setdefault(pos[a], set()).add(pos[b])
        g = {key: g[key] for key in pairs if key in g}
    g_blocks, d_g = _cleared_blocks(case, g)
    x_blocks, d_x = _cleared_blocks(case, x)
    s1, s2 = _slot(n, g_blocks, dim_w, 1), _slot(n, x_blocks, dim_w, 2)
    s1_rows, s2_rows = _row_blocks(s1, size, n), _row_blocks(s2, size, n)
    kept = set(cols)
    s1k_rows, s2k = s1_rows, s2
    if len(kept) < dim_w:
        keep = {pair * dim_w + j for pair in range(n * n) for j in kept}
        s1k_rows, s2k = _row_blocks(s1.restrict_cols(keep), size, n), s2.restrict_cols(keep)
    if pairs is not None:  # the kept S2 by first-slot block, to pick the pairs' rows b
        s2k_rows = s2_rows if s2k is s2 else _row_blocks(s2k, size, n)
    xk = {key: [(i, j, v) for (i, j), v in op.data.items() if j in kept]
          for key, op in x_blocks.items()}
    for pa, a in enumerate(idx):
        if pa not in rows:
            continue
        base = pa * size
        blocks, right = rows[pa], s2k
        if blocks is not None:
            right = SparseOp(s2k.nrows, s2k.ncols)
            for pb in blocks:
                right.data.update(s2k_rows[pb].data)
        acc = dict((s1_rows[pa] @ right).data)
        other = (s2_rows[pa] @ s1k_rows[pa]).data
        if w_tensor:
            for key, v in other.items():
                acc[key] = acc.get(key, 0) + v
            res: dict = {}
            for (r, c), v in acc.items():
                if not v:
                    continue
                pz, i = divmod(r - base, dim_w)
                pyw, j = divmod(c, dim_w)
                py, pw = divmod(pyw, n)
                for key in ((r, c), (base + py * dim_w + i, (pw * n + pz) * dim_w + j),
                            (base + pw * dim_w + i, (pz * n + py) * dim_w + j)):
                    res[key] = res.get(key, 0) + v
        else:
            for key, v in other.items():
                acc[key] = acc.get(key, 0) - v
            sa = case.sign(a)
            terms = [(case.sign(c), (a, d), c, -c, d) for c in idx for d in idx]
            terms += [(-sa, (c, b), c, b, -a) for c in idx for b in idx]
            terms += [(-sa, (b, d), -a, b, d) for b in idx for d in idx]
            terms += [(case.sign(-b), (c, a), c, b, -b) for c in idx for b in idx]
            for sign, (r, s), c, b, d in terms:  # acc += sign D_G X_rs at ((a, c), (b, d))
                blk = xk.get((pos[r], pos[s]))
                if blk is None or blocks is not None and pos[b] not in blocks:
                    continue
                row0, col0 = base + pos[c] * dim_w, (pos[b] * n + pos[d]) * dim_w
                coef = sign * d_g
                for i, j, v in blk:
                    key = (row0 + i, col0 + j)
                    acc[key] = acc.get(key, 0) + coef * v
            res = acc
        bad = [key for key, v in res.items() if v]
        if bad:
            def order(key):
                pc, i = divmod(key[0] - base, dim_w)
                pbd, j = divmod(key[1], dim_w)
                pb, pd = divmod(pbd, n)
                return (pb, pc, pd, i, j)

            first = min(bad, key=order)
            pb, pc, pd, _, _ = order(first)
            return (a, idx[pb], idx[pc], idx[pd]), _divide(res[first], d_g * d_x)
    return None


@dataclass
class YbeReport:
    """Outcome of the symbolic Yang-Baxter check."""

    case: CaseDescriptor
    passed: bool
    violation: tuple | None = None  # ((a1,a2,a3),(b1,b2,b3), BiPoly residual)

    def __bool__(self):
        return self.passed


def check_ybe(case: CaseDescriptor, rmat: RMatrix | None = None) -> YbeReport:
    """Verify R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v) exactly.

    This is the RLL relation with W = V and L = R, so it runs on the
    identity engine with C1 = R13 and C2 = R23; the test is full
    polynomial identity, not sampling.  On failure the report carries the
    first violating entry (sorted index order) together with its residual
    polynomial.
    """
    if rmat is None:
        rmat = fundamental_r(case)
    n = case.n

    def slot(coeff, which):
        # R[(a1, a3), (b1, b3)] is the (a3, b3) entry of the block (a1, b1)
        entries = ((row // n, col // n, row % n, col % n, val)
                   for (row, col), val in coeff.data.items())
        return slot_operator(n, entries, n, which)

    r13 = [slot(c, 1) for c in rmat.coeffs]
    r23 = [slot(c, 2) for c in rmat.coeffs]
    residual, _ = identity_residual(rmat.ipk, r13, r23, range(n ** 3), n, k_form(case))
    if not residual:
        return YbeReport(case, True)
    (row, col), res = first_violation(residual)
    return YbeReport(case, False, (describe_flat(case, case.indices, row, n),
                                   describe_flat(case, case.indices, col, n), res))


# ---------------------------------------------------------------------------
# gl(2) comparison


# (f_I, f_P, f_K) of Yang's gl(2) R-matrix R(w) = w I + P: no K term.
YANG_GL2_IPK = ((ZERO, ONE), (ONE,), ())


def yang_r_gl2() -> list[SparseOp]:
    """Coefficients of Yang's gl(2) R-matrix R(u) = u I + P on C^2 x C^2."""
    perm = {}
    for a in range(2):
        for b in range(2):
            perm[(a * 2 + b, b * 2 + a)] = ONE
    return [SparseOp(4, 4, perm), SparseOp.identity(4)]


def sp2_gl2_comparison():
    """Entrywise relation between the sp(2) R-matrix and Yang's gl(2) one.

    Returns (scalar, passed): the exact polynomial scalar s(u) such that
    R_sp2(u) = s(u) * R_gl2(u/2), with passed true iff the relation holds
    in every entry.  The scalar is recovered by exact division of the
    corner entries.
    """
    case = make_case("sp", 1)
    r_sp = fundamental_r(case)
    p_gl, i_gl = yang_r_gl2()

    def gl_entry(row, col):
        # R_gl2(u/2) entry as a UniPoly in u
        c0 = p_gl.data.get((row, col), ZERO)
        c1 = i_gl.data.get((row, col), ZERO) * Scalar(1, 0, 2)
        return UniPoly([c0, c1])

    def sp_entry(row, col):
        return UniPoly([c.data.get((row, col), ZERO) for c in r_sp.coeffs])

    corner_sp, corner_gl = sp_entry(0, 0), gl_entry(0, 0)
    scalar, rem = corner_sp.divmod(corner_gl)
    if not rem.is_zero:
        return scalar, False
    for row in range(4):
        for col in range(4):
            if sp_entry(row, col) != scalar * gl_entry(row, col):
                return scalar, False
    return scalar, True
