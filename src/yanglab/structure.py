"""Case descriptors, invariant metric, fundamental R-matrix, the RLL
identity engine and the YBE checker built on it.

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
