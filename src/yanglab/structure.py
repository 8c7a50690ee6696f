"""Case descriptors, invariant metric, fundamental R-matrix, the RLL
identity engine and the YBE checker built on it, and the block kernel of
the Lie, adjoint and W relations.

The engine and the kernel work on operator matrices by their int blocks
on W over a denominator the caller gives (they clear no operand; the verify
module clears L once) and form every block product on the one sparse
product kernel: one operand's blocks scattered through the int column
index of the other's (`exact.scatter`, `exact.int_columns`), and the other
way round, each entry keyed by the two blocks it comes from.  The engine places those
entries at their flat (V x V) x W indices, where I, P and K act; no other
module knows that flat layout.
The kernel compares the relations of G_ab and X_cd on every first-slot
pair, or on given pairs, each on every key (c, d) or on its own keys: the
Chevalley pairs (`chevalley_pairs`) generate g, and `presentation` reads
a presentation of g on them off the structure constants (the premises are
decided in the verify module).

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
from functools import cache
from itertools import groupby
from math import comb
from operator import itemgetter

from .exact import (
    ONE,
    ZERO,
    BiPoly,
    Scalar,
    SparseOp,
    UniPoly,
    VectorSpan,
    axpy,
    clear_opmats,
    close_span,
    common_denominator,
    int_columns,
    nullspace,
    op_columns,
    scatter,
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


def _partners(pairs, n: int) -> dict:
    """{p: (q, ...)}: the flat pairs p n + q, grouped by p."""
    return {p: tuple(x % n for x in xs) for p, xs in groupby(sorted(pairs), lambda x: x // n)}


class IdentityForm:
    """R12(u-v) L1(u) L2(v) - L2(v) L1(u) R12(u-v) for `identity_residual`,
    with R(w) = f_I(w) I + f_P(w) P + f_K(w) K on the pair of (V x V) x W:
    `ipk` = (f_I, f_P, f_K) by power of w, `k` the `k_form` of K, and
    `coeffs` the coefficients L_i of L(u) times `den` as int opmats
    {(p, q): SparseOp on W}, the first index raised, p and q positions; L1
    acts on the first V.  The caller clears L (`exact.clear_opmats`); the
    form clears only R's scalars (lcm Dr).  The residual is linear in R and
    quadratic in L, so its entries are divided by den^2 Dr at the end.
    """

    def __init__(self, ipk, coeffs, den: int, n: int, dim_w: int, k=None):
        self.blocks = [{p * n + q: op for (p, q), op in mat.items()} for mat in coeffs]  # L_i^x
        dr = common_denominator(c for f in ipk for c in f)
        ipk = [[c.p * (dr // c.r) for c in f] for f in ipk]
        self.n, self.dim_w, self.k, self.den = n, dim_w, k, den * den * dr
        # per power t of w: the pairs (f_X[t], X) with f_X[t] != 0
        self.terms = [[(f[t], x) for x, f in enumerate(ipk) if t < len(f) and f[t]]
                      for t in range(max(map(len, ipk)))]
        self.used = sorted({x for t_terms in self.terms for _, x in t_terms})
        self.k_pairs = set(k[0]) if 2 in self.used else set()  # the pairs K reads
        # x = (p n + q) dim_w + w: swap[x] exchanges p and q (P on a flat index)
        self.swap = [(q * n + p) * dim_w + w
                     for p in range(n) for q in range(n) for w in range(dim_w)]


def identity_residual(form: IdentityForm, pairs, cols, block=None):
    """Residual of R12(u-v) L1(u) L2(v) - L2(v) L1(u) R12(u-v) by (u, v) key,
    exactly, on the flat columns (q1, q2, w) of (V x V) x W with q1 n + q2
    in `pairs` and w in `cols` and, given a row pair `block` = p1 n + p2,
    on its rows alone.  It commutes with the diagonal action when R is in
    span{I, P, K} and L covariant, so few columns decide it (lemma at
    `verify.check_rll`).

    The block ((p1, p2), (q1, q2)) of C1_i C2_j is L_i^{p1 q1} L_j^{p2 q2},
    and each product is one `exact.scatter` over the block pairs that the
    compared entries need: the first factor's blocks indexed
    (`exact.int_columns`, at the W rows the kept columns reach) under one
    key per class of blocks with the same partners, and each block of the
    second through the keys of its partners; C2_j C1_i the other way round.
    An entry goes to its flat index (p1 n + p2) dim_w + w.  Then
    D_X = X C1_i C2_j - C2_j C1_i X once for X in {I, P, K}, and the sum of
    f_X[t] D_X is expanded over (u - v)^t.  P and K on the right read the
    swapped pairs and K's pairs (a, -a), so `pairs` is closed under both; on
    a row block, C2_j C1_i is formed on its rows and C1_i C2_j on those X
    on the left reads: the block, its swap and, for a K block, every K block.

    Returns (residual, keys): residual maps each (deg_u, deg_v) key whose
    coefficient does not vanish to its entries {(row, col): Scalar} at
    flat indices, and keys is the number of (u, v) keys compared.
    """
    n, dim_w, swap, k = form.n, form.dim_w, form.swap, form.k
    pairs = set(pairs)
    pairs |= {x % n * n + x // n for x in pairs} | form.k_pairs
    left_rows = right_rows = range(n * n)
    if block is not None:
        swapped = block % n * n + block // n
        left_rows = {block, swapped} | (form.k_pairs if block in form.k_pairs else set())
        right_rows = {swapped}  # (p2, p1): L_j's row first
    keep = None if len(set(cols)) == dim_w else set(cols)
    kept = [mat if keep is None else {x: op.restrict_cols(keep) for x, op in mat.items()}
            for mat in form.blocks]
    reached = None if keep is None else {  # the W rows that the kept columns reach
        r for mat in kept for op in mat.values() for r, _ in op.data}
    q_of, indexed = _partners(pairs, n), {}

    def products(a, y, rows):  # {(x, x', i, j): int}: L_a^x @ kept L_y^x', x, x' partners
        r_of = _partners(rows, n)
        key = (a, rows is left_rows)  # the left and right rows agree without a block
        if key not in indexed:
            blocks, classes = {}, {}
            for x, op in form.blocks[a].items():
                p, q = divmod(x, n)
                if p in r_of and q in q_of:
                    blocks[x, classes.setdefault((r_of[p], q_of[q]), len(classes))] = op
            indexed[key] = int_columns(blocks, cols=reached), classes
        columns, classes = indexed[key]
        return scatter(columns, [(d, x, 1, kept[y][x]) for (ps, qs), d in classes.items()
                                 for x in (p * n + q for p in ps for q in qs) if x in kept[y]])
    # block x = p n + q of L2 (of L1) adds (p, q) dim_w (times n) to the flat
    # (row, col) = ((p1 n + p2) dim_w + w, (q1 n + q2) dim_w + w')
    at2 = [(p * dim_w, q * dim_w) for p in range(n) for q in range(n)]
    at1 = [(r * n, c * n) for r, c in at2]

    def place(products, first):  # product entries at their flat (row, col)
        out = {}
        for (f, c, i, j), v in products.items():
            if v:
                (r1, c1), (r2, c2) = (at1[f], at2[c]) if first else (at1[c], at2[f])
                out[r1 + r2 + i, c1 + c2 + j] = v
        return out

    actions = (  # (X times data, data times X) for X = I, P, K; left ones copy
        (dict, lambda d: d),
        (lambda d: {(swap[r], c): v for (r, c), v in d.items()},
         lambda d: {(r, swap[c]): v for (r, c), v in d.items()}),
        (lambda d: _k_apply(k, d, dim_w, True), lambda d: _k_apply(k, d, dim_w, False)),
    )
    residual: dict = {}
    keys = set()
    nonzero = [any(op.data for op in mat.values()) for mat in form.blocks]
    for i in range(len(form.blocks)):
        for j in range(len(form.blocks)):
            if not (nonzero[i] and nonzero[j]):
                continue
            left = place(products(i, j, left_rows), True)
            right = place(products(j, i, right_rows), False)
            diffs = {}
            for x in form.used:
                diffs[x] = actions[x][0](left)
                axpy(diffs[x], -1, actions[x][1](right))
                if block is not None:
                    diffs[x] = {rc: v for rc, v in diffs[x].items() if rc[0] // dim_w == block}
            for t, t_terms in enumerate(form.terms):
                diff: dict = {}
                for f, x in t_terms:
                    axpy(diff, f, diffs[x])
                for p in range(t + 1 if t_terms else 0):
                    key = (i + p, j + t - p)
                    keys.add(key)
                    if diff:
                        axpy(residual.setdefault(key, {}), (-1) ** (t - p) * comb(t, p), diff)
    return {key: {pos: Scalar(v, 0, form.den) for pos, v in entries.items()}
            for key, entries in residual.items() if entries}, len(keys)


def locate_violation(form: IdentityForm, cols):
    """`first_violation` of the residual of `form` on every pair and the W
    columns `cols`, or None: its row pair blocks in flat order, up to the
    first nonzero one, which holds the first violating row."""
    every = range(form.n ** 2)
    blocks = (identity_residual(form, every, cols, block)[0] for block in every)
    return next((first_violation(residual) for residual in blocks if residual), None)


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
# the block kernel of the Lie, adjoint and W relations, and a presentation of g


def chevalley_pairs(case: CaseDescriptor) -> list:
    """First-slot pairs (a, b) whose generators x_ab generate g as a Lie algebra.

    g is spanned by the x_ab modulo x_ab = -eps x_ba, with the bracket that
    the right side of the Lie relation (`block_violation`) applies to the
    indices.  The pairs are the Chevalley generators e_i, f_i, listed as
    e_1, f_1, ..., e_m, f_m: for i < m the simple root vectors (i, -(i+1))
    and (-i, i+1), and one more pair with its negative, (m, 0) and (-m, 0)
    for so(2m+1), (m-1, m) and (-(m-1), -m) for so(2m), (m, m) and
    (-m, -m) for sp(2m).  so(2) is abelian and spanned by its one pair
    (-1, 1).
    """
    m = case.m
    if case.family == "so_even" and m == 1:
        return [(-1, 1)]
    pairs = [p for i in range(1, m) for p in ((i, -(i + 1)), (-i, i + 1))]
    last = {"so_odd": (m, 0), "so_even": (m - 1, m), "sp": (m, m)}[case.family]
    return pairs + [last, (-last[0], -last[1])]


def _eps(case: CaseDescriptor, a: int, b: int) -> int:
    """eps_ab as an int."""
    return case.sign(a) if a == -b else 0


def _basis_key(case: CaseDescriptor, a: int, b: int):
    """(key, s) with x_ab = s x_key for the basis key (min, max) of g; s = 0
    for x_aa of so(n)."""
    if a != b:
        return ((a, b), 1) if a < b else ((b, a), -case.eps)
    return (a, a), int(case.eps == -1)


def _index_action(case: CaseDescriptor, a: int, b: int, c: int) -> tuple:
    """rho(x_ab) e_c = eps_ac e_b - eps_cb e_a as ((coefficient, index), ...):
    how the right side of the Lie relation acts on each index (`bracket`)."""
    return (_eps(case, a, c), b), (-_eps(case, c, b), a)


def bracket(case: CaseDescriptor, p, q) -> dict:
    """[x_p, x_q] as {basis key: int}, by the right side of the Lie relation:
    [x_ab, x_cd] = -eps_cb x_ad + eps_ad x_cb + eps_ac x_bd - eps_db x_ca,
    x_ab acting on c and on d by `_index_action`."""
    (a, b), (c, d) = p, q
    out: dict = {}
    for coeff, r, s in ([(k, r, d) for k, r in _index_action(case, a, b, c)]
                        + [(k, c, s) for k, s in _index_action(case, a, b, d)]):
        key, sign = _basis_key(case, r, s)
        if coeff and sign:
            out[key] = out.get(key, 0) + coeff * sign
    return {key: v for key, v in out.items() if v}


def rho(case: CaseDescriptor, a: int, b: int) -> SparseOp:
    """rho(x_ab) on V by positions (`_index_action`), which preserves the
    metric: I, P and K commute with rho(x) x 1 + 1 x rho(x)."""
    n = case.n
    return sum((SparseOp(n, n, {(case.pos(r), q): Scalar(k)}) for q, c in enumerate(case.indices)
                for k, r in _index_action(case, a, b, c)), SparseOp.zeros(n, n))


@cache
def extremal_vectors(case: CaseDescriptor):
    """A weight basis l_k ({flat pair p1 n + p2: Scalar}) of the vectors of
    V x V killed by rho(x) x 1 + 1 x rho(x) for every x in the Chevalley
    half H = P[0::2]; None unless they generate V x V under the same for
    all pairs P.  The equations split by weight, so the reduced echelon
    kernel basis (`exact.nullspace`) is a weight basis.  For n >= 3, V x V
    is a sum of irreducibles (Weyl; Humphreys sec. 6.3), generated by their
    extremal vectors, the l_k; so(2) is abelian and gets None."""
    n, ident = case.n, SparseOp.identity(case.n)
    ops = [rho(case, *p).kron(ident) + ident.kron(rho(case, *p)) for p in chevalley_pairs(case)]
    rows = [row for op in ops[0::2] for row in op.rows().values()]
    ell = [{j: v for j, v in enumerate(vec) if v} for vec in nullspace(rows, n * n)]
    span = VectorSpan()
    close_span(span, ell, op_columns(ops))
    return ell if len(span) == n * n else None


def extremal_pairs(case: CaseDescriptor):
    """The flat pairs in the support of the `extremal_vectors`, sorted, or None."""
    ell = extremal_vectors(case)
    return None if ell is None else sorted({x for vec in ell for x in vec})


@cache
def vector_seeds(case: CaseDescriptor) -> list:
    """The W seeds S_H of `check_ybe`: [e_-1] when it generates V under
    rho(x), x in H (it does for n >= 3), else every position."""
    span, start, half = VectorSpan(), case.pos(-1), chevalley_pairs(case)[0::2]
    close_span(span, [{start: ONE}], op_columns([rho(case, *p) for p in half]))
    return [start] if len(span) == case.n else list(range(case.n))


def presentation(case: CaseDescriptor) -> dict:
    """{pair p: keys (c, d)}: the relations [G_p, G_cd] = G([x_p, x_cd])
    that, with the weight test (`graded`), present g on the Chevalley pairs
    (proof at `verify._generators`): a chain (p, y') to each root vector
    x_y that is no pair, from the first bracket [x_p, x_y'] that reaches it
    breadth first; (e_i, f_j) for all i, j; and Serre's (x_i, z_t) for x_i,
    x_j both e or both f, i != j, z_0 = x_j, z_(t+1) = [x_i, z_t] up to
    scale, until z_t = 0 at t = 1 - a_ij.  A relation of two pairs is
    listed once; so(2) is abelian and has none.
    """
    pairs = chevalley_pairs(case)
    if len(pairs) < 2 * case.m:
        return {}
    gens = [_basis_key(case, *p)[0] for p in pairs]
    relations = set()

    def add(i, y):  # the relation of pair i and basis key y
        j = gens.index(y) if y in gens else len(pairs)
        relations.add((i, y) if i <= j else (j, gens[i]))

    layer, reached = list(gens), set(gens)
    while layer:
        nxt = []
        for y in layer:
            for i, p in enumerate(pairs):
                z = bracket(case, p, y)
                if len(z) != 1:
                    continue
                (key,) = z
                if key[0] != -key[1] and key not in reached:
                    reached.add(key)
                    nxt.append(key)
                    add(i, y)
        layer = nxt
    for i in range(case.m):
        for j in range(case.m):
            add(2 * i, gens[2 * j + 1])  # [e_i, f_j] = delta_ij h_i
            for s in (0, 1) if i != j else ():  # ad(x_i)^(1 - a_ij) x_j = 0
                z = {gens[2 * j + s]: 1}
                while z:
                    (y,) = z
                    add(2 * i + s, y)
                    z = bracket(case, pairs[2 * i + s], y)
    out: dict = {}
    for i, y in sorted(relations):
        out.setdefault(pairs[i], []).append(y)
    return {p: tuple(keys) for p, keys in out.items()}


def cartan_grading(case: CaseDescriptor, g: dict, den: int):
    """(weight, shift) for `graded`, or None when a Cartan block G_(i,-i) is
    not diagonal; g holds the int blocks of G times den.  The weights mu
    (the diagonals) are read as ints, times den, and the m of a position
    packed into one int in base B = 4 (max |den mu| + den) + 1, so that a
    packed den (mu_r - mu_s + lambda(c, d)) is 0 only when each component is:
    weight maps a position to its packed weight, shift an index c to the
    packed den lambda of c alone (lambda(c, d) = lambda(c) + lambda(d)).
    """
    cartan = {i: g[i, -i] for i in range(1, case.m + 1) if (i, -i) in g}
    if any(r != s for op in cartan.values() for r, s in op.data):
        return None
    base = 4 * (max((abs(v) for op in cartan.values() for v in op.data.values()), default=0)
                + den) + 1
    weight: dict = {}
    for i, op in cartan.items():
        for (r, _), v in op.data.items():
            weight[r] = weight.get(r, 0) + v * base ** (i - 1)
    shift = {c: 0 if c == 0 else (den if c > 0 else -den) * base ** (abs(c) - 1)
             for c in case.indices}
    return weight, shift


def graded(grading, x: dict) -> bool:
    """The Lie-type relation of G and X at every Cartan pair (i, -i):
    mu_r - mu_s = -lambda(c, d) on each nonzero X_cd[r, s] (proof at
    `verify._generators`), in O(nnz X) and with no product."""
    weight, shift = grading
    get = weight.get
    for (c, d), op in x.items():
        want = -shift[c] - shift[d]
        for (r, s), v in op.data.items():
            if get(r, 0) - get(s, 0) != want and v:
                return False
    return True


def metric_multiple(case: CaseDescriptor, mat: dict, den: int, twin: int = 0):
    """The c with M_ab + twin M_ba = c eps_ab Id for every (a, b), or None,
    decided on the int blocks `mat` of M times den.  With twin = eps the
    conditions at (a, b) and (b, a) agree (eps_ba = eps eps_ab): each is
    tested once.
    """
    ints = {key: op.data for key, op in mat.items()}
    dim = next((op.nrows for op in mat.values()), 0)
    keys = set(ints) | {(a, -a) for a in case.indices}
    if twin:
        keys = {(min(a, b), max(a, b)) for a, b in keys}
    c = None
    for a, b in sorted(keys):
        data = ints.get((a, b), {})
        if twin:
            data = dict(data)
            axpy(data, twin, ints.get((b, a), {}))
        e = _eps(case, a, b)
        if c is None and e:
            c = data.get((0, 0), 0) * e
        want = c * e if e else 0
        if {k: v for k, v in data.items() if v} != {(i, i): want for i in range(dim) if want}:
            return None
    return Scalar(c or 0, 0, den)


def block_violation(case: CaseDescriptor, g: dict, x: dict, den: int, cols,
                    w_tensor: bool = False, pairs=None):
    """First violation of the Lie-type identity of the blocks G_ab and X_cd.

    g and x are the int opmats {(a, b): SparseOp on W} of G and X times one
    den, cleared by the caller (`verify.Premises` clears L once): the kernel
    clears no operand.  The identity is the relation

      [G_ab, X_cd] = -eps_cb X_ad + eps_ad X_cb + eps_ac X_bd - eps_db X_ca

    (lie with X = G, adjoint with X = H), or, with `w_tensor`, W_abcd = 0
    for W_abcd = A_ab[c, d] + A_ac[d, b] + A_ad[b, c], the cyclic sum over
    (b, c, d) of the anticommutators A_ab[c, d] = G_ab X_cd + X_cd G_ab,
    which is the six-term W tensor when X = G.

    Per first-slot row a, G_ab X_cd for every b of the row and every
    (c, d) is one `exact.scatter` of X's blocks (the columns `cols` only)
    through the `exact.int_columns` of the row's G_ab, and X_cd G_ab one
    scatter of the row's G_ab through X's columns, both into one dict keyed
    by the positions (b, c n + d, i, j) of the entry (i, j) (the second
    scatter swaps its key).  The commutator's
    right side adds blocks of X there, with no product; only the entries
    that survive are decoded, and for W each anticommutator entry is added
    to the three W_abcd it enters.  The bilinear left side on the int
    blocks scales by den^2 and the right side, linear in X, is multiplied
    by den, so a surviving entry divided by den^2 is the exact residual.

    `pairs`, for the Lie-type relation only, restricts the comparison to
    the first-slot pairs (a, b) it lists, for every (c, d), or, as a
    mapping {(a, b): keys (c, d)}, each pair to its keys (the pairs of one
    key set share their scatters); None compares every pair.

    Returns None when the identity holds on the columns `cols` of W, else
    ((a, b, c, d), residual): the first index tuple in sorted order and
    the residual Scalar at its lexicographically first entry (i, j) with j
    in `cols`.  The scan stops there.
    """
    n, idx = case.n, case.indices
    flat = {(c, d): p * n + q for p, c in enumerate(idx) for q, d in enumerate(idx)}
    keys_of = pairs if isinstance(pairs, dict) else dict.fromkeys(flat if pairs is None else pairs)
    g = {key: op for key, op in g.items() if key in keys_of}  # the first-slot blocks used
    kept = set(cols)
    xk = {key: [(i, j, v) for (i, j), v in op.data.items() if j in kept] for key, op in x.items()}
    sides: dict = {}
    sign = 1 if w_tensor else -1

    def side(keys):  # (int columns, scatter terms) of the X_cd, (c, d) in keys (None: all)
        if keys not in sides:
            sub = x if keys is None else {key: x[key] for key in keys if key in x}
            sides[keys] = (int_columns({(flat[key], 0): op for key, op in sub.items()}),
                           [(0, flat[key], 1, op.restrict_cols(kept)) for key, op in sub.items()])
        return sides[keys]

    for a, row in groupby(sorted(keys_of), key=itemgetter(0)):
        bs = [b for _, b in row]
        # acc[b, (c, d), i, j]: G_ab X_cd -+ X_cd G_ab at (i, j), by positions
        acc: dict = {}
        for keys, group in groupby(bs, key=lambda b: keys_of[a, b]):
            x_columns, x_terms = side(keys)
            g_row = {case.pos(b): g[a, b] for b in group if (a, b) in g}
            scatter(int_columns({(q, 0): op for q, op in g_row.items()}), x_terms, acc)
            g_terms = [(0, q, sign, op.restrict_cols(kept)) for q, op in g_row.items()]
            scatter(x_columns, g_terms, acc, swap=True)
        for b in [] if w_tensor else bs:
            s_a, s_b = case.sign(a), case.sign(-b)
            terms = [(s_b, (a, d), -b, d) for d in idx] + [(-s_a, (c, b), c, -a) for c in idx]
            terms += [(-s_a, (b, d), -a, d) for d in idx] + [(s_b, (c, a), c, -b) for c in idx]
            keys, q = keys_of[a, b], case.pos(b)
            for s, key, c, d in terms:  # acc[b, (c, d)] += s den X_key
                if keys is not None and (c, d) not in keys:
                    continue
                cd, coef = flat[c, d], s * den
                for i, j, v in xk.get(key, ()):
                    acc[q, cd, i, j] = acc.get((q, cd, i, j), 0) + coef * v
        # {(b, c, d, i, j) as positions: residual entry}
        found = {(q, *divmod(cd, n), i, j): v for (q, cd, i, j), v in acc.items() if v}
        if w_tensor:  # A_ab[c, d] enters W_abcd, W_adbc and W_acdb
            found, parts = {}, found
            for (q, p, pd, i, j), v in parts.items():
                for key in ((q, p, pd, i, j), (pd, q, p, i, j), (p, pd, q, i, j)):
                    found[key] = found.get(key, 0) + v
        bad = [key for key, v in found.items() if v]
        if bad:
            first = min(bad)
            return (a,) + tuple(idx[p] for p in first[:3]), Scalar(found[first], 0, den * den)
    return None


@dataclass
class YbeReport:
    """Outcome of the symbolic Yang-Baxter check."""

    case: CaseDescriptor
    passed: bool
    violation: tuple | None = None  # ((a1,a2,a3),(b1,b2,b3), BiPoly residual)

    def __bool__(self):
        return self.passed


def ybe_form(rmat: RMatrix) -> IdentityForm:
    """The YBE as RLL with W = V and L = R: R[(a1, a3), (b1, b3)] is the
    (a3, b3) entry of the block (a1, b1) on W, cleared by `exact.clear_opmats`."""
    n = rmat.case.n
    blocks = []
    for coeff in rmat.coeffs:
        mat: dict = {}
        for (row, col), val in coeff.data.items():
            (a1, a3), (b1, b3) = divmod(row, n), divmod(col, n)
            mat.setdefault((a1, b1), {})[(a3, b3)] = val
        blocks.append({key: SparseOp(n, n, data) for key, data in mat.items()})
    return IdentityForm(rmat.ipk, *clear_opmats(blocks), n, n, k_form(rmat.case))


def check_ybe(case: CaseDescriptor, rmat: RMatrix | None = None) -> YbeReport:
    """Verify R12(u-v) R13(u) R23(v) = R23(v) R13(u) R12(u-v) exactly.

    This is the RLL relation with W = V and L = R, on the identity engine
    with the blocks of R (`ybe_form`): full polynomial identity, not
    sampling.  Every RMatrix lies in span{I, P, K}, so the lemma at
    `verify.check_rll` holds with G = rho and no premise: the residual is
    compared on supp(l_k) x S_H (`extremal_pairs`, `vector_seeds`), or, for
    so(2), on every pair and, S_H being every position there, all n^3
    columns.  A residual there is located by row block
    (`locate_violation`): the report carries the first violating entry of
    the full comparison (sorted index order) with its residual polynomial.
    """
    if rmat is None:
        rmat = fundamental_r(case)
    n, form = case.n, ybe_form(rmat)
    residual, _ = identity_residual(form, extremal_pairs(case) or range(n * n), vector_seeds(case))
    bad = residual and locate_violation(form, range(n))
    if not bad:
        return YbeReport(case, True)
    (row, col), res = bad
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
