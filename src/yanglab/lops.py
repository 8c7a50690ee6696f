"""Constructions of the linear and quadratic L-operators.

An LOperator stores, for each power of the spectral parameter u, an
"opmat": a map {(a, b): SparseOp} of lowered-index operator entries on a
shared representation space.  Conventions:

  linear     L_ab(u) = u eps_ab + G_ab
  quadratic  L_ab(u) = u^2 eps_ab + u G_ab + H_ab

Lowered matrices compose through the inverse metric,

  (A o B)_ab = sum_d eps_{-d} A[a, d] B[-d, b],

which is the ordinary product of the mixed-index matrices A^a_b; the
lowered identity element is the metric itself.  The "tt" contraction
used by the center generating function is
  (A *tt B)_ab = sum_d eps_d A[d, a] B[-d, b].
Both are one contraction parameterised by the metric pairing
{d: (partner, sign)}; the gl(2) chains use the same contraction with the
trivial metric {1: (1, 1), 2: (2, 1)}, i.e. the ordinary 2x2 product.

Every contraction runs on the sparse product kernel of `exact`.  The left
opmat is an int column form (`ColumnForm`, the `exact.int_columns` of its
int blocks, over one den D): for each (contracted index d, column j), the
list of (free index, row i, int) of its entries in that column.  `o`
contracts the second index; `*tt` the first, keeping the blocks as they
are.  The right opmat is cleared with its own lcm, and each of its nonzeros
B[k, j] is scattered through the column (d, k) of the form
(`exact.scatter`).  The ints are summed per output entry and turned into
one Scalar each, over D times the right lcm: the column form and
`_scatter` are the rational boundary around the int kernel.  The span
closures (`exact.close_span`) index their ops with `exact.int_columns` too.
A thin right operand, the few seed columns of a central check, so touches
only the columns it uses, not n^3 block products.  `column_form` indexes
int blocks as given; `opmat_form` clears an opmat first
(`exact.clear_opmats`), for the builders.  `verify.Premises` clears L once
and builds its forms, and the center's shifted ones
(`opmat_poly_subs_forms`), from those ints; a full product
(`build_product`, the gl(2) chains and fusion) clears and builds its forms
for the call, and `build_js_quadratic` scatters the int columns of its
integral G itself.

Entry budgets: on truncated spaces each coefficient entry is built from
generator factors whose degree excursion is bounded; `entry_budget`
records that bound so verification code can pick the safe subspace for a
product of several entries (budgets add along compositions).
"""

from __future__ import annotations

from collections import defaultdict
from math import comb, lcm

from .exact import (
    ONE,
    ZERO,
    Scalar,
    SparseOp,
    UniPoly,
    VectorSpan,
    clear_opmats,
    close_span,
    common_denominator,
    int_columns,
    op_columns,
    scatter,
)
from .spaces import (
    GeneratorSet,
    RepSpace,
    gl2_chain_space,
    heisenberg_space,
    js_monomial_generators,
    spinor_space,
)
from .structure import CaseDescriptor, make_case

# ---------------------------------------------------------------------------
# lowered operator matrices ("opmats")


def opmat_acc(out: dict, key, op: SparseOp) -> None:
    """out[key] += op, dropping the key when the sum cancels."""
    cur = out.get(key)
    acc = op if cur is None else cur + op
    if acc.is_zero:
        out.pop(key, None)
    else:
        out[key] = acc


def opmat_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, op in b.items():
        opmat_acc(out, key, op)
    return out


def opmat_sub(a: dict, b: dict) -> dict:
    return opmat_add(a, {k: -v for k, v in b.items()})


def opmat_scale(a: dict, s) -> dict:
    s = Scalar.of(s)
    if s.is_zero:
        return {}
    return {k: v.scale(s) for k, v in a.items()}


def metric_opmat(case: CaseDescriptor, dim: int, scale=ONE) -> dict:
    """The lowered identity: scale * eps_ab * Id."""
    scale = Scalar.of(scale)
    out = {}
    for a in case.indices:
        val = case.metric_lower(a, -a) * scale
        if not val.is_zero:
            out[(a, -a)] = SparseOp.identity(dim, val)
    return out


class ColumnForm:
    """An opmat A cleared to ints once (A = ints / den, den the lcm of every
    entry's denominator) and indexed by the columns of its contracted index:
    columns[(d, j)] lists (f, i, a) for each entry a / den at (i, j) of the
    block keyed (f, d) (`o`, the second index contracted) or (d, f)
    (`*tt`, `first`, the first index contracted; the blocks are kept as
    they are).  `nrows` is the blocks' row count."""

    __slots__ = ("columns", "den", "nrows", "first")

    def __init__(self, columns, den, nrows, first):
        self.columns = columns
        self.den = den
        self.nrows = nrows
        self.first = first


def column_form(ints: dict, den: int, first: bool = False) -> ColumnForm:
    """The column form of the opmat ints / den, `ints` its int blocks,
    contracting its second index, or its first when `first`: the
    `exact.int_columns` of the blocks, with no clearing pass."""
    nrows = next((op.nrows for op in ints.values()), 0)
    return ColumnForm(int_columns(opmat_transpose(ints) if first else ints), den, nrows, first)


def opmat_form(a: dict, first: bool = False) -> ColumnForm:
    """The column form of the opmat `a`: cleared (`exact.clear_opmats`),
    then `column_form`."""
    (ints,), den = clear_opmats([a])
    return column_form(ints, den, first)


def _form(a, first: bool) -> ColumnForm:
    """`a` when it is a ColumnForm contracting the asked index, the form of
    the opmat `a` built for the call otherwise."""
    if not isinstance(a, ColumnForm):
        return opmat_form(a, first)
    if a.first != first:
        raise ValueError("the column form contracts the other index")
    return a


def _scatter(form: ColumnForm, terms, den: int) -> dict:
    """{(f, c): sum of sign * A[f, d] @ Y over the list of terms
    (d, c, sign, Y)}, A the opmat of `form` and each Y an int SparseOp,
    Y / den the operand: the Scalar boundary of `exact.scatter`.  One
    Scalar(v, 0, form.den * den) is built for each entry that does not
    cancel.  No entry is 0 and no block is empty."""
    ncols = terms[-1][3].ncols if terms else 0
    den = form.den * den
    blocks: dict = {}
    for (f, c, i, j), v in scatter(form.columns, terms).items():
        if v:
            blocks.setdefault((f, c), {})[i, j] = Scalar(v, 0, den)
    out = {}
    for key, data in blocks.items():
        op = out[key] = SparseOp(form.nrows, ncols)
        op.data = data
    return out


def opmat_contract(a, b: dict, pairing: dict) -> dict:
    """(A . B)_rc = sum_d sign A[r, d] B[partner, c], {d: (partner, sign)}.

    A is a ColumnForm, whose contracted index is d, or an opmat whose second
    index is contracted (its form then built for this call only; a caller
    that contracts A again keeps the form, as `verify.Premises` does).  B
    is cleared to ints with one lcm and each of its nonzeros scattered
    through the matching column of A (`exact.scatter`), so a thin B costs
    its own nonzeros times the column lengths, not n^3 block products."""
    form = a if isinstance(a, ColumnForm) else opmat_form(a)
    back = {partner: (d, sign) for d, (partner, sign) in pairing.items()}
    (ints,), den = clear_opmats([b])
    return _scatter(form, [(back[e][0], c, back[e][1], op) for (e, c), op in ints.items()], den)


def opmat_apply(a, basis: SparseOp) -> dict:
    """{key: A[key] @ basis}, the keys whose image vanishes dropped: the
    opmat A (or its `o` ColumnForm) applied to the columns of `basis`."""
    form = _form(a, False)
    (ints,), den = clear_opmats([{0: basis}])
    return _scatter(form, [(d, d, 1, ints[0]) for d in {d for d, _ in form.columns}], den)


def opmat_mul(case: CaseDescriptor, a, b: dict) -> dict:
    """(A o B)_ab = sum_d eps_{-d} A[a,d] B[-d,b]; A an opmat or its `o`
    ColumnForm."""
    return opmat_contract(_form(a, False), b, {d: (-d, case.sign(-d)) for d in case.indices})


def opmat_mul_tt(case: CaseDescriptor, a, b: dict) -> dict:
    """(A *tt B)_ab = sum_d eps_d A[d,a] B[-d,b] (center-style contraction);
    A an opmat or its `*tt` ColumnForm (`first`)."""
    return opmat_contract(_form(a, True), b, {d: (-d, case.sign(d)) for d in case.indices})


def opmat_transpose(a: dict) -> dict:
    return {(b, c): op for (c, b), op in a.items()}


def _int_opmat(ops: dict, den: int) -> dict:
    """{key: op / den} for the int SparseOps `ops`, one Scalar built per
    distinct value; zero entries and empty blocks dropped."""
    made = {v: Scalar(v, 0, den) for v in {v for op in ops.values() for v in op.data.values()}}
    out = {}
    for key, op in ops.items():
        data = {e: made[v] for e, v in op.data.items() if v}
        if data:
            res = out[key] = SparseOp(op.nrows, op.ncols)
            res.data = data
    return out


def _poly_subs_ints(ints, den, a, b):
    """(mats, den'): the coefficients of M(a*u + b) from the int blocks
    `ints` of those of M(u) times den, as int SparseOps over one den'.

    The u^j coefficient is sum_k comb(k, j) a^j b^(k-j) M_k.  The factors
    are cleared to ints with one lcm, and the products are summed as ints;
    entries and trailing coefficients that cancel are dropped."""
    a, b = Scalar.of(a), Scalar.of(b)
    apow, bpow = [ONE], [ONE]
    for _ in ints:
        apow.append(apow[-1] * a)
        bpow.append(bpow[-1] * b)
    factors = {(k, j): apow[j] * bpow[k - j] * comb(k, j)
               for k in range(len(ints)) for j in range(k + 1)}
    fden = common_denominator(factors.values())
    acc = [dict() for _ in ints]  # u^j: {key: (a block of that shape, {entry: int})}
    for k, mat in enumerate(ints):
        for key, op in mat.items():
            for j in range(k + 1):
                factor = factors[k, j]
                if not factor:
                    continue
                factor = factor.p * (fden // factor.r)
                data = acc[j].setdefault(key, (op, {}))[1]
                for e, v in op.data.items():
                    data[e] = data.get(e, 0) + factor * v
    mats = [{key: SparseOp(shape.nrows, shape.ncols, data) for key, (shape, data) in mat.items()}
            for mat in acc]
    return _strip([{key: op for key, op in mat.items() if op.data} for mat in mats]), den * fden


def opmat_poly_subs(coeffs, a, b) -> list:
    """Coefficients of M(a*u + b) from coefficients of M(u), cleared
    (`exact.clear_opmats`): the int sums of `_poly_subs_ints`, one Scalar
    built per distinct entry."""
    mats, den = _poly_subs_ints(*clear_opmats(coeffs), a, b)
    return [_int_opmat(mat, den) for mat in mats]


def opmat_poly_subs_forms(ints, den, a, b, first: bool = False) -> list:
    """The column forms (`column_form`) of the coefficients of M(a*u + b),
    given the int blocks `ints` of those of M(u) times den, indexed straight
    from the int sums of `_poly_subs_ints`: no Scalar is made."""
    mats, den = _poly_subs_ints(ints, den, a, b)
    return [column_form(mat, den, first) for mat in mats]


def opmat_poly_mul(a_coeffs, b_coeffs, mul) -> list:
    """Coefficients of A(u) B(u), the coefficient products being mul(A_i, B_j)."""
    out = [dict() for _ in range(len(a_coeffs) + len(b_coeffs) - 1)]
    for i, am in enumerate(a_coeffs):
        for j, bm in enumerate(b_coeffs):
            for key, op in mul(am, bm).items():
                opmat_acc(out[i + j], key, op)
    return _strip(out)


def _strip(coeffs: list) -> list:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


# ---------------------------------------------------------------------------
# the L-operator container


class LOperator:
    """Polynomial operator matrix L_ab(u) = sum_k u^k coeffs[k][a, b]."""

    __slots__ = ("case", "space", "coeffs", "entry_budget", "kind", "params", "hw_vector")

    def __init__(self, case, space, coeffs, entry_budget=0, kind="generic", params=None,
                 hw_vector=None):
        self.case = case
        self.space = space
        self.coeffs = tuple(dict(c) for c in coeffs)
        self.entry_budget = entry_budget
        self.kind = kind
        self.params = dict(params or {})
        self.hw_vector = dict(hw_vector) if hw_vector else None

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def dim(self) -> int:
        return self.space.dim

    def coeff(self, k: int) -> dict:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else {}

    @property
    def g_mat(self) -> dict:
        """The u^(s-1) coefficient (the Lie-algebra generator matrix)."""
        return self.coeffs[self.order - 1] if self.order >= 1 else {}

    @property
    def h_mat(self) -> dict:
        if self.order != 2:
            raise ValueError("H is defined for quadratic evaluation only")
        return self.coeffs[0]

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case.label(),
            "order": self.order,
            "space": self.space.summary(),
            "params": {k: str(v) for k, v in self.params.items()},
        }


def cyclic_span(lop: LOperator, seeds) -> list:
    """Basis of the submodule generated by `seeds` under all L-coefficients.

    Only meaningful on closed (untruncated) spaces, where the closure is
    exactly the cyclic module of the seed vectors: the subspace on which
    central elements must act as genuine scalars.
    """
    if lop.space.trunc is not None:
        raise ValueError("cyclic span requires a closed representation space")
    span = VectorSpan()
    close_span(span, seeds, op_columns([op for mat in lop.coeffs for op in mat.values()]))
    return span.vectors()


def generating_set(lop: LOperator, ops, span=None, opposite=()) -> list:
    """Greedy S whose images under products of `ops` span W, or the
    invariant span of the vectors `span` when given.

    Candidates are the unit vectors, the hw vector's position first when it
    is a unit vector, then those that every op of `opposite` kills, then
    the rest, each in basis order; or the vectors of `span` in
    order.  A candidate outside the span so far joins S, and the span is
    closed under `ops`.  Stops when the span has the target dimension, which
    the candidates guarantee.  Returns basis positions, or the chosen
    vectors of `span`.
    """
    if span is None:
        moved = {j for op in opposite for _, j in op.data}
        order = sorted(range(lop.dim), key=lambda j: j in moved)
        if lop.hw_vector is not None and len(lop.hw_vector) == 1:
            order.insert(0, next(iter(lop.hw_vector)))
        candidates, target = [(j, {j: 1}) for j in order], lop.dim
    else:
        candidates, target = [(vec, vec) for vec in span], len(span)
    closure, seeds, columns = VectorSpan(), [], op_columns(ops)
    for seed, vec in candidates:
        if len(closure) == target:
            break
        before = len(closure)
        close_span(closure, [vec], columns)
        if len(closure) > before:
            seeds.append(seed)
    return seeds


def restrict_to_submodule(lop: LOperator, span) -> LOperator:
    """Base-change an L-operator onto an invariant span of vectors.

    No builder calls it: the JS module is built directly (`build_js_quadratic`).
    It stays as the reference the tests restrict the whole JS layer with,
    and the benchmark times it.

    `span` is a basis of it, as produced by cyclic_span; the new basis is
    its reduced echelon form B (`VectorSpan.reduced`), where coordinates
    are the entries at the pivots: each restricted coefficient R is read
    off the pivot rows of op @ B (one `opmat_apply` per coefficient) and the
    hw vector off its pivot entries.  Returns the restricted LOperator
    (labels ("v", i), closed space).  Raises unless B @ R == op @ B (one
    `opmat_contract` of B's form per coefficient) and the hw vector is in
    the span, so that B . hw == hw_vector.
    """
    basis = VectorSpan()
    for vec in span:
        if not basis.add(vec):
            raise ValueError("span basis is linearly dependent")
    dim = len(basis)
    position = {piv: i for i, piv in enumerate(basis.pivots)}
    space = RepSpace(lop.space.name + "|cyclic",
                     [("v", i) for i in range(dim)], [0] * dim)
    columns = SparseOp.from_columns(lop.dim, basis.reduced())
    form = opmat_form({(0, 0): columns})
    coeffs = []
    for mat in lop.coeffs:
        images = opmat_apply(mat, columns)
        new = {}
        for key in [key for key in mat if key in images]:  # in mat's key order
            new[key] = SparseOp(dim, dim, {(position[i], j): v
                                           for (i, j), v in images[key].data.items()
                                           if i in position})
        back = opmat_contract(form, {(0, key): op for key, op in new.items()}, {0: (0, 1)})
        if any(back.get((0, key)) != image for key, image in images.items()):
            raise ValueError("span is not invariant: an image leaves it")
        coeffs.append(new)
    hw = None
    if lop.hw_vector is not None:
        if basis.reduce(lop.hw_vector):  # else B . hw == hw_vector
            raise ValueError("the hw vector is not in the span")
        hw = {position[i]: Scalar.of(v) for i, v in sorted(lop.hw_vector.items())
              if v and i in position}
    return LOperator(lop.case, space, coeffs, entry_budget=0,
                     kind=lop.kind, params={**lop.params, "module": "cyclic"},
                     hw_vector=hw)


# ---------------------------------------------------------------------------
# linear evaluation: Clifford generators


def build_spinorial_linear(case: CaseDescriptor, trunc: int = 6) -> LOperator:
    """L_ab(u) = u eps_ab + G_ab with G_ab = (eps/2) eps_ab - c_a c_b, or
    G_ab = (1/2) eps_ab - (1/2) c_a c_b on the rational so(2m+1) frame of
    `spinor_space`, whose generators square to twice the textbook ones."""
    space, gens = spinor_space(case, trunc)
    dim = space.dim
    g = metric_opmat(case, dim, Scalar(case.eps, 0, 2))
    weight = Scalar(-1, 0, 2) if case.has_zero else -ONE
    for a in case.indices:
        for b in case.indices:
            prod = gens.c(a) @ gens.c(b)
            if not prod.is_zero:
                opmat_acc(g, (a, b), prod.scale(weight))
    budget = 0 if case.eps == 1 else 2
    return LOperator(case, space, [g, metric_opmat(case, dim)],
                     entry_budget=budget, kind="spinor", params={"trunc": trunc},
                     hw_vector=spinor_vacuum(space))


def spinor_vacuum(space: RepSpace) -> dict:
    """Fock vacuum of a spinor space as a sparse vector."""
    lab = space.labels[0]
    return {space.index[lab]: ONE}


def spinor_flipped_vacuum(case: CaseDescriptor, space: RepSpace, gens: GeneratorSet) -> dict:
    """The companion vector c_m |0>."""
    return gens.c(case.m).apply(spinor_vacuum(space))


# ---------------------------------------------------------------------------
# linear evaluation: matrix-Heisenberg generators


def build_heisenberg_linear(case: CaseDescriptor, ell, max_degree: int = 4) -> LOperator:
    """Block-form generators on polynomials of the matrix variable.

    Lowered blocks (i, j = 1..m):
      G[-i, +j] = eps(-(l+beta) delta_ij + (d x)^i_j)
      G[-i, -j] = eps d^i_j
      G[+i, +j] = (2l+beta) x^i_j - (x d x)^i_j
      G[+i, -j] = l delta_ij - (x d)^i_j
    """
    ell = Scalar.of(ell)
    space, gens = heisenberg_space(case, max_degree)
    dim = space.dim
    eps = Scalar.of(case.eps)
    beta = case.beta
    m = case.m
    g: dict = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            dx = SparseOp.zeros(dim, dim)
            xd = SparseOp.zeros(dim, dim)
            xdx = SparseOp.zeros(dim, dim)
            for k in range(1, m + 1):
                dx = dx + gens.dm(i, k) @ gens.xm(k, j)
                xd = xd + gens.xm(i, k) @ gens.dm(k, j)
                for l in range(1, m + 1):
                    xdx = xdx + gens.xm(i, k) @ gens.dm(k, l) @ gens.xm(l, j)
            delta = SparseOp.identity(dim) if i == j else SparseOp.zeros(dim, dim)
            opmat_acc(g, (-i, j), (dx - delta.scale(ell + beta)).scale(eps))
            opmat_acc(g, (-i, -j), gens.dm(i, j).scale(eps))
            opmat_acc(g, (i, j), gens.xm(i, j).scale(ell + ell + beta) - xdx)
            opmat_acc(g, (i, -j), delta.scale(ell) - xd)
    return LOperator(case, space, [g, metric_opmat(case, dim)],
                     entry_budget=1, kind="heisenberg",
                     params={"ell": ell, "max_degree": max_degree},
                     hw_vector=heisenberg_vacuum(space))


def heisenberg_vacuum(space: RepSpace) -> dict:
    """The constant polynomial 1."""
    zero_exp = tuple([0] * len(space.labels[0]))
    return {space.index[zero_exp]: ONE}


# ---------------------------------------------------------------------------
# quadratic evaluation: Jordan-Schwinger construction


def default_js_central_value(case: CaseDescriptor, two_l: int) -> Scalar:
    """k = -2l - (beta + 2l - 1)^2 / 2."""
    t = case.beta + (two_l - 1)
    return -Scalar.of(two_l) - t * t * Scalar(1, 0, 2)


def build_js_quadratic(case: CaseDescriptor, two_l: int, k=None) -> LOperator:
    """G_ab = -eps (x_a d_b - eps x_b d_a), H = (G o G + beta G + k eps_ab Id)/2.

    d_a = eps_a d/dx_(-a), and G is applied to monomials, labelled by
    their exponent tuples (`spaces.js_monomial_generators`), with int
    entries: G o G is one `exact.scatter` of its int columns, and H is
    summed on ints over 2 lcm(beta.r, k.r).  sp: the variables
    anticommute, and the layer is that of degree 2l <= 1, where no
    monomial has two Grassmann factors.  so(n): every eps is 1, and up to
    2l = 2 the space is the whole layer.  From 2l = 3 on the relations
    hold only on the module generated by x_(-1)^(2l), which for n >= 3 is
    the quotient P_2l / q P_(2l-2), q = sum_c x_c x_(-c):

    - d/dx_(-a) q = 2 x_a, so G_ab q = 0; each G_ab is a derivation, so
      q P_(2l-2) is invariant and G, and H (a polynomial in G), act on the
      quotient.
    - P_2l = Harm_2l + q P_(2l-2), and the harmonic polynomials Harm_2l are
      irreducible for n >= 3 (Stein-Weiss, Fourier Analysis on Euclidean
      Spaces, ch. IV; Goodman-Wallach, Symmetry, Representations, and
      Invariants).  x_(-1)^(2l) is harmonic, so its cyclic module under L
      is Harm_2l, which the projection maps isomorphically onto the
      quotient: every verdict, scalar, c(u) and dimension is unchanged.
    - The basis: q_hat is q scaled so that its lead, x_0^2 for so(2m+1)
      (q_hat = q) or x_1 x_(-1) for so(2m) (q_hat = q/2), has coefficient
      1.  Rewriting lead * r -> -(q_hat - lead) * r lowers the exponent of
      x_0 (x_1), so every monomial has one int normal form in the standard
      monomials, those the lead does not divide, and they are a basis of
      the quotient (q_hat is its own Groebner basis).  x_(-1)^(2l) is
      standard, so the hw vector is a unit vector.

    Raises ValueError unless G_ab q_hat = 0 for every (a, b).  so(2) is
    abelian and its Harm_2l reducible, but G_(1,-1) = -G_(-1,1) =
    x_(-1) d/dx_(-1) - x_1 d/dx_1 is diagonal on monomials and every other
    G_ab is 0: H, a polynomial in G, is diagonal too, so the cyclic module
    of x_(-1)^(2l) is its line, which from 2l = 3 on is the space.
    """
    if two_l < 0:
        raise ValueError("two_l must be a nonnegative integer")
    if case.family == "sp" and two_l > 1:
        raise ValueError("symplectic homogeneous layer requires two_l in {0, 1}")
    k = Scalar.of(default_js_central_value(case, two_l) if k is None else k)
    cyclic = two_l >= 3
    labels, g = js_monomial_generators(case, two_l, cyclic)
    name = f"homog[{case.label()},2l={two_l}]" + ("|cyclic" if cyclic else "")
    space = RepSpace(name, labels, [two_l] * len(labels))
    dim, beta = space.dim, case.beta
    scale = lcm(beta.r, k.r)
    gg = scatter(int_columns(g), [(-e, c, case.sign(e), op) for (e, c), op in g.items()])
    blocks = defaultdict(lambda: defaultdict(int))
    for (f, c, i, j), v in gg.items():
        if v:
            blocks[f, c][i, j] = v * scale
    for key, op in g.items():
        for e, v in op.data.items():
            blocks[key][e] += beta.p * (scale // beta.r) * v
    if k:
        for a in case.indices:
            for i in range(dim):
                blocks[a, -a][i, i] += case.sign(a) * k.p * (scale // k.r)
    h = {key: SparseOp(dim, dim, data) for key, data in blocks.items()}
    coeffs = [_int_opmat(h, 2 * scale), _int_opmat(g, 1), metric_opmat(case, dim)]
    return LOperator(case, space, coeffs, entry_budget=0, kind="js",
                     params={"two_l": two_l, "k": k, **({"module": "cyclic"} if cyclic else {})},
                     hw_vector=js_highest_vector(case, space, two_l))


def js_highest_vector(case: CaseDescriptor, layer: RepSpace, two_l: int) -> dict:
    """psi = x_{-1}^{2l}, a unit vector in the exponent-tuple basis."""
    exp = [0] * case.n
    exp[case.pos(-1)] = two_l
    return {layer.index[tuple(exp)]: ONE}


# ---------------------------------------------------------------------------
# quadratic evaluation: product of two linear factors


def tensor_product_space(first: RepSpace, second: RepSpace) -> RepSpace:
    labels, grade, headroom = [], [], []
    limited = (first.trunc is not None) or (second.trunc is not None)
    for i1, l1 in enumerate(first.labels):
        h1 = None if first.trunc is None else first.trunc - first.grade[i1]
        for i2, l2 in enumerate(second.labels):
            h2 = None if second.trunc is None else second.trunc - second.grade[i2]
            labels.append((l1, l2))
            grade.append(first.grade[i1] + second.grade[i2])
            if limited:
                hs = [h for h in (h1, h2) if h is not None]
                headroom.append(min(hs))
    if not limited:
        return RepSpace(f"{first.name}*{second.name}", labels, grade)
    # encode the combined headroom through an artificial grade/trunc pair
    top = max(headroom)
    space = RepSpace(f"{first.name}*{second.name}", labels,
                     [top - h for h in headroom], trunc=top)
    return space


def build_product(l1: LOperator, l2: LOperator, delta) -> LOperator:
    """L'(u) = L1(u - delta/2) L2(u + delta/2) on the tensor product.

    The half-shift centers the product so its u-coefficient is
    G = G1 + G2 (both factors eps-antisymmetric); the representation is
    built on |0>_1 (x) |0>_2.
    """
    if l1.case != l2.case:
        raise ValueError("product factors must share the same case")
    if l1.order != 1 or l2.order != 1:
        raise ValueError("product factors must be linear evaluations")
    case = l1.case
    delta = Scalar.of(delta)
    half = Scalar(1, 0, 2)
    space = tensor_product_space(l1.space, l2.space)
    id1 = SparseOp.identity(l1.space.dim)
    id2 = SparseOp.identity(l2.space.dim)

    def lift1(mat):
        return {key: op.kron(id2) for key, op in mat.items()}

    def lift2(mat):
        return {key: id1.kron(op) for key, op in mat.items()}

    a_coeffs = [lift1(c) for c in opmat_poly_subs(l1.coeffs, ONE, -delta * half)]
    b_coeffs = [lift2(c) for c in opmat_poly_subs(l2.coeffs, ONE, delta * half)]
    out = opmat_poly_mul([opmat_form(c) for c in a_coeffs], b_coeffs,
                         lambda x, y: opmat_mul(case, x, y))
    hw = None
    if l1.hw_vector is not None and l2.hw_vector is not None:
        hw = product_vector(l1.hw_vector, l2.space, l2.hw_vector)
    return LOperator(case, space, out,
                     entry_budget=l1.entry_budget + l2.entry_budget,
                     kind="product",
                     params={"delta": delta,
                             "factor1": l1.kind, "factor2": l2.kind,
                             "p1": l1.params, "p2": l2.params},
                     hw_vector=hw)


def product_vector(v1: dict, l2_space: RepSpace, v2: dict) -> dict:
    out = {}
    d2 = l2_space.dim
    for i, a in v1.items():
        for j, b in v2.items():
            out[i * d2 + j] = a * b
    return out


# ---------------------------------------------------------------------------
# gl(2) chains and the so(3) fusion


class Gl2Operator:
    """Monodromy L(u) = prod_k (u - u_k) delta - x^(k) d^(k) on oscillator layers.

    coeffs[k] maps (alpha, beta) in {1,2}^2 to a SparseOp; hw_index points
    at the product highest-weight monomial prod x_1^(d_k).
    """

    __slots__ = ("space", "coeffs", "shifts", "excitations", "hw_index")

    def __init__(self, space, coeffs, shifts, excitations, hw_index):
        self.space = space
        self.coeffs = coeffs
        self.shifts = shifts
        self.excitations = excitations
        self.hw_index = hw_index

    @property
    def order(self):
        return len(self.coeffs) - 1

    def eigen_a(self) -> UniPoly:
        """Diagonal eigenvalue of L_11 on the highest monomial: prod (u - u_k - d_k)."""
        out = UniPoly.const(1)
        for u_k, d_k in zip(self.shifts, self.excitations):
            out = out * UniPoly([-(u_k + d_k), ONE])
        return out

    def eigen_d(self) -> UniPoly:
        """Diagonal eigenvalue of L_22: prod (u - u_k)."""
        out = UniPoly.const(1)
        for u_k in self.shifts:
            out = out * UniPoly([-u_k, ONE])
        return out

    def ratio(self):
        """Weight-function ratio lambda_1/lambda_2 with lambda(u) = eigen(-u).

        Equal to prod (u + u_k + d_k) / (u + u_k); its value one at infinity
        is what makes the finiteness criterion applicable.
        """
        return self.eigen_a().reflect(), self.eigen_d().reflect()


GL2_PAIRING = {1: (1, 1), 2: (2, 1)}  # the trivial metric: ordinary 2x2 products


def build_gl2_js_chain(chain) -> Gl2Operator:
    """chain = [(u_k, d_k), ...] with nonnegative integer excitations d_k."""
    shifts = [Scalar.of(u) for u, _ in chain]
    exc = [int(d) for _, d in chain]
    if any(d < 0 for d in exc):
        raise ValueError("excitation numbers d_k must be nonnegative integers")
    space, ops = gl2_chain_space(exc)
    dim = space.dim
    ident = SparseOp.identity(dim)
    acc = [{(1, 1): ident, (2, 2): ident}]  # empty product
    for k, u_k in enumerate(shifts):
        c0 = {}
        for alpha in (1, 2):
            for beta in (1, 2):
                op = SparseOp.zeros(dim, dim) - ops[("e", k, alpha, beta)]
                if alpha == beta:
                    op = op + ident.scale(-u_k)
                if not op.is_zero:
                    c0[(alpha, beta)] = op
        factor = [c0, {(1, 1): ident, (2, 2): ident}]
        acc = opmat_poly_mul([opmat_form(c) for c in acc], factor,
                             lambda x, y: opmat_contract(x, y, GL2_PAIRING))
    hw_index = space.index[tuple(0 for _ in exc)]
    return Gl2Operator(space, acc, shifts, exc, hw_index)


GAMMA = {  # the so(3) gammas in the torus frame of `fuse_so3_from_gl2`
    -1: {(2, 1): Scalar(2)},                # 2 E_21
    0: {(1, 1): ONE, (2, 2): -ONE},         # diag(1, -1)
    1: {(1, 2): ONE},                       # E_12
}


def fuse_so3_from_gl2(gl2: Gl2Operator):
    """so(3) L-operator from a gl(2) monodromy by the spinor sandwich.

    Returns (LOperator, qdet) where the entries are
      Lhat_ab(u) = (1/2) tr[gamma_a Lg(2u) gamma_b adj(2u+2)]
    and qdet is the eigen-polynomial of the quantum determinant on the
    highest monomial; Lhat = qdet * (the rational fused operator), so all
    entries are polynomial and the RLL relation holds for Lhat verbatim.

    The textbook gammas r E_21, diag(1, -1), r E_12 (r = 2^(1/2)) are
    taken in the torus frame L_ab -> t_a t_b L_ab, t_1 = 1/r, t_0 = 1,
    t_-1 = r, which makes `GAMMA` rational.  t_a t_-a = 1, so the torus
    element commutes with I, P and K on V x V: RLL still holds, and the
    diagonal entries L_{a,-a}, hence the weight functions, are unchanged.
    """
    case = make_case("so_odd", 1)
    space = gl2.space
    # qdet eigenvalue q(u) = a(2u+2) d(2u+1)
    qdet = (gl2.eigen_a().compose_linear(Scalar(2), Scalar(2))
            * gl2.eigen_d().compose_linear(Scalar(2), ONE))
    if qdet.is_zero:
        raise ValueError("quantum determinant vanishes identically")
    lg2u = opmat_poly_subs_forms(*clear_opmats(gl2.coeffs), Scalar(2), ZERO)
    at_2u1 = opmat_poly_subs(gl2.coeffs, Scalar(2), ONE)
    adj = [dict() for _ in at_2u1]
    for k, mat in enumerate(at_2u1):
        for (alpha, beta), op in mat.items():
            if alpha == beta:
                adj[k][(3 - alpha, 3 - beta)] = op
            else:
                adj[k][(alpha, beta)] = -op
    sandwich = {}  # b -> the coefficients of Lg(2u) gamma_b adj(2u+2)
    for b in case.indices:
        right = [dict() for _ in adj]
        for k, mat in enumerate(adj):
            for (be, ga2), sb in GAMMA[b].items():
                for (al, d1), op in mat.items():
                    if al == ga2:
                        opmat_acc(right[k], (be, d1), op.scale(sb))
        sandwich[b] = opmat_poly_mul(lg2u, right, lambda x, y: opmat_contract(x, y, GL2_PAIRING))
    half = Scalar(1, 0, 2)
    out = [dict() for _ in range(len(lg2u) + len(adj) - 1)]
    for a in case.indices:
        for b in case.indices:
            for k, mat in enumerate(sandwich[b]):
                acc = None  # the trace with gamma_a
                for (d1, al), sa in GAMMA[a].items():
                    op = mat.get((al, d1))
                    if op is not None:
                        term = op.scale(sa * half)
                        acc = term if acc is None else acc + term
                if acc is not None and not acc.is_zero:
                    out[k][(a, b)] = acc
    lop = LOperator(case, space, _strip(out), entry_budget=0, kind="fuse3",
                    params={"chain": list(zip(gl2.shifts, gl2.excitations))},
                    hw_vector={gl2.hw_index: ONE})
    return lop, qdet
