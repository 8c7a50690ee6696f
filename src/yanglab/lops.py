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

Entry budgets: on truncated spaces each coefficient entry is built from
generator factors whose degree excursion is bounded; `entry_budget`
records that bound so verification code can pick the safe subspace for a
product of several entries (budgets add along compositions).
"""

from __future__ import annotations

from math import comb

from .exact import ONE, ZERO, Scalar, SparseOp, UniPoly
from .spaces import (
    GeneratorSet,
    RepSpace,
    gl2_chain_space,
    heisenberg_space,
    homogeneous_space,
    restrict_op,
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


def opmat_contract(a: dict, b: dict, pairing: dict) -> dict:
    """(A . B)_rc = sum_d sign A[r, d] B[partner, c], {d: (partner, sign)}."""
    b_rows: dict = {}
    for (d, c), op in b.items():
        b_rows.setdefault(d, []).append((c, op))
    out: dict = {}
    for (r, d), op_a in a.items():
        partner, sign = pairing[d]
        for c, op_b in b_rows.get(partner, ()):
            prod = op_a @ op_b
            opmat_acc(out, (r, c), prod if sign == 1 else -prod)
    return out


def opmat_mul(case: CaseDescriptor, a: dict, b: dict) -> dict:
    """(A o B)_ab = sum_d eps_{-d} A[a,d] B[-d,b]."""
    return opmat_contract(a, b, {d: (-d, case.sign(-d)) for d in case.indices})


def opmat_mul_tt(case: CaseDescriptor, a: dict, b: dict) -> dict:
    """(A *tt B)_ab = sum_d eps_d A[d,a] B[-d,b] (center-style contraction)."""
    return opmat_contract(opmat_transpose(a), b,
                          {d: (-d, case.sign(d)) for d in case.indices})


def opmat_transpose(a: dict) -> dict:
    return {(b, c): op for (c, b), op in a.items()}


def opmat_entry(a: dict, key, dim: int) -> SparseOp:
    return a.get(key, SparseOp.zeros(dim, dim))


def opmat_poly_subs(coeffs, a, b) -> list:
    """Coefficients of M(a*u + b) from coefficients of M(u)."""
    a, b = Scalar.of(a), Scalar.of(b)
    apow = [ONE]
    for _ in coeffs:
        apow.append(apow[-1] * a)
    out = [dict() for _ in coeffs]
    for k, mat in enumerate(coeffs):
        bpow = ONE
        for j in range(k, -1, -1):
            factor = apow[j] * bpow * comb(k, j)
            if not factor.is_zero:
                for key, op in mat.items():
                    opmat_acc(out[j], key, op.scale(factor))
            bpow = bpow * b
    return _strip(out)


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

    def entry_poly_on_vector(self, a: int, b: int, vec: dict):
        """[coefficient vectors] of L_ab(u) applied to a state vector."""
        dim = self.dim
        return [opmat_entry(c, (a, b), dim).apply(vec) for c in self.coeffs]

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
    from .exact import VectorSpan

    if lop.space.trunc is not None:
        raise ValueError("cyclic span requires a closed representation space")
    span = VectorSpan()
    queue = [dict(v) for v in seeds]
    ops = [op for mat in lop.coeffs for op in mat.values()]
    while queue:
        vec = queue.pop()
        if not span.add(vec):
            continue
        for op in ops:
            image = op.apply(vec)
            if image:
                queue.append(image)
    return span.vectors()


def restrict_to_submodule(lop: LOperator, span, extra_vectors=()):
    """Base-change an L-operator onto an invariant span of vectors.

    `span` is an echelon basis as produced by cyclic_span.  Returns the
    restricted LOperator (labels ("v", i), closed space) together with the
    coordinates of any extra vectors.  Raises if some image leaves the
    span (i.e. the span was not invariant).
    """
    from .exact import VectorSpan

    basis = VectorSpan()
    for vec in span:
        if not basis.add(vec):
            raise ValueError("span basis is linearly dependent")
    dim = len(basis)
    space = RepSpace(lop.space.name + "|cyclic",
                     [("v", i) for i in range(dim)], [0] * dim)
    columns = basis.vectors()
    coeffs = []
    for mat in lop.coeffs:
        new = {}
        for key, op in mat.items():
            data = {}
            for j, vec in enumerate(columns):
                for i, val in enumerate(basis.coordinates(op.apply(vec))):
                    if not val.is_zero:
                        data[(i, j)] = val
            if data:
                new[key] = SparseOp(dim, dim, data)
        coeffs.append(new)
    extras = []
    for vec in extra_vectors:
        coords = basis.coordinates(dict(vec))
        extras.append({i: v for i, v in enumerate(coords) if not v.is_zero})
    hw = None
    if lop.hw_vector is not None:
        hw = {i: v for i, v in enumerate(basis.coordinates(lop.hw_vector))
              if not v.is_zero}
    sub = LOperator(lop.case, space, coeffs, entry_budget=0,
                    kind=lop.kind, params={**lop.params, "module": "cyclic"},
                    hw_vector=hw)
    return sub, extras


# ---------------------------------------------------------------------------
# linear evaluation: Clifford generators


def build_spinorial_linear(case: CaseDescriptor, trunc: int = 6) -> LOperator:
    """L_ab(u) = u eps_ab + G_ab with G_ab = (eps/2) eps_ab - c_a c_b."""
    space, gens = spinor_space(case, trunc)
    dim = space.dim
    g = metric_opmat(case, dim, Scalar(case.eps, 0, 2))
    for a in case.indices:
        for b in case.indices:
            prod = gens.c(a) @ gens.c(b)
            if not prod.is_zero:
                opmat_acc(g, (a, b), -prod)
    budget = 0 if case.eps == 1 else 2
    return LOperator(case, space, [g, metric_opmat(case, dim)],
                     entry_budget=budget, kind="spinor", params={"trunc": trunc},
                     hw_vector={space.index[space.labels[0]]: ONE})


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
    zero_exp = tuple([0] * len(space.labels[0]))
    return LOperator(case, space, [g, metric_opmat(case, dim)],
                     entry_budget=1, kind="heisenberg",
                     params={"ell": ell, "max_degree": max_degree},
                     hw_vector={space.index[zero_exp]: ONE})


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


def build_js_quadratic(case: CaseDescriptor, two_l: int, k=None,
                       module: str = "auto") -> LOperator:
    """G_ab = -eps (x_a d_b - eps x_b d_a), H = (G^2 + beta G + k)/2.

    `module` selects the representation space: "layer" is the full
    homogeneous degree-2l layer, "cyclic" the submodule generated by the
    highest vector x_{-1}^{2l}.  The full layer is reducible; the
    quadratic-evaluation relations hold on all of it only up to 2l = 2,
    so "auto" restricts to the cyclic module for orthogonal 2l >= 3.
    """
    layer, gens = homogeneous_space(case, two_l)
    ambient = gens.space
    dim = layer.dim
    eps = case.eps
    if k is None:
        k = default_js_central_value(case, two_l)
    k = Scalar.of(k)
    g: dict = {}
    for a in case.indices:
        for b in case.indices:
            amb = (gens.x(a) @ gens.d(b)).scale(Scalar.of(-eps)) + gens.x(b) @ gens.d(a)
            op = restrict_op(amb, ambient, layer)
            if not op.is_zero:
                g[(a, b)] = op
    gg = opmat_mul(case, g, g)
    h = opmat_add(gg, opmat_scale(g, case.beta))
    h = opmat_add(h, metric_opmat(case, dim, k))
    h = opmat_scale(h, Scalar(1, 0, 2))
    lop = LOperator(case, layer, [h, g, metric_opmat(case, dim)],
                    entry_budget=0, kind="js",
                    params={"two_l": two_l, "k": k},
                    hw_vector=js_highest_vector(case, layer, two_l))
    if module == "layer":
        return lop
    if module not in ("auto", "cyclic"):
        raise ValueError(f"unknown module selector {module!r}")
    if module == "auto" and (case.family == "sp" or two_l <= 2):
        return lop
    span = cyclic_span(lop, [lop.hw_vector])
    sub, _ = restrict_to_submodule(lop, span)
    return sub


def js_highest_vector(case: CaseDescriptor, layer: RepSpace, two_l: int) -> dict:
    """psi = x_{-1}^{2l} (for sp with 2l = 1 the single factor x_{-1})."""
    if case.family == "sp":
        if two_l == 0:
            return {layer.index[0]: ONE}
        mask = 1 << case.pos(-1)
        return {layer.index[mask]: ONE}
    exp = [0] * case.n
    exp[case.pos(-1)] = two_l
    return {layer.index[tuple(exp)]: ONE}


# ---------------------------------------------------------------------------
# quadratic evaluation: product of two linear factors


def tensor_product_space(s1: RepSpace, s2: RepSpace) -> RepSpace:
    labels, grade, headroom = [], [], []
    limited = (s1.trunc is not None) or (s2.trunc is not None)
    for i1, l1 in enumerate(s1.labels):
        h1 = None if s1.trunc is None else s1.trunc - s1.grade[i1]
        for i2, l2 in enumerate(s2.labels):
            h2 = None if s2.trunc is None else s2.trunc - s2.grade[i2]
            labels.append((l1, l2))
            grade.append(s1.grade[i1] + s2.grade[i2])
            if limited:
                hs = [h for h in (h1, h2) if h is not None]
                headroom.append(min(hs))
    if not limited:
        return RepSpace(f"{s1.name}*{s2.name}", labels, grade)
    # encode the combined headroom through an artificial grade/trunc pair
    top = max(headroom)
    space = RepSpace(f"{s1.name}*{s2.name}", labels,
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
    out = opmat_poly_mul(a_coeffs, b_coeffs, lambda x, y: opmat_mul(case, x, y))
    hw = None
    if l1.hw_vector is not None and l2.hw_vector is not None:
        hw = product_vector(l1.space, l1.hw_vector, l2.space, l2.hw_vector)
    return LOperator(case, space, out,
                     entry_budget=l1.entry_budget + l2.entry_budget,
                     kind="product",
                     params={"delta": delta,
                             "factor1": l1.kind, "factor2": l2.kind,
                             "p1": l1.params, "p2": l2.params},
                     hw_vector=hw)


def product_vector(l1_space: RepSpace, v1: dict, l2_space: RepSpace, v2: dict) -> dict:
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

    def coeff_entry(self, k, alpha, beta) -> SparseOp:
        dim = self.space.dim
        return self.coeffs[k].get((alpha, beta), SparseOp.zeros(dim, dim))


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
        acc = opmat_poly_mul(acc, factor, lambda x, y: opmat_contract(x, y, GL2_PAIRING))
    hw_index = space.index[tuple(0 for _ in exc)]
    return Gl2Operator(space, acc, shifts, exc, hw_index)


GAMMA = {
    -1: {(2, 1): Scalar(0, 1, 1)},          # sqrt2 E_21
    0: {(1, 1): ONE, (2, 2): -ONE},         # diag(1, -1)
    1: {(1, 2): Scalar(0, 1, 1)},           # sqrt2 E_12
}


def fuse_so3_from_gl2(gl2: Gl2Operator):
    """so(3) L-operator from a gl(2) monodromy by the spinor sandwich.

    Returns (LOperator, qdet) where the entries are
      Lhat_ab(u) = (1/2) tr[gamma_a Lg(2u) gamma_b adj(2u+2)]
    and qdet is the eigen-polynomial of the quantum determinant on the
    highest monomial; Lhat = qdet * (the rational fused operator), so all
    entries are polynomial and the RLL relation holds for Lhat verbatim.
    """
    case = make_case("so_odd", 1)
    space = gl2.space
    # qdet eigenvalue q(u) = a(2u+2) d(2u+1)
    qdet = (gl2.eigen_a().compose_linear(Scalar(2), Scalar(2))
            * gl2.eigen_d().compose_linear(Scalar(2), ONE))
    if qdet.is_zero:
        raise ValueError("quantum determinant vanishes identically")
    lg2u = opmat_poly_subs(gl2.coeffs, Scalar(2), ZERO)
    at_2u1 = opmat_poly_subs(gl2.coeffs, Scalar(2), ONE)
    adj = [dict() for _ in at_2u1]
    for k, mat in enumerate(at_2u1):
        for (alpha, beta), op in mat.items():
            if alpha == beta:
                adj[k][(3 - alpha, 3 - beta)] = op
            else:
                adj[k][(alpha, beta)] = -op
    half = Scalar(1, 0, 2)
    out = [dict() for _ in range(len(lg2u) + len(adj) - 1)]
    for a in case.indices:
        for b in case.indices:
            ga, gb = GAMMA[a], GAMMA[b]
            for i, lm in enumerate(lg2u):
                for j, am in enumerate(adj):
                    acc = None
                    # trace of gamma_a Lg gamma_b adj
                    for (d1, al), s1 in ga.items():
                        for (be, ga2), s2 in gb.items():
                            op1 = lm.get((al, be))
                            if op1 is None:
                                continue
                            op2 = am.get((ga2, d1))
                            if op2 is None:
                                continue
                            term = (op1 @ op2).scale(s1 * s2 * half)
                            acc = term if acc is None else acc + term
                    if acc is not None and not acc.is_zero:
                        opmat_acc(out[i + j], (a, b), acc)
    lop = LOperator(case, space, _strip(out), entry_budget=0, kind="fuse3",
                    params={"chain": list(zip(gl2.shifts, gl2.excitations))},
                    hw_vector={gl2.hw_index: ONE})
    return lop, qdet
