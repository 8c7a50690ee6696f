"""Exact symbolic verification of the L-operator algebra identities.

Every check expands its identity coefficient-by-coefficient in the
spectral parameters and compares operators entry by entry; there is no
sampling and no tolerance.  On truncated spaces a check compares only on
the safe subspace for its composition budget (see spaces module); a
check whose safe subspace is empty compared nothing and fails.

Reports are deterministic: index tuples are scanned in sorted order and
the first violation is recorded together with its residual polynomial.

YBE, RLL and gl(2)-RLL run on `structure.identity_residual`, which takes
the coefficients of L(u) as their blocks on W, the first index raised
(`_raised_coeffs`), and the compared columns of W; the flat layout of
(V x V) x W stays inside `structure`.  The Lie relation (G with itself),
the adjoint relation (G with H) and the W tensor (G with itself) run on
`structure.block_violation`, on the blocks G_ab and X_cd on W: per
first-slot row a, two products of the row's G_ab with every X_cd side by
side and stacked give G_ab X_cd and X_cd G_ab for all b and (c, d) at once,
on integer-cleared operands.  The commutator's right side is blocks of X
placed by their indices, and W sums three anticommutator blocks.

On a closed space these relations are decided on generators of g
(`_generators`).  If G is symmetric, G + eps G^t = c eps_ab Id, it is a
linear map on g plus a central scalar, and the x in g on which the Lie
relation holds form a Lie subalgebra (Jacobi); so do the x at which X is
invariant, once G is a representation.  Both relations are then compared
on the 2m Chevalley pairs (a, b) only (`structure.chevalley_pairs`), for
every (c, d), and W on the columns of a set that generates W under G.  A
failed premise, or a violation there, reruns the kernel on every pair and
safe column, so verdicts and counterexamples are those of the full
comparison.

RLL on a closed space is decided by a covariance certificate.  Three
premises are checked exactly: the space is closed, the top coefficient
is C_s = c eps_ab Id with c != 0, and every other coefficient is
invariant under the action G = C_(s-1) / c (`block_violation`, on the
Chevalley pairs when the premises above hold: the Lie relation for
C_(s-1), the adjoint one for H).  R lies in
span{I, P, K}, so the residual then commutes with the diagonal action on
(V x V) x W and its kernel is a submodule: it vanishes everywhere once it
vanishes on V x V x S, S a set of unit vectors that generates W under G
(proof at `check_rll`).  The engine is then called on the W columns S
(n^2 |S| columns of (V x V) x W); a failed premise, or a residual on them,
sends it to all the safe columns.

The central checks (the linear constraint, the four constraint scalars,
chi3 and the center) decide M_ab = c eps_ab Id on one basis SparseOp
whose columns span the module: the safe unit vectors, or the vectors of
an invariant span.  `opmat_scalar_on` forms M_ab @ basis per key and
compares it with c eps_ab basis; c is read off the first diagonal key,
or is 0 for chi3 and the center commutator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import ONE, ZERO, BiPoly, Scalar, SparseOp, UniPoly
from .lops import (
    LOperator,
    cyclic_span,
    generating_set,
    opmat_add,
    opmat_mul,
    opmat_mul_tt,
    opmat_poly_mul,
    opmat_poly_subs,
    opmat_scale,
    opmat_sub,
    opmat_transpose,
)
from .structure import (
    YANG_GL2_IPK,
    CaseDescriptor,
    block_violation,
    chevalley_pairs,
    describe_flat,
    first_violation,
    fundamental_ipk,
    identity_residual,
    k_form,
)


@dataclass
class CheckReport:
    """Verdict of one identity check."""

    name: str
    passed: bool
    scalars: dict = field(default_factory=dict)
    counterexample: tuple | None = None  # (description, residual)
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed

    def to_dict(self) -> dict:
        def ser(value):
            if isinstance(value, Scalar):
                return value.to_string()
            if isinstance(value, UniPoly):
                return value.to_strings()
            if isinstance(value, BiPoly):
                return value.to_strings()
            return value

        out = {
            "check": self.name,
            "passed": self.passed,
            "scalars": {k: ser(v) for k, v in self.scalars.items()},
            "details": {k: ser(v) for k, v in self.details.items()},
        }
        if self.counterexample is not None:
            desc, residual = self.counterexample
            out["counterexample"] = {"at": repr(desc), "residual": ser(residual)}
        return out


def _module_basis(lop: LOperator, budget: int, span=None):
    """(basis, details): the module a central check decides on, as the
    columns of one SparseOp.  Those are the unit vectors safe for `budget`
    or, when given, the vectors of an invariant `span`."""
    if span is not None:
        data = {(j, k): v for k, vec in enumerate(span) for j, v in vec.items()}
        return SparseOp(lop.dim, len(span), data), {"span_dimension": len(span)}
    cols = lop.space.safe_indices(budget)
    data = {(j, k): ONE for k, j in enumerate(cols)}
    return SparseOp(lop.dim, len(cols), data), {"safe_columns": len(cols)}


def opmat_scalar_on(case: CaseDescriptor, mat: dict, basis: SparseOp, value=None):
    """Decide mat == value * eps_ab * Id on the columns of `basis`.

    Each M_ab @ basis is compared with value * eps_ab * basis.  A value of
    None is read off the first diagonal key (a, -a) in sorted order, at
    the first basis column whose image is nonzero at that column's leading
    row.  Returns (ok, value, bad); bad = (key, residual) at the first
    differing entry (row, column) of the first key in sorted order.
    """
    images = {key: mat[key] @ basis for key in mat}
    if value is None:
        value = ZERO
        lead = {}
        for (j, k), v in basis.data.items():
            if k not in lead or j < lead[k][0]:
                lead[k] = (j, v)
        for a in sorted(case.indices):
            img = images.get((a, -a))
            hits = [] if img is None else [k for k, (j, _) in lead.items() if (j, k) in img.data]
            if hits:
                k = min(hits)
                j, v = lead[k]
                value = img.data[(j, k)] * (v * case.metric_lower(a, -a)).inv()
                break
    keys = set(images)
    if value:
        keys.update((a, -a) for a in case.indices)
    for key in sorted(keys):
        diff = images.get(key, SparseOp.zeros(basis.nrows, basis.ncols))
        want = value * case.metric_lower(*key)
        if want:
            diff = diff - basis.scale(want)
        if diff.data:
            return False, value, (key, diff.data[min(diff.data)])
    return True, value, None


def _vacuous(name: str, details: dict | None = None) -> CheckReport:
    """A check that compared nothing fails; `details` holds the empty count."""
    details = {"safe_columns": 0} if details is None else details
    empty = next(k for k, v in details.items() if v == 0)
    return CheckReport(name, False, counterexample=((empty, 0), "no columns compared"),
                       details=details)


# ---------------------------------------------------------------------------
# Lie-algebra and adjoint relations


def _generators(lop: LOperator, g: dict):
    """(P, record): the Chevalley pairs P when the relations of G may be
    decided on them, else None; record is {"pairs": |P|} or names the first
    premise that failed.  Each premise is decided exactly, in this order:

      closed     the space is untruncated (no trunc, no floor);
      symmetric  G + eps G^t = c eps_ab Id (`opmat_scalar_on` on the
                 identity), so G_ab = G(x_ab) + c/2 eps_ab Id for a linear
                 map G on g, x_ab = -eps x_ba (`chevalley_pairs`), plus a
                 central scalar, which neither side of a relation sees;
      lie        the Lie relation of G holds on the pairs P, for all (c, d).

    Generator lemma (Humphreys, Introduction to Lie Algebras and
    Representation Theory, sec. 18).  Given symmetry, the set S of x in g
    with [G(x), G(y)] = G([x, y]) for every y is a subspace, and by Jacobi

      [G([x, x']), G(y)] = [G(x), G([x', y])] - [G(x'), G([x, y])]
                         = G([x, [x', y]] - [x', [x, y]]) = G([[x, x'], y])

    for x, x' in S, so S is a Lie subalgebra.  It contains P, which
    generates g, so it is g: the Lie relation holds for every (a, b, c, d).
    Given that, D(x) = ad G(x) + rho(x), rho(x) the action of x on the
    index pair (c, d) that the relation's right side applies, is a
    representation on the tensors X_cd, and X is invariant at x when
    D(x) X = 0.  D([x, y]) X = D(x) D(y) X - D(y) D(x) X, so the set of x
    at which X is invariant is a subalgebra too: X is invariant as soon as
    `block_violation(G, X, pairs=P)` finds nothing.
    """
    case, space, dim = lop.case, lop.space, lop.dim
    if space.trunc is not None or space.floor is not None:
        return None, {"premise_failed": "closed"}
    sym = opmat_add(g, opmat_scale(opmat_transpose(g), Scalar.of(case.eps)))
    if not opmat_scalar_on(case, sym, SparseOp.identity(dim))[0]:
        return None, {"premise_failed": "symmetric"}
    pairs = chevalley_pairs(case)
    if block_violation(case, g, g, dim, range(dim), pairs=pairs) is not None:
        return None, {"premise_failed": "lie"}
    return pairs, {"pairs": len(pairs)}


def _block_check(lop, g, x, budget, name, w_tensor=False):
    """A Lie-type relation of G and X decided by `structure.block_violation`,
    on the columns safe for `budget` compositions of the entry budget.

    When the premises of `_generators` hold, the Lie relation holds (its
    last premise is the relation on the pairs P), the adjoint one is
    compared on P, and W on the seed columns of a set S that generates W
    under the G_p, p in P (`lops.generating_set`; G is a representation and
    P generates g, so a subspace stable under the G_p is stable under all
    of G): W is built from products of the invariant G, so it is an
    invariant tensor and its kernel {w : W_abcd w = 0 for all (a, b, c, d)}
    is G-stable, hence all of W once it holds S.  For `lie` a violation on
    P is the failed premise "lie".  A failed premise, or a violation, reruns
    the kernel on every pair and safe column, so a refutation reports the
    first violation of the full comparison.  `details.generators` records
    the pair count (and for W the seed count) or the failed premise.
    """
    case, dim = lop.case, lop.dim
    cols = lop.space.safe_indices(budget * lop.entry_budget)
    if not cols:
        return _vacuous(name)
    pairs, generators = _generators(lop, g)
    bad = None
    if pairs is not None and w_tensor:
        seeds = generating_set(lop, [g[key] for key in pairs if key in g])
        generators["seeds"] = len(seeds)
        bad = block_violation(case, g, x, dim, seeds, w_tensor)
    elif pairs is not None and x is not g:  # X = G: the Lie premise decided it
        bad = block_violation(case, g, x, dim, cols, pairs=pairs)
    if pairs is None or bad is not None:
        bad = block_violation(case, g, x, dim, cols, w_tensor)
    details = {"safe_columns": len(cols), "generators": generators}
    if bad is None:
        return CheckReport(name, True, details=details)
    at, residual = bad
    return CheckReport(name, False, counterexample=(at, BiPoly({(0, 0): residual})),
                       details=details)


def check_lie(lop: LOperator, g: dict | None = None) -> CheckReport:
    """[G_ab, G_cd] equals the structure-constant combination, exactly.

    On a closed space with G symmetric (G + eps G^t = c eps_ab Id) the
    relation is decided on the 2m Chevalley pairs (a, b) alone, for all
    (c, d): the x on which it holds form a Lie subalgebra (proof at
    `_generators`), and the pairs generate g.
    """
    g = lop.g_mat if g is None else g
    return _block_check(lop, g, g, 2, "lie")


def check_adjoint(lop: LOperator, g: dict | None = None, h: dict | None = None) -> CheckReport:
    """[G_ab, H_cd] equals the adjoint-action combination of H.

    Decided on the Chevalley pairs once the premises of `_generators` hold
    (G symmetric and a representation).
    """
    g = lop.g_mat if g is None else g
    h = lop.h_mat if h is None else h
    return _block_check(lop, g, h, 3, "adjoint")


# ---------------------------------------------------------------------------
# the RLL relation


def _raised_coeffs(lop: LOperator) -> list:
    """Coefficients of L(u) with the first index raised, (C_k)^a_b =
    eps_a C_k[-a, b], as opmats keyed by the positions of (a, b)."""
    case = lop.case
    return [{(case.pos(-a), case.pos(b)): op if case.sign(a) == 1 else -op
             for (a, b), op in mat.items()} for mat in lop.coeffs]


def _certificate(lop: LOperator):
    """(seeds, record) of the covariance certificate for RLL.

    seeds is a generating set S of W (basis positions) when all three
    premises hold, else None; record names the seed count and the n^2 |S|
    seed columns, or the first premise that failed:

      closed      the space is untruncated (no trunc, no floor);
      scalar_top  the top coefficient is C_s = c eps_ab Id with c != 0, so
                  that G = C_(s-1) / c is the action;
      invariant   every nonzero C_k, k < s, is invariant under G:
                  `block_violation(G, C_k)` finds nothing on all columns
                  (the Lie relation for k = s-1, the adjoint one for H).

    The invariance premise is decided on the Chevalley pairs when the
    premises of `_generators` hold; they include the Lie relation, which is
    the invariance of C_(s-1) = c G, and S then generates W under the G_p,
    p in P, alone.  Otherwise every C_k, k < s, runs on every pair and S is
    grown under every G_ab.
    """
    case, space, dim = lop.case, lop.space, lop.dim
    if space.trunc is not None or space.floor is not None:
        return None, {"premise_failed": "closed"}
    ok, c, _ = opmat_scalar_on(case, lop.coeffs[-1], SparseOp.identity(dim))
    if not (ok and c):
        return None, {"premise_failed": "scalar_top"}
    g = opmat_scale(lop.g_mat, c.inv())
    pairs, _ = _generators(lop, g)
    for mat in lop.coeffs[:-2] if pairs else lop.coeffs[:-1]:
        if mat and block_violation(case, g, mat, dim, range(dim), pairs=pairs) is not None:
            return None, {"premise_failed": "invariant"}
    seeds = generating_set(lop, [g[key] for key in pairs if key in g] if pairs else list(g.values()))
    return seeds, {"seeds": len(seeds), "seed_columns": case.n ** 2 * len(seeds)}


def check_rll(lop: LOperator) -> CheckReport:
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v), coefficient-exact.

    The u^0 v^0 coefficient covers the H-H commutation relation of the
    quadratic evaluation automatically.

    On a closed space whose premises hold (see `_certificate`) the
    residual is compared on the columns V x V x S only, S a set that
    generates W under G; this decides it on all of V x V x W.  Proof: let
    rho(x_ab) be the action of the generator x_ab on V that the right side
    of the Lie relation applies to each index (the vector representation,
    which preserves the metric).  The invariance premise says that every
    coefficient of L commutes with rho(x_ab) + G_ab on V x W, and R(w), in
    span{I, P, K}, commutes with rho(x_ab) + rho(x_ab) on V x V.  So the
    residual Phi(u, v) = R12 L1 L2 - L2 L1 R12 commutes with
    D_ab = rho1(x_ab) + rho2(x_ab) + G_ab, and ker Phi is D-stable.  If
    V x V x w lies in ker Phi, then so does every

      m x G_ab w = D_ab (m x w) - (rho1 + rho2)(x_ab) m x w,

    and by induction on the word length so does V x V x (alg(G) S), which
    is V x V x W by the choice of S.  No further property of G is used.
    A residual on the seed columns reruns the engine on all the columns,
    so a refutation reports the first violation of the full comparison.

    `safe_columns` counts the W columns the verdict covers; the certificate
    record says how many were compared.
    """
    case, space = lop.case, lop.space
    safe_w = space.safe_indices(2 * lop.entry_budget)
    if not safe_w:
        return _vacuous("rll")
    ipk, coeffs, k = fundamental_ipk(case), _raised_coeffs(lop), k_form(case)
    seeds, certificate = _certificate(lop)
    residual, keys = identity_residual(ipk, coeffs, case.n, space.dim,
                                       safe_w if seeds is None else seeds, k)
    if residual and seeds is not None:
        residual, keys = identity_residual(ipk, coeffs, case.n, space.dim, safe_w, k)
    details = {"safe_columns": len(safe_w), "keys_compared": keys, "certificate": certificate}
    if not residual:
        return CheckReport("rll", True, details=details)
    (row, col), res = first_violation(residual)
    where = (describe_flat(case, space.labels, row, space.dim),
             describe_flat(case, space.labels, col, space.dim))
    return CheckReport("rll", False, counterexample=(where, res), details=details)


def check_gl2_rll(coeffs, dim, safe_cols=None, name="gl2_rll") -> CheckReport:
    """RLL with Yang's R(u) = u I + P for a gl(2) operator polynomial.

    `coeffs` lists, per power of u, maps {(alpha, beta): SparseOp} with
    alpha, beta in {1, 2}.  Used as the oracle for oscillator chains and
    for the gl(2) subalgebras embedded in the orthogonal/symplectic case.
    """
    safe_cols = list(range(dim)) if safe_cols is None else sorted(safe_cols)
    if not safe_cols:
        return _vacuous(name)
    blocks = [{(alpha - 1, beta - 1): op for (alpha, beta), op in mat.items()} for mat in coeffs]
    residual, keys = identity_residual(YANG_GL2_IPK, blocks, 2, dim, safe_cols)
    details = {"safe_columns": len(safe_cols), "keys_compared": keys}
    if residual:
        key = min(residual)
        entry = min(residual[key])
        return CheckReport(name, False, details=details,
                           counterexample=((key,) + entry, BiPoly({key: residual[key][entry]})))
    return CheckReport(name, True, details=details)


# ---------------------------------------------------------------------------
# truncation constraints of the quadratic and linear evaluations


def check_symmetric_constraints(lop: LOperator, span=None) -> CheckReport:
    """The four scalar constraints tying G, H and the center together.

      G + eps G^t                                    = c21 I
      H + eps H^t + eps G^t G - beta G               = c23 I
      eps H^t G + eps G^t H - beta (H - eps H^t)     = c26 I
      eps (H - beta G)^t H + beta^2 H                = c28 I

    (written here on lowered matrices, the transposed contractions being
    the tt-product).  Fails if any left side is not a scalar multiple of
    the identity pattern.

    The four values are central elements; on a reducible module they act
    blockwise, so `span` may supply a basis of an invariant submodule
    (typically the cyclic module of the highest weight vector) on which
    genuine scalars are asserted.  c21 and c23 are scalar on any module.
    """
    case = lop.case
    b = lop.entry_budget
    basis, details = _module_basis(lop, 2 * b, span)
    if not basis.ncols:
        return _vacuous("symmetric_constraints", details)
    g, h = lop.g_mat, lop.h_mat
    eps = Scalar.of(case.eps)
    beta = case.beta
    gt = opmat_transpose(g)
    ht = opmat_transpose(h)

    lhs1 = opmat_add(g, opmat_scale(gt, eps))
    lhs2 = opmat_add(opmat_add(h, opmat_scale(ht, eps)),
                     opmat_sub(opmat_mul_tt(case, g, g), opmat_scale(g, beta)))
    lhs3 = opmat_add(opmat_add(opmat_mul_tt(case, h, g), opmat_mul_tt(case, g, h)),
                     opmat_scale(opmat_sub(h, opmat_scale(ht, eps)), -beta))
    lhs4 = opmat_add(opmat_sub(opmat_mul_tt(case, h, h),
                               opmat_scale(opmat_mul_tt(case, g, h), beta)),
                     opmat_scale(h, beta * beta))

    names = ("c21", "c23", "c26", "c28")
    # c21 is linear in L, so it is compared on the wider budget-b columns
    bases = (_module_basis(lop, b, span)[0], basis, basis, basis)
    scalars = {}
    for name, mat, on in zip(names, (lhs1, lhs2, lhs3, lhs4), bases):
        ok, value, bad = opmat_scalar_on(case, mat, on)
        if not ok:
            key, val = bad
            return CheckReport("symmetric_constraints", False, scalars=scalars, details=details,
                               counterexample=((name,) + key, BiPoly({(0, 0): val})))
        scalars[name] = value
    return CheckReport("symmetric_constraints", True, scalars=scalars, details=details)


def check_linear_constraint(lop: LOperator, g: dict | None = None) -> CheckReport:
    """G^2 + beta G = c2 I with n c2 = tr G^2 (lowered product)."""
    case, dim = lop.case, lop.dim
    g = lop.g_mat if g is None else g
    basis, details = _module_basis(lop, 2 * lop.entry_budget)
    if not basis.ncols:
        return _vacuous("linear_constraint", details)
    gg = opmat_mul(case, g, g)
    lhs = opmat_add(gg, opmat_scale(g, case.beta))
    ok, value, bad = opmat_scalar_on(case, lhs, basis)
    if not ok:
        key, val = bad
        return CheckReport("linear_constraint", False, details=details,
                           counterexample=(key, BiPoly({(0, 0): val})))
    # cross-check the trace formula n c2 = tr G^2
    tr_check = (_trace(case, gg, dim) - SparseOp.identity(dim, value * case.n)) @ basis
    if tr_check.data:
        return CheckReport("linear_constraint", False, scalars={"c2": value}, details=details,
                           counterexample=(("trace",),
                                           BiPoly({(0, 0): tr_check.data[min(tr_check.data)]})))
    return CheckReport("linear_constraint", True, scalars={"c2": value}, details=details)


# ---------------------------------------------------------------------------
# W-tensor and the cubic characteristic identity


def check_w_tensor(lop: LOperator, g: dict | None = None) -> CheckReport:
    """Six-term symmetrized product W_{ab,cd} vanishes for all indices."""
    g = lop.g_mat if g is None else g
    return _block_check(lop, g, g, 2, "w_tensor", w_tensor=True)


def _trace(case: CaseDescriptor, mat: dict, dim: int) -> SparseOp:
    """tr M = sum_a eps_{-a} M_{-a,a} of a lowered opmat, as an operator."""
    out = SparseOp.zeros(dim, dim)
    for a in case.indices:
        op = mat.get((-a, a))
        if op is not None:
            out = out + op.scale(Scalar.of(case.sign(-a)))
    return out


def check_chi3(lop: LOperator, g: dict | None = None) -> CheckReport:
    """G^3 + (eps+2beta) G^2 + (2 eps beta - eps s) G - s = 0, s = tr G^2 / 2.

    s is inserted as the (central) operator it is, so the identity is
    exact on the whole safe subspace, not just on highest weight
    vectors; the half-trace normalization is the one that the bilinear
    construction actually satisfies (verified by exact fit).
    """
    case, dim = lop.case, lop.dim
    g = lop.g_mat if g is None else g
    basis, details = _module_basis(lop, 3 * lop.entry_budget)
    if not basis.ncols:
        return _vacuous("chi3", details)
    eps = Scalar.of(case.eps)
    beta = case.beta
    gg = opmat_mul(case, g, g)
    ggg = opmat_mul(case, gg, g)
    sigma = _trace(case, gg, dim).scale(Scalar(1, 0, 2))
    chi = opmat_add(ggg, opmat_scale(gg, eps + beta + beta))
    chi = opmat_add(chi, opmat_scale(g, eps * beta * Scalar(2)))
    chi = opmat_sub(chi, {key: (sigma @ op).scale(eps) for key, op in g.items()})
    sigma_metric = {}
    for a in case.indices:
        sigma_metric[(a, -a)] = sigma.scale(case.metric_lower(a, -a))
    chi = opmat_sub(chi, sigma_metric)
    ok, _, bad = opmat_scalar_on(case, chi, basis, ZERO)
    if not ok:
        key, val = bad
        return CheckReport("chi3", False, details=details,
                           counterexample=(key, BiPoly({(0, 0): val})))
    return CheckReport("chi3", True, details=details)


# ---------------------------------------------------------------------------
# the center generating function


def center_function(lop: LOperator, span=None):
    """C_ab(u) = sum_d eps_d L_da(u - beta) L_{-d,b}(u) = c(u) eps_ab.

    Returns (c, report).  The report asserts that every coefficient of
    C(u) is a scalar multiple of the metric and that C(u) commutes with
    L(v) (checked symbolically, before scalarity is used anywhere).

    The coefficients of c(u) are central elements; like the constraint
    scalars they are genuine numbers only on an irreducible module, so
    `span` may restrict the scalarity assertion to an invariant
    submodule.  The commutation check always runs on the whole safe
    subspace.
    """
    case = lop.case
    b = lop.entry_budget
    comm_basis, _ = _module_basis(lop, 3 * b)
    basis, details = _module_basis(lop, 2 * b, span)
    details = {"commutator_columns": comm_basis.ncols, **details}
    if not (comm_basis.ncols and basis.ncols):
        return UniPoly(), _vacuous("center", details)
    shifted = opmat_poly_subs(lop.coeffs, ONE, -case.beta)
    c_poly = opmat_poly_mul(shifted, lop.coeffs, lambda x, y: opmat_mul_tt(case, x, y))

    for k1, cm in enumerate(c_poly):
        for k2, lm in enumerate(lop.coeffs):
            comm = opmat_sub(opmat_mul(case, cm, lm), opmat_mul(case, lm, cm))
            ok, _, bad = opmat_scalar_on(case, comm, comm_basis, ZERO)
            if not ok:
                key, val = bad
                return UniPoly(), CheckReport(
                    "center", False, details=details,
                    counterexample=(("commutator", k1, k2) + key,
                                    BiPoly({(0, 0): val})))

    values = []
    for k, cm in enumerate(c_poly):
        ok, value, bad = opmat_scalar_on(case, cm, basis)
        if not ok:
            key, val = bad
            return UniPoly(), CheckReport("center", False, details=details,
                                          counterexample=(("coeff", k) + key,
                                                          BiPoly({(0, 0): val})))
        values.append(value)
    c = UniPoly(values)
    return c, CheckReport("center", True, scalars={"c(u)": c}, details=details)


def center_decomposition(case: CaseDescriptor, c: UniPoly, scalars: dict) -> bool:
    """c(u) = u^2(u-b)^2 + u^2(u-b) c21 + u(u-b) c23 + u c26 + c28 exactly."""
    u = UniPoly.u()
    shifted = u - case.beta
    expected = (u * u * shifted * shifted
                + u * u * shifted * scalars["c21"]
                + u * shifted * scalars["c23"]
                + u * scalars["c26"]
                + UniPoly.const(scalars["c28"]))
    return expected == c
