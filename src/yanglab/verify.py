"""Exact symbolic verification of the L-operator algebra identities.

Every check expands its identity coefficient-by-coefficient in the
spectral parameters and compares operators entry by entry; there is no
sampling and no tolerance.  On truncated spaces a check compares only on
the safe subspace for its composition budget (see spaces module); a
check whose safe subspace is empty compared nothing and fails.

Reports are deterministic: index tuples are scanned in sorted order and
the first violation is recorded together with its residual polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import ONE, ZERO, BiPoly, Scalar, SparseOp, UniPoly
from .lops import (
    LOperator,
    cyclic_span,
    metric_opmat,
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
    describe_flat,
    first_violation,
    fundamental_ipk,
    identity_residual,
    k_form,
    slot_operator,
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


def _zero(dim):
    return SparseOp.zeros(dim, dim)


def _first_opmat_violation(mat: dict, cols):
    best = None
    for key in sorted(mat):
        entry = mat[key].first_entry_on_cols(cols)
        if entry is not None:
            val = mat[key].data[entry]
            cand = (key, entry, val)
            if best is None or (cand[0], cand[1]) < (best[0], best[1]):
                best = cand
    return best


def opmat_is_scalar(case: CaseDescriptor, mat: dict, dim: int, cols):
    """Decide mat == c * eps_ab * Id on the given columns; return (ok, c, bad)."""
    candidate = ZERO
    for a in sorted(case.indices):
        op = mat.get((a, -a))
        if op is None:
            continue
        for j in cols:
            val = op.data.get((j, j))
            if val is not None:
                candidate = val * case.metric_lower(a, -a).inv()
                break
        else:
            continue
        break
    diff = opmat_sub(mat, metric_opmat(case, dim, candidate))
    bad = _first_opmat_violation(diff, cols)
    return bad is None, candidate, bad


def opmat_is_scalar_on_span(case: CaseDescriptor, mat: dict, vectors):
    """Decide mat == c * eps_ab * Id on an invariant span of vectors."""
    candidate = None
    for a in sorted(case.indices):
        op = mat.get((a, -a))
        if op is None:
            continue
        sign_inv = case.metric_lower(a, -a).inv()
        for vec in vectors:
            out = op.apply(vec)
            if out:
                anchor = next(iter(vec))
                av = vec.get(anchor, ZERO)
                if av.is_zero:
                    continue
                candidate = out.get(anchor, ZERO) * av.inv() * sign_inv
                break
        if candidate is not None:
            break
    if candidate is None:
        candidate = ZERO
    for key in sorted(mat):
        a, b = key
        op = mat[key]
        want = candidate * case.metric_lower(a, b)
        for k, vec in enumerate(vectors):
            out = op.apply(vec)
            expect = {} if want.is_zero else {
                j: v * want for j, v in vec.items() if not (v * want).is_zero}
            if out != expect:
                diff_keys = set(out) | set(expect)
                j0 = min(diff_keys)
                residual = out.get(j0, ZERO) - expect.get(j0, ZERO)
                return False, candidate, (key, ("span_vector", k, j0), residual)
    return True, candidate, None


def _vacuous(name: str) -> CheckReport:
    """A check whose safe subspace is empty compared nothing: it fails."""
    return CheckReport(name, False, counterexample=(("safe_columns", 0), "no columns compared"),
                       details={"safe_columns": 0})


# ---------------------------------------------------------------------------
# Lie-algebra and adjoint relations


def _relation_rhs(case, mat, a, b, c, d, dim):
    """-eps_cb M_ad + eps_ad M_cb + eps_ac M_bd - eps_db M_ca."""
    out = _zero(dim)
    for sign, (r, s) in (
        (-case.metric_lower(c, b), (a, d)),
        (case.metric_lower(a, d), (c, b)),
        (case.metric_lower(a, c), (b, d)),
        (-case.metric_lower(d, b), (c, a)),
    ):
        if not sign.is_zero:
            op = mat.get((r, s))
            if op is not None:
                out = out + op.scale(sign)
    return out


def _products(left: dict, right: dict, dim: int):
    """Memoised entry products (key1, key2) -> left[key1] @ right[key2]."""
    cache: dict = {}

    def prod(key1, key2):
        got = cache.get((key1, key2))
        if got is None:
            op1, op2 = left.get(key1), right.get(key2)
            got = _zero(dim) if (op1 is None or op2 is None) else op1 @ op2
            cache[(key1, key2)] = got
        return got

    return prod


def _pairwise_check(case, g, target, dim, cols, name):
    """[G_ab, X_cd] = adjoint combination of X, for all index tuples."""
    idx = sorted(case.indices)
    prod, prod_t = _products(g, target, dim), _products(target, g, dim)
    for a in idx:
        for b in idx:
            for c in idx:
                for d in idx:
                    lhs = prod((a, b), (c, d)) - prod_t((c, d), (a, b))
                    rhs = _relation_rhs(case, target, a, b, c, d, dim)
                    diff = lhs - rhs
                    entry = diff.first_entry_on_cols(cols)
                    if entry is not None:
                        residual = BiPoly({(0, 0): diff.data[entry]})
                        return CheckReport(name, False,
                                           counterexample=((a, b, c, d), residual))
    return CheckReport(name, True)


def check_lie(lop: LOperator, g: dict | None = None) -> CheckReport:
    """[G_ab, G_cd] equals the structure-constant combination, exactly."""
    g = lop.g_mat if g is None else g
    cols = lop.space.safe_indices(2 * lop.entry_budget)
    if not cols:
        return _vacuous("lie")
    report = _pairwise_check(lop.case, g, g, lop.dim, cols, "lie")
    report.details["safe_columns"] = len(cols)
    return report


def check_adjoint(lop: LOperator, g: dict | None = None, h: dict | None = None) -> CheckReport:
    """[G_ab, H_cd] equals the adjoint-action combination of H."""
    g = lop.g_mat if g is None else g
    h = lop.h_mat if h is None else h
    cols = lop.space.safe_indices(3 * lop.entry_budget)
    if not cols:
        return _vacuous("adjoint")
    report = _pairwise_check(lop.case, g, h, lop.dim, cols, "adjoint")
    report.details["safe_columns"] = len(cols)
    return report


# ---------------------------------------------------------------------------
# the RLL relation


def _slot_coeffs(lop: LOperator, slot: int) -> list:
    """Coefficients of L(u) with the first index raised, (C_k)^a_b =
    eps_a C_k[-a, b], embedded in slot 1 or 2 of (V x V) x W."""
    case = lop.case
    pos = {a: case.pos(a) for a in case.indices}
    out = []
    for mat in lop.coeffs:
        entries = ((pos[-a], pos[b], i, j, v if case.sign(a) == 1 else -v)
                   for (a, b), op in mat.items() for (i, j), v in op.data.items())
        out.append(slot_operator(case.n, entries, lop.dim, slot))
    return out


def check_rll(lop: LOperator) -> CheckReport:
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v), coefficient-exact.

    The u^0 v^0 coefficient covers the H-H commutation relation of the
    quadratic evaluation automatically.
    """
    case, space = lop.case, lop.space
    dim_w = space.dim
    safe_w = space.safe_indices(2 * lop.entry_budget)
    if not safe_w:
        return _vacuous("rll")
    col_keep = [pair * dim_w + w for pair in range(case.n ** 2) for w in safe_w]
    c1, c2 = _slot_coeffs(lop, 1), _slot_coeffs(lop, 2)
    residual, keys = identity_residual(fundamental_ipk(case), c1, c2, col_keep,
                                       case.n, k_form(case))
    details = {"safe_columns": len(safe_w), "keys_compared": keys}
    if not residual:
        return CheckReport("rll", True, details=details)
    (row, col), res = first_violation(residual)
    where = (describe_flat(case, space.labels, row, dim_w),
             describe_flat(case, space.labels, col, dim_w))
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
    keep = [pair * dim + w for pair in range(4) for w in safe_cols]

    def slot(mat, which):
        entries = ((alpha - 1, beta - 1, i, j, v)
                   for (alpha, beta), op in mat.items() for (i, j), v in op.data.items())
        return slot_operator(2, entries, dim, which)

    residual, keys = identity_residual(YANG_GL2_IPK, [slot(m, 1) for m in coeffs],
                                       [slot(m, 2) for m in coeffs], keep, 2)
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
    case, dim = lop.case, lop.dim
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

    b = lop.entry_budget
    names = ("c21", "c23", "c26", "c28")
    budgets = (b, 2 * b, 2 * b, 2 * b)
    scalars = {}
    for name, mat, budget in zip(names, (lhs1, lhs2, lhs3, lhs4), budgets):
        if span is not None:
            ok, value, bad = opmat_is_scalar_on_span(case, mat, span)
        else:
            cols = lop.space.safe_indices(budget)
            ok, value, bad = opmat_is_scalar(case, mat, dim, cols)
        if not ok:
            key, entry, val = bad
            return CheckReport("symmetric_constraints", False, scalars=scalars,
                               counterexample=((name,) + key, BiPoly({(0, 0): val})))
        scalars[name] = value
    details = {} if span is None else {"span_dimension": len(span)}
    return CheckReport("symmetric_constraints", True, scalars=scalars, details=details)


def check_linear_constraint(lop: LOperator, g: dict | None = None) -> CheckReport:
    """G^2 + beta G = c2 I with n c2 = tr G^2 (lowered product)."""
    case, dim = lop.case, lop.dim
    g = lop.g_mat if g is None else g
    gg = opmat_mul(case, g, g)
    lhs = opmat_add(gg, opmat_scale(g, case.beta))
    cols = lop.space.safe_indices(2 * lop.entry_budget)
    ok, value, bad = opmat_is_scalar(case, lhs, dim, cols)
    if not ok:
        key, entry, val = bad
        return CheckReport("linear_constraint", False,
                           counterexample=(key, BiPoly({(0, 0): val})))
    # cross-check the trace formula n c2 = tr G^2
    tr_check = _trace(case, gg, dim) - SparseOp.identity(dim, value * case.n)
    if not tr_check.is_zero_on_cols(cols):
        entry = tr_check.first_entry_on_cols(cols)
        return CheckReport("linear_constraint", False, scalars={"c2": value},
                           counterexample=(("trace",), BiPoly({(0, 0): tr_check.data[entry]})))
    return CheckReport("linear_constraint", True, scalars={"c2": value})


# ---------------------------------------------------------------------------
# W-tensor and the cubic characteristic identity


def check_w_tensor(lop: LOperator, g: dict | None = None) -> CheckReport:
    """Six-term symmetrized product W_{ab,cd} vanishes for all indices."""
    case, dim = lop.case, lop.dim
    g = lop.g_mat if g is None else g
    cols = lop.space.safe_indices(2 * lop.entry_budget)
    idx = sorted(case.indices)
    prod = _products(g, g, dim)
    for a in idx:
        for b in idx:
            for c in idx:
                for d in idx:
                    w = (prod((a, b), (c, d)) + prod((a, c), (d, b))
                         + prod((a, d), (b, c)) + prod((c, d), (a, b))
                         + prod((d, b), (a, c)) + prod((b, c), (a, d)))
                    entry = w.first_entry_on_cols(cols)
                    if entry is not None:
                        return CheckReport("w_tensor", False,
                                           counterexample=((a, b, c, d),
                                                           BiPoly({(0, 0): w.data[entry]})))
    return CheckReport("w_tensor", True)


def _trace(case: CaseDescriptor, mat: dict, dim: int) -> SparseOp:
    """tr M = sum_a eps_{-a} M_{-a,a} of a lowered opmat, as an operator."""
    out = _zero(dim)
    for a in case.indices:
        op = mat.get((-a, a))
        if op is not None:
            out = out + op.scale(Scalar.of(case.sign(-a)))
    return out


def casimir_operator(lop: LOperator, g: dict | None = None) -> SparseOp:
    """tr G^2 as an operator on the representation space."""
    g = lop.g_mat if g is None else g
    return _trace(lop.case, opmat_mul(lop.case, g, g), lop.dim)


def check_chi3(lop: LOperator, g: dict | None = None) -> CheckReport:
    """G^3 + (eps+2beta) G^2 + (2 eps beta - eps s) G - s = 0, s = tr G^2 / 2.

    s is inserted as the (central) operator it is, so the identity is
    exact on the whole safe subspace, not just on highest weight
    vectors; the half-trace normalization is the one that the bilinear
    construction actually satisfies (verified by exact fit).
    """
    case, dim = lop.case, lop.dim
    g = lop.g_mat if g is None else g
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
    cols = lop.space.safe_indices(3 * lop.entry_budget)
    bad = _first_opmat_violation(chi, cols)
    if bad is not None:
        key, entry, val = bad
        return CheckReport("chi3", False, counterexample=(key, BiPoly({(0, 0): val})))
    return CheckReport("chi3", True)


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
    case, dim = lop.case, lop.dim
    shifted = opmat_poly_subs(lop.coeffs, ONE, -case.beta)
    c_poly = opmat_poly_mul(shifted, lop.coeffs, lambda x, y: opmat_mul_tt(case, x, y))

    b = lop.entry_budget
    comm_cols = lop.space.safe_indices(3 * b)
    for k1, cm in enumerate(c_poly):
        for k2, lm in enumerate(lop.coeffs):
            comm = opmat_sub(opmat_mul(case, cm, lm), opmat_mul(case, lm, cm))
            bad = _first_opmat_violation(comm, comm_cols)
            if bad is not None:
                key, entry, val = bad
                return UniPoly(), CheckReport(
                    "center", False,
                    counterexample=(("commutator", k1, k2) + key,
                                    BiPoly({(0, 0): val})))

    cols = lop.space.safe_indices(2 * b)
    values = []
    for k, cm in enumerate(c_poly):
        if span is not None:
            ok, value, bad = opmat_is_scalar_on_span(case, cm, span)
        else:
            ok, value, bad = opmat_is_scalar(case, cm, dim, cols)
        if not ok:
            key, entry, val = bad
            return UniPoly(), CheckReport("center", False,
                                          counterexample=(("coeff", k) + key,
                                                          BiPoly({(0, 0): val})))
        values.append(value)
    c = UniPoly(values)
    return c, CheckReport("center", True, scalars={"c(u)": c})


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
