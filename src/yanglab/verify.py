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
first-slot row a, two scatters (`exact.scatter`) of the row's G_ab with
every X_cd give G_ab X_cd and X_cd G_ab for all b and (c, d) at once, on
the record's int blocks.  The commutator's right side is blocks of X
placed by their indices, and W sums three anticommutator blocks.  No check
forms a `SparseOp` product: every product runs on that one kernel.

Every check reads the operator through one record (`Premises`), built
once per operator, the one place where L is cleared to ints.  It decides
whether the top coefficient is C_s = c eps_ab Id with c != 0 and holds the
int blocks of L / c over one den, whose top is eps_ab Id and whose G is the
action; every check decides on them and takes G, H and the coefficients
from the record, never from its caller, and no kernel clears them.  RLL and
the center are homogeneous in L, so only their residuals and c(u) see the
scaling; the Lie and adjoint relations, W, chi3 and the constraints are
not, and are the relations of the normalised L.

On a closed space these relations are decided on a presentation of g
(`_generators`): G symmetric, G + eps G^t = c eps_ab Id, and, with diagonal
Cartan blocks, a weight test and about dim g + O(m^2) relations on the 2m
Chevalley pairs; X invariant by the weight test and one pair of each
Chevalley partner pair (the sl(2) lemma); otherwise both on the 2m pairs.
W is compared on the columns of a set that generates W under G.  A failed
premise, or a violation there, reruns the kernel on every pair and safe
column, so verdicts and counterexamples are those of the full comparison.

RLL on a closed space is decided by a covariance certificate, whose
premises are those of the record: G symmetric and a representation, the
top coefficient scalar and every lower coefficient invariant under G, all
decided as above.  R lies in span{I, P, K}, so the residual
then commutes with the diagonal action on (V x V) x W and vanishes once it
vanishes on supp(l_k) x S_H, the l_k the extremal vectors of V x V for a
Chevalley half H (n + 3 of the n^2 pairs for most g) and S_H generating W
under G on H (proof at `check_rll`).  A residual there is located by row
block; a failed premise sends the engine to all the safe columns.

The central checks (the linear constraint, the four constraint scalars,
chi3 and the center) apply each left side right to left to the columns
of one basis SparseOp, and decide M_ab = c eps_ab Id on the images
through one routine (`scalar_images`; c is read off the first diagonal
key, or is 0 for chi3 and the center commutator), so G o G, G^t o H
and C(u) are never formed as operators.  Every such product reads its
left factor through a column form (`lops.ColumnForm`) that `Premises`
builds from its ints and keeps (the center builds those of its shifted
coefficients, summed from the same ints, once per call, and chi3 that of
its Casimir partner of G), so it
touches only the columns its thin right operand uses.  On a closed
space whose premises hold (G symmetric and a representation and, where
the check needs them, H invariant and the top coefficient scalar), every
left side is a covariant family, so the kernel of
M_ab - c eps_ab Id is G-stable and the check is decided on the columns
of a set S that generates the module under the Chevalley blocks G_p
(proof at `check_symmetric_constraints`): the unit vectors of
`lops.generating_set`, or, given an invariant `span`, a subset of its
vectors whose G_p-closure is the span.  A failed premise, or a violation
on S, reruns the check on every safe column (or span vector), so
verdicts, scalars and counterexamples are those of the full comparison.
`Premises` decides each premise once per record; `cli.run_checks` shares
one record between the checks of a run, and its `span_of` gives the
constraints and the center no span when the hw vector alone generates W
(`Premises.generated_by`), its cyclic module being W itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .exact import ONE, ZERO, BiPoly, Scalar, SparseOp, UniPoly, clear_opmats
from .lops import (
    ColumnForm,
    LOperator,
    column_form,
    cyclic_span,
    generating_set,
    opmat_acc,
    opmat_add,
    opmat_apply,
    opmat_contract,
    opmat_mul,
    opmat_mul_tt,
    opmat_poly_subs_forms,
    opmat_scale,
    opmat_sub,
    opmat_transpose,
)
from .structure import (
    YANG_GL2_IPK,
    CaseDescriptor,
    IdentityForm,
    block_violation,
    cartan_grading,
    chevalley_pairs,
    describe_flat,
    extremal_pairs,
    first_violation,
    fundamental_ipk,
    graded,
    identity_residual,
    k_form,
    locate_violation,
    metric_multiple,
    presentation,
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
        return SparseOp.from_columns(lop.dim, span), {"span_dimension": len(span)}
    cols = lop.space.safe_indices(budget)
    return SparseOp.from_columns(lop.dim, ({j: ONE} for j in cols)), {"safe_columns": len(cols)}


def scalar_images(case: CaseDescriptor, images: dict, basis: SparseOp, value=None):
    """Decide M == value * eps_ab * Id on the columns of `basis`, given the
    images {key: M_ab @ basis} (a missing key is a zero image).

    Each image is compared with value * eps_ab * basis.  A value of None is
    read off the first diagonal key (a, -a) in sorted order, at the first
    basis column whose image is nonzero at that column's leading row.
    Returns (ok, value, bad); bad = (key, residual) at the first differing
    entry (row, column) of the first key in sorted order.
    """
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


def _generators(premises: Premises):
    """(P, record): the Chevalley pairs P when the relations of G may be
    decided on them, else None; record is {"pairs": |P|} or names the first
    premise that failed.  Each premise is decided exactly, in this order:

      closed     the space is untruncated (no trunc);
      symmetric  G + eps G^t = c eps_ab Id on the int-cleared blocks
                 (`structure.metric_multiple`), so G_ab = G(x_ab) +
                 c/2 eps_ab Id for a linear map G on g, x_ab = -eps x_ba,
                 plus a central scalar that no relation sees;
      lie        G is a representation: with diagonal Cartan blocks
                 G_(i,-i), the weight test (`structure.graded`) and the
                 relations of `structure.presentation`; else the relation
                 on P for every (c, d).

    Symmetry.  Both sides of the relation at (a, b, c, d) are G of
    [x_ab, x_cd] (the central parts cancel: eps_ba = eps eps_ab), so the
    relation at (a, b, d, c) is -eps times the one at (a, b, c, d) and the
    one at (c, d, a, b) minus it: one key per basis element x_cd suffices,
    and a relation of two pairs is compared once.

    Generator lemma (Humphreys, Introduction to Lie Algebras and
    Representation Theory, sec. 18).  The x with [G(x), G(y)] = G([x, y])
    for all y form a subalgebra, by Jacobi: [G([x, x']), G(y)] =
    [G(x), G([x', y])] - [G(x'), G([x, y])] = G([[x, x'], y]).  Once G is a
    representation, so do the x with D(x) X = 0, D(x) = ad G(x) + rho(x)
    the action on the tensors X_cd (rho(x) on the index pair (c, d), as
    the relation's right side applies it).

    Weight test.  [x_(i,-i), x_cd] = -lambda_i(c, d) x_cd, lambda_i(c, d) =
    [c=i] - [c=-i] + [d=i] - [d=-i], the right side's coefficient at
    (a, b) = (i, -i).  With G_(i,-i) = diag(mu) the relation there is the
    entry test mu_r - mu_s = -lambda(c, d) on each nonzero X_cd[r, s], no
    product.  The x_(i,-i) span the Cartan subalgebra t.

    Serre presentation (Humphreys, sec. 18.3).  Let e_i, f_i be the pairs
    P[0::2], P[1::2], h_i = [e_i, f_i] (for n >= 3, g is semisimple and the
    h_i span t) and a_ij = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i) for
    their simple roots.  Up to a scaling of the generators, g is presented
    by [h_i, h_j] = 0, [e_i, f_j] = delta_ij h_i, [h_i, e_j] = a_ij e_j,
    [h_i, f_j] = -a_ij f_j and ad(e_i)^(1-a_ij) e_j = 0 =
    ad(f_i)^(1-a_ij) f_j for i != j.  For E_i = G(e_i), F_i = G(f_i):
    the relations (e_i, f_j) give [E_i, F_j] = G([e_i, f_j]), so
    H_i = [E_i, F_i] = G(h_i); the weight test gives [G(h), G(y)] =
    G([h, y]) for h in t, hence the relations of the H_i; along
    z_0 = x_j, z_(t+1) = [x_i, z_t] = k_t y_(t+1) (x_i, x_j both e or
    both f) the relations (x_i, y_t) give ad(G(x_i))^t G(x_j) = G(z_t),
    which is 0 at t = 1 - a_ij.  So there is a representation phi of g
    with phi(e_i) = E_i, phi(f_i) = F_i; phi(h_i) = G(h_i), so phi = G on
    t, and every other root vector y has a chain relation [G(p), G(y')] =
    G([p, y']) = k G(y), k != 0, y' of lower height, so phi(y) = G(y) by
    induction on the height: G = phi.  so(2) is abelian and g = t: the
    weight test is all of it.

    sl(2) lemma (Humphreys, sec. 7.2).  Given lie, if D(h_i) X = 0 and
    D(e_i) X = 0, X is a maximal vector of weight 0 for the sl(2) spanned
    by e_i, h_i, f_i, so D(f_i) X = 0 (f^(w+1) kills a maximal vector of
    weight w); (f_i, -h_i, e_i) is a triple too, so either pair of a
    partner pair serves.  So X is invariant once the weight test holds on
    X and `block_violation(G, X, pairs=P[0::2])` finds nothing
    (`_invariant`); with a Cartan block that is not diagonal, on all of P.
    """
    case, g, den, grading = premises.lop.case, premises.g, premises.den, premises.grading
    if premises.lop.space.trunc is not None:
        return None, {"premise_failed": "closed"}
    if metric_multiple(case, g, den, case.eps) is None:
        return None, {"premise_failed": "symmetric"}
    pairs = chevalley_pairs(case)
    if grading is None:
        relations = pairs
    elif not graded(grading, g):
        return None, {"premise_failed": "lie"}
    else:
        relations = presentation(case)
    if block_violation(case, g, g, den, range(premises.lop.dim), pairs=relations) is not None:
        return None, {"premise_failed": "lie"}
    return pairs, {"pairs": len(pairs)}


def _invariant(premises: Premises, pairs: list) -> bool:
    """Every nonzero coefficient below G is invariant under G, given the
    premises of `_generators` on the pairs P: by the weight test and the
    relation on P[0::2] when the Cartan blocks are diagonal, else by the
    relation on P (proof at `_generators`)."""
    case, g, den = premises.lop.case, premises.g, premises.den
    lower = [mat for mat in premises.ints[:-2] if mat]
    if premises.grading is not None:
        if not all(graded(premises.grading, mat) for mat in lower):
            return False
        pairs = pairs[0::2]
    return all(block_violation(case, g, mat, den, range(premises.lop.dim), pairs=pairs) is None
               for mat in lower)


class Premises:
    """The one reader of an operator: its normalisation, its one int form and
    the premises of the generator and covariance lemmas, each decided once.

    When built, the record clears every coefficient of L to ints once, with
    one lcm (`exact.clear_opmats`), decides on the int top whether it is
    C_s = c eps_ab Id with c != 0 (`structure.metric_multiple`; `c` is that
    scalar, or None) and folds 1/c into the ints and their den.  So
    `ints[k]` / `den` is coefficient k of L / c (of L when c is None), `g`
    its int G and `grading` the Cartan grading of G.  Every premise,
    identity and central check decides on these ints; no kernel clears L
    again.  The generating sets read L's own G_p (`ops`): a span does not
    see a scale.  The premises are decided when a check first needs them:

      generators  `_generators`: closed, symmetric, lie; the pairs P;
      invariant   every coefficient below G (H for a quadratic evaluation)
                  is invariant under G (`_invariant`: the weight test and
                  `block_violation` on P[0::2], or on P);
      seeds       a set that generates W under the G_p, p in P, by
                  `lops.generating_set`; asked only once P is decided;
      half_seeds  the same under the G_x, x in the half H = P[0::2].

    It also keeps the column forms (`lops.ColumnForm`) of the coefficients,
    built from the ints on first use: the `o` form of each and the `*tt` form
    of G and H, through which the central checks of a run form their products.

    `cli.run_checks` shares one record between the checks of a run; a check
    called without one builds its own.  It lives beside the operator `lop`,
    not on it, since an operator may be reused after it is changed.
    """

    def __init__(self, lop: LOperator):
        self.lop = lop
        ints, den = clear_opmats(lop.coeffs)
        self.c = c = metric_multiple(lop.case, ints[-1], den) or None
        if c is not None and c != ONE:  # L / c = ints sign(c) c.r / (den |c.p|)
            scale, den = (c.r if c.p > 0 else -c.r), den * abs(c.p)
            for op in (op for mat in ints for op in mat.values()):
                op.data = {e: v * scale for e, v in op.data.items()}
        self.ints, self.den = ints, den
        self.g = ints[-2] if len(ints) > 1 else {}
        self.grading = cartan_grading(lop.case, self.g, den)
        self._memo: dict = {}

    def _once(self, name, decide):
        if name not in self._memo:
            self._memo[name] = decide()
        return self._memo[name]

    def generators(self):
        """(P, record) of `_generators`; the record is a fresh dict."""
        pairs, record = self._once("generators", lambda: _generators(self))
        return pairs, dict(record)

    def invariant(self) -> bool:
        """Every nonzero coefficient below G is invariant under G
        (`_invariant`); False when the pairs premise failed."""
        pairs = self.generators()[0]
        return pairs is not None and self._once("invariant", lambda: _invariant(self, pairs))

    def ops(self, start: int = 0, step: int = 1) -> list:
        """The operator's own G_p, p in P[start::step] (H = P[0::2] is a
        Chevalley half); the pairs premise must hold."""
        g = self.lop.g_mat
        return [g[key] for key in self.generators()[0][start::step] if key in g]

    def seeds(self) -> list:
        """Basis positions of a set that generates W under `ops`."""
        return self._once("seeds", lambda: generating_set(self.lop, self.ops()))

    def half_seeds(self) -> list:
        """Basis positions of a set S_H that generates W under the G_x, x in
        H, tried from the vectors the other half kills (the RLL certificate)."""
        return self._once("half_seeds", lambda: generating_set(
            self.lop, self.ops(0, 2), opposite=self.ops(1, 2)))

    def generated_by(self, vec) -> bool:
        """The unit vector `vec` alone generates W: the generator premises
        hold and the generating set is its position alone.  Its cyclic
        module under L is then W, so a check given no span decides the same
        comparison as one given that module."""
        return (vec is not None and len(vec) == 1 and self.generators()[0] is not None
                and self.seeds() == list(vec))

    def span_of(self, vec):
        """The cyclic span of `vec` under `lop` (formed once) that a check
        on its cyclic module is given, or None when `vec` is None, the space
        is truncated or `vec` alone generates W (`generated_by`)."""
        if vec is None or self.lop.space.trunc is not None or self.generated_by(vec):
            return None
        return self._once(("span",) + tuple(sorted(vec.items())),
                          lambda: cyclic_span(self.lop, [vec]))

    def form(self, k: int, first: bool = False) -> ColumnForm:
        """The column form of coefficient k, contracting its second index
        (`o`) or, `first`, its first (`*tt`), built from the ints."""
        return self._once(("form", k, first), lambda: column_form(self.ints[k], self.den, first))

    def g_form(self, first: bool = False) -> ColumnForm:
        """The column form of G."""
        return self.form(self.lop.order - 1, first)

    def central(self, scalar_top: bool = False, invariant: bool = False):
        """(P, record) for a central check or the RLL certificate: P when
        the generator premises hold and, if asked, the top is scalar and the
        lower coefficients invariant; else None and the record names the
        first that failed."""
        pairs, record = self.generators()
        if pairs is not None and scalar_top and self.c is None:
            return None, {"premise_failed": "scalar_top"}
        if pairs is not None and invariant and not self.invariant():
            return None, {"premise_failed": "invariant"}
        return pairs, record


def _premises(lop: LOperator, premises) -> Premises:
    """`premises` when it was built for this operator, else a new record."""
    if premises is not None and premises.lop is lop:
        return premises
    return Premises(lop)


def _block_check(premises: Premises, x, budget, name, w_tensor=False):
    """A Lie-type relation of G and X, X the int G or H of `premises`,
    decided by `structure.block_violation` on the columns safe for `budget`
    compositions of the entry budget.

    When the premises of `_generators` hold, the Lie relation holds (its
    last premise), the adjoint one is the invariance premise of
    `Premises`, and W is compared on
    the seed columns of a set S that generates W under the G_p, p in P
    (`lops.generating_set`; G is a representation and P generates g, so a
    subspace stable under the G_p is stable under all of G): W is built
    from products of the invariant G, so it is an invariant tensor and its
    kernel {w : W_abcd w = 0 for all (a, b, c, d)} is G-stable, hence all
    of W once it holds S.  For `lie` a violation of the premise is the
    failed premise "lie".  A failed premise, or a violation, reruns the kernel on every
    pair and safe column, so a refutation reports the first violation of
    the full comparison.  `details.generators` records the pair count (and
    for W the seed count) or the failed premise.
    """
    lop, g, den, case = premises.lop, premises.g, premises.den, premises.lop.case
    cols = lop.space.safe_indices(budget * lop.entry_budget)
    if not cols:
        return _vacuous(name)
    pairs, generators = premises.generators()
    holds = False
    if pairs is not None and w_tensor:
        seeds = premises.seeds()
        generators["seeds"] = len(seeds)
        holds = block_violation(case, g, x, den, seeds, w_tensor) is None
    elif pairs is not None:  # the Lie premise decided lie, invariance decides H
        holds = x is g or premises.invariant()
    bad = None if holds else block_violation(case, g, x, den, cols, w_tensor)
    details = {"safe_columns": len(cols), "generators": generators}
    if bad is None:
        return CheckReport(name, True, details=details)
    at, residual = bad
    return CheckReport(name, False, counterexample=(at, BiPoly({(0, 0): residual})),
                       details=details)


def check_lie(lop: LOperator, premises=None) -> CheckReport:
    """[G_ab, G_cd] equals the structure-constant combination, exactly.

    On a closed space it is decided on a presentation of g (`_generators`).
    """
    premises = _premises(lop, premises)
    return _block_check(premises, premises.g, 2, "lie")


def check_adjoint(lop: LOperator, premises=None) -> CheckReport:
    """[G_ab, H_cd] equals the adjoint-action combination of H.

    Decided on one pair of each Chevalley partner pair and a weight test
    once the premises of `_generators` hold.
    """
    if lop.order != 2:
        raise ValueError("H is defined for quadratic evaluation only")
    premises = _premises(lop, premises)
    return _block_check(premises, premises.ints[0], 3, "adjoint")


# ---------------------------------------------------------------------------
# the RLL relation


def _raised_coeffs(case: CaseDescriptor, coeffs) -> list:
    """The opmats `coeffs` of L(u) with the first index raised, (C_k)^a_b =
    eps_a C_k[-a, b], keyed by the positions of (a, b)."""
    return [{(case.pos(-a), case.pos(b)): op if case.sign(a) == 1 else -op
             for (a, b), op in mat.items()} for mat in coeffs]


def _certificate(premises: Premises):
    """(pairs, seeds, record) of the RLL certificate (proof at `check_rll`):
    supp(l_k), or every pair for so(2), and S_H (`structure.extremal_pairs`,
    `Premises.half_seeds`; so(2) has one pair), once `Premises.central`
    holds with a scalar top and invariant lower coefficients (G is invariant
    by the Lie premise, eps_ab Id always); else None, None.  record names
    |seeds| and the |pairs| |seeds| seed columns, or the failed premise.
    """
    pairs, record = premises.central(scalar_top=True, invariant=True)
    if pairs is None:
        return None, None, record
    case = premises.lop.case
    pairs, seeds = extremal_pairs(case) or range(case.n ** 2), premises.half_seeds()
    return pairs, seeds, {"seeds": len(seeds), "seed_columns": len(pairs) * len(seeds)}


def check_rll(lop: LOperator, premises=None) -> CheckReport:
    """R12(u-v) L1(u) L2(v) = L2(v) L1(u) R12(u-v), coefficient-exact.

    The u^0 v^0 coefficient covers the H-H commutation relation of the
    quadratic evaluation automatically.  The relation is homogeneous in L,
    so it is decided on L / c (`Premises`); a residual is that of L / c.

    On a closed space whose premises hold (see `_certificate`) the
    residual Phi(u, v) = R12 L1 L2 - L2 L1 R12 is compared on the columns
    supp(l_k) x S_H only, which decides it on all of V x V x W: the l_k
    (`structure.extremal_vectors`) span the vectors of V x V killed by
    rho(x) x 1 + 1 x rho(x) for every x in the Chevalley half H, and S_H
    generates W under the G_x, x in H.  rho(x_ab) (`structure.rho`) is the
    action on each index that the Lie relation's right side applies.  By
    the invariance premise every coefficient of L commutes with
    rho(x_ab) + G_ab on V x W, and R(w), in span{I, P, K}, with
    rho(x_ab) + rho(x_ab) on V x V, so Phi commutes with
    D_y = rho1(y) + rho2(y) + G_y for every pair y, and:

      - ker Phi is D-stable;
      - for x in H, D_x (l x w) = l x G_x w, so (by induction on the word
        length) l x W lies in ker Phi once l x S_H does;
      - rho(y) l x w = D_y (l x w) - l x G_y w for every pair y, so
        rho(U(g)) l x W = V x V x W lies in ker Phi.

    No further property of G is used.  For so(2), whose l_k do not
    generate V x V, the columns are V x V x S, S generating W under every
    G_p.  A residual there is located by row block
    (`structure.locate_violation`): a refutation reports the first
    violation of the full comparison.  A failed premise compares all the
    safe columns at once.

    `safe_columns` counts the W columns the verdict covers; the certificate
    record says how many columns of (V x V) x W were compared.
    """
    premises = _premises(lop, premises)
    lop = premises.lop
    case, space = lop.case, lop.space
    safe_w = space.safe_indices(2 * lop.entry_budget)
    if not safe_w:
        return _vacuous("rll")
    form = IdentityForm(fundamental_ipk(case), _raised_coeffs(case, premises.ints), premises.den,
                        case.n, space.dim, k_form(case))
    pairs, seeds, certificate = _certificate(premises)
    full = seeds is None
    residual, keys = identity_residual(form, range(case.n ** 2) if full else pairs,
                                       safe_w if full else seeds)
    bad = residual and (first_violation(residual) if full else locate_violation(form, safe_w))
    details = {"safe_columns": len(safe_w), "keys_compared": keys, "certificate": certificate}
    if not bad:
        return CheckReport("rll", True, details=details)
    (row, col), res = bad
    where = (describe_flat(case, space.labels, row, space.dim),
             describe_flat(case, space.labels, col, space.dim))
    return CheckReport("rll", False, counterexample=(where, res), details=details)


def check_gl2_rll(coeffs, dim) -> CheckReport:
    """RLL with Yang's R(u) = u I + P for a gl(2) operator polynomial.

    `coeffs` lists, per power of u, maps {(alpha, beta): SparseOp} with
    alpha, beta in {1, 2}, on a space of dim >= 1, decided on every column.
    Used as the oracle for oscillator chains and for the gl(2) subalgebras
    embedded in the orthogonal/symplectic case.
    """
    blocks = [{(alpha - 1, beta - 1): op for (alpha, beta), op in mat.items()} for mat in coeffs]
    residual, keys = identity_residual(IdentityForm(YANG_GL2_IPK, *clear_opmats(blocks), 2, dim),
                                       range(4), range(dim))
    details = {"safe_columns": dim, "keys_compared": keys}
    if residual:
        key = min(residual)
        entry = min(residual[key])
        return CheckReport("gl2_rll", False, details=details,
                           counterexample=((key,) + entry, BiPoly({key: residual[key][entry]})))
    return CheckReport("gl2_rll", True, details=details)


# ---------------------------------------------------------------------------
# truncation constraints of the quadratic and linear evaluations


def _seed_basis(premises: Premises, span, generators: dict) -> SparseOp:
    """The columns S a central check is decided on when its premises hold:
    the unit vectors of `premises.seeds`, or the vectors of the invariant
    `span` that `lops.generating_set` picks, whose G_p-closure is the span.
    Their count goes into `generators`."""
    lop = premises.lop
    if span is None:
        seeds = premises.seeds()
        generators["seeds"] = len(seeds)
        return SparseOp.from_columns(lop.dim, ({j: ONE} for j in seeds))
    vectors = generating_set(lop, premises.ops(), span)
    generators["span_seeds"] = len(vectors)
    return SparseOp.from_columns(lop.dim, vectors)


def _constraint_images(premises: Premises, basis1: SparseOp, basis: SparseOp):
    """Yield (name, basis, images): each constraint left side applied right
    to left to the columns of its basis (c21 on basis1), so that every
    product has a right operand of the basis's width: (G^t o G) @ B is
    G *tt (G @ B), and (H^t @ B) is H @ B with its keys swapped.  G and H
    enter through the column forms of `premises`; H is the u^0 coefficient
    of the quadratic evaluation."""
    case = premises.lop.case
    eps, beta = Scalar.of(case.eps), case.beta

    def tt(k, y):  # L_k *tt Y, k = 1 for G, 0 for H
        return opmat_mul_tt(case, premises.form(k, first=True), y)

    def plus_t(images, sign):  # (M + sign eps M^t) @ B from M @ B
        return opmat_add(images, opmat_scale(opmat_transpose(images), eps * sign))

    g1 = opmat_apply(premises.form(1), basis1)
    yield "c21", basis1, plus_t(g1, 1)
    gb = g1 if basis is basis1 else opmat_apply(premises.form(1), basis)
    hb = opmat_apply(premises.form(0), basis)
    yield "c23", basis, opmat_add(plus_t(hb, 1), opmat_sub(tt(1, gb), opmat_scale(gb, beta)))
    g_hb = tt(1, hb)
    yield "c26", basis, opmat_add(opmat_add(tt(0, gb), g_hb), opmat_scale(plus_t(hb, -1), -beta))
    yield "c28", basis, opmat_add(opmat_sub(tt(0, hb), opmat_scale(g_hb, beta)),
                                  opmat_scale(hb, beta * beta))


def _constraints_on(premises: Premises, basis1, basis, details) -> CheckReport:
    scalars = {}
    for name, on, images in _constraint_images(premises, basis1, basis):
        ok, value, bad = scalar_images(premises.lop.case, images, on)
        if not ok:
            key, val = bad
            return CheckReport("symmetric_constraints", False, scalars=scalars, details=details,
                               counterexample=((name,) + key, BiPoly({(0, 0): val})))
        scalars[name] = value
    return CheckReport("symmetric_constraints", True, scalars=scalars, details=details)


def check_symmetric_constraints(lop: LOperator, span=None, premises=None) -> CheckReport:
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

    Each left side is applied right to left to the columns of the module
    (`_constraint_images`).  On a closed space whose premises hold (G
    symmetric and a representation, and H invariant; see `Premises`) it is
    applied to a set S that generates the module under the G_p, p in the
    Chevalley pairs P, alone.  Proof: every left side M_ab
    is built from G, H, their transposes, the metric and contractions over
    the metric, all of them invariant under the action of x in g on the
    operator (ad G(x)) and on the indices (the vector representation,
    which preserves the metric), so M is covariant,
    [G(x), M_ab] = -(rho(x) M)_ab.  eps_ab Id is invariant, so
    N_ab = M_ab - c eps_ab Id is covariant too, and K = the intersection
    of the ker N_ab is G-stable: for w in K,
    N_ab G(x) w = G(x) N_ab w + (rho(x) N)_ab w = 0.  If S lies in K, so
    does the G_p-closure of S, which is W (or the span).  A failed premise,
    or a violation on S, reruns the check on every safe column (or span
    vector), so a refutation reports the full comparison's first violation.
    `details.generators` records the pairs and seeds (`span_seeds` with a
    span), or the failed premise.
    """
    premises = _premises(lop, premises)
    lop = premises.lop
    if lop.order != 2:
        raise ValueError("H is defined for quadratic evaluation only")
    b = lop.entry_budget
    basis, details = _module_basis(lop, 2 * b, span)
    pairs, details["generators"] = premises.central(invariant=True)
    if not basis.ncols:
        return _vacuous("symmetric_constraints", details)
    if pairs is not None:
        seeds = _seed_basis(premises, span, details["generators"])
        report = _constraints_on(premises, seeds, seeds, details)
        if report.passed:
            return report
    # c21 is linear in L, so it is compared on the wider budget-b columns
    return _constraints_on(premises, _module_basis(lop, b, span)[0], basis, details)


def check_linear_constraint(lop: LOperator, premises=None) -> CheckReport:
    """G^2 + beta G = c2 I with n c2 = tr G^2 (lowered product), both
    applied right to left to the safe columns B: (G o G) B = G o (G B)."""
    premises = _premises(lop, premises)
    lop, g = premises.lop, premises.g_form()
    case = lop.case
    basis, details = _module_basis(lop, 2 * lop.entry_budget)
    if not basis.ncols:
        return _vacuous("linear_constraint", details)
    gb = opmat_apply(g, basis)
    gg = opmat_mul(case, g, gb)
    ok, value, bad = scalar_images(case, opmat_add(gg, opmat_scale(gb, case.beta)), basis)
    if not ok:
        key, val = bad
        return CheckReport("linear_constraint", False, details=details,
                           counterexample=(key, BiPoly({(0, 0): val})))
    # cross-check the trace formula n c2 = tr G^2
    tr_check = _trace(case, gg, basis) - basis.scale(value * case.n)
    if tr_check.data:
        return CheckReport("linear_constraint", False, scalars={"c2": value}, details=details,
                           counterexample=(("trace",),
                                           BiPoly({(0, 0): tr_check.data[min(tr_check.data)]})))
    return CheckReport("linear_constraint", True, scalars={"c2": value}, details=details)


# ---------------------------------------------------------------------------
# W-tensor and the cubic characteristic identity


def check_w_tensor(lop: LOperator, premises=None) -> CheckReport:
    """Six-term symmetrized product W_{ab,cd} vanishes for all indices."""
    premises = _premises(lop, premises)
    return _block_check(premises, premises.g, 2, "w_tensor", w_tensor=True)


def _trace(case: CaseDescriptor, mat: dict, basis: SparseOp) -> SparseOp:
    """tr M @ B = sum_a eps_{-a} M_{-a,a} @ B from the images of a lowered
    opmat M on the columns of B."""
    out = SparseOp.zeros(basis.nrows, basis.ncols)
    for a in case.indices:
        op = mat.get((-a, a))
        if op is not None:
            out = out + op.scale(Scalar.of(case.sign(-a)))
    return out


def _casimir(premises: Premises, y: dict) -> dict:
    """{key: sigma @ Y_key} for an opmat Y of thin blocks, sigma = tr(G o G) / 2.

    sigma = (1/2) sum_{a,d} eps_-a eps_-d G[-a, d] G[-d, a] is applied right
    to left: G[r, d] @ Y_key for every block of G by `opmat_apply` of G's
    `o` form, then the term G[-d, -r] (G[r, d] @ Y_key) summed over (r, d)
    by one contraction with the Casimir partner of G, whose block at
    (0, (r, d)) is eps_r eps_-d G[-d, -r] / 2, the record's signed int block
    over 2 den; only chi3 uses it, so its form is built for the call."""
    case, g, form = premises.lop.case, premises.g, premises.g_form()
    partner = column_form({(0, (r, d)): g[-d, -r] if case.sign(r) == case.sign(-d) else -g[-d, -r]
                           for r, d in g if (-d, -r) in g}, 2 * premises.den)
    images = {(rd, key): op for key, block in y.items()
              for rd, op in opmat_apply(form, block).items()}
    return {key: op for (_, key), op in
            opmat_contract(partner, images, {rd: (rd, 1) for rd in g}).items()}


def _chi3_on(premises: Premises, basis: SparseOp):
    """(ok, 0, bad) of chi3 on the columns of `basis`, applied right to left,
    G entering through its column form."""
    case, form = premises.lop.case, premises.g_form()
    eps, beta = Scalar.of(case.eps), case.beta
    y1 = opmat_apply(form, basis)
    y2 = opmat_mul(case, form, y1)
    y3 = opmat_mul(case, form, y2)
    chi = opmat_add(y3, opmat_scale(y2, eps + beta + beta))
    chi = opmat_add(chi, opmat_scale(y1, eps * beta * Scalar(2)))
    # sigma (eps G_ab + eps_ab Id) @ basis
    metric = {(a, -a): basis.scale(case.metric_lower(a, -a)) for a in case.indices}
    chi = opmat_sub(chi, _casimir(premises, opmat_add(opmat_scale(y1, eps), metric)))
    return scalar_images(case, chi, basis, ZERO)


def check_chi3(lop: LOperator, premises=None) -> CheckReport:
    """G^3 + (eps+2beta) G^2 + (2 eps beta - eps s) G - s = 0, s = tr G^2 / 2.

    s is inserted as the (central) operator it is, so the identity is
    exact on the whole safe subspace, not just on highest weight
    vectors; the half-trace normalization is the one that the bilinear
    construction actually satisfies (verified by exact fit).

    The left side is applied right to left (`_chi3_on`).  It is covariant
    once G is symmetric and a representation (s is a contraction of G o G
    over the metric), so, as for the constraints, it is decided on a set
    that generates W under the Chevalley blocks when those premises hold,
    and on every safe column otherwise or after a violation there.
    """
    premises = _premises(lop, premises)
    lop = premises.lop
    basis, details = _module_basis(lop, 3 * lop.entry_budget)
    pairs, details["generators"] = premises.central()
    if not basis.ncols:
        return _vacuous("chi3", details)
    ok = False
    if pairs is not None:
        ok, _, bad = _chi3_on(premises, _seed_basis(premises, None, details["generators"]))
    if not ok:
        ok, _, bad = _chi3_on(premises, basis)
    if not ok:
        key, val = bad
        return CheckReport("chi3", False, details=details,
                           counterexample=(key, BiPoly({(0, 0): val})))
    return CheckReport("chi3", True, details=details)


# ---------------------------------------------------------------------------
# the center generating function


def _center_on(premises: Premises, comm_basis: SparseOp | None, basis: SparseOp,
               premised: bool = False):
    """(c, bad): the center decided right to left, the commutators on the
    columns of `comm_basis` (skipped when it is None) and the coefficients
    of C(u) on `basis`.  `premised` (the premises of `center_function`
    hold) skips [C_k, L_s] and [C_k, L_j] for k >= 2s - 1, which they
    decide.

    C_k @ B = sum_(i+j=k) shifted_i *tt (L_j @ B), and the commutator is
    [C_k, L_j] @ B = C_k o (L_j @ B) - L_j o (C_k @ B), with
    C_k o Y = sum_(i+i'=k) shifted_i *tt (L_i' o Y) (the contractions are
    associative), so every product has a right operand of the basis's
    width.  The L_j enter through the `o` forms of `premises`; the `*tt`
    forms of the shifted coefficients are indexed once per call from their
    int sums (`lops.opmat_poly_subs_forms`).  Each term
    is formed when the scan first needs it and kept, so a refutation forms
    little more than the terms it compared.
    bad = (where, (key, residual)) names the first failure, commutators
    first.
    """
    case, coeffs, form = premises.lop.case, premises.ints, premises.form
    shifted = opmat_poly_subs_forms(coeffs, premises.den, ONE, -case.beta, first=True)
    size = len(shifted) + len(coeffs) - 1

    def c_on(images, k):  # C_k @ B from the images [L_j @ B], formed on demand
        out: dict = {}
        for i in range(max(0, k - len(coeffs) + 1), min(k + 1, len(shifted))):
            for key, op in opmat_mul_tt(case, shifted[i], images(k - i)).items():
                opmat_acc(out, key, op)
        return out

    def images_on(b):  # ([L_j @ B], k -> C_k @ B)
        lb = [opmat_apply(form(j), b) for j in range(len(coeffs))]
        return lb, cache(lambda k: c_on(lb.__getitem__, k))

    if comm_basis is not None:
        lb, cb = images_on(comm_basis)
        ll = cache(lambda i, j: opmat_mul(case, form(i), lb[j]))  # L_i o (L_j @ B)
        s = len(coeffs) - 1
        for k1 in range(size):
            for k2 in range(len(coeffs)):
                if premised and (k2 == s or k1 >= 2 * s - 1):
                    continue
                c_lb = c_on(lambda i: ll(i, k2), k1)
                comm = opmat_sub(c_lb, opmat_mul(case, form(k2), cb(k1)))
                ok, _, bad = scalar_images(case, comm, comm_basis, ZERO)
                if not ok:
                    return None, (("commutator", k1, k2), bad)
    if basis is not comm_basis:
        _, cb = images_on(basis)
    values = []
    for k in range(size):
        ok, value, bad = scalar_images(case, cb(k), basis)
        if not ok:
            return None, (("coeff", k), bad)
        values.append(value)
    return UniPoly(values), None


def center_function(lop: LOperator, span=None, premises=None):
    """C_ab(u) = sum_d eps_d L_da(u - beta) L_{-d,b}(u) = c(u) eps_ab.

    Returns (c, report).  The report asserts that every coefficient of
    C(u) is a scalar multiple of the metric and that C(u) commutes with
    L(v) (checked symbolically, before scalarity is used anywhere).  Both
    are homogeneous in L; they are decided on L / c (`Premises`), and c(u)
    is that of L / c.

    The coefficients of c(u) are central elements; like the constraint
    scalars they are genuine numbers only on an irreducible module, so
    `span` may restrict the scalarity assertion to an invariant
    submodule.  The commutation check always runs on the whole safe
    subspace.

    Both are decided right to left (`_center_on`).  On a closed space
    whose premises hold (G symmetric and a representation, the top
    coefficient c eps_ab Id and every lower one invariant; see `Premises`),
    every coefficient of L(u), and so of C(u), is a covariant family (the
    proof at `check_symmetric_constraints`).  The commutator
    [C_i, L_j] = C_i o L_j - L_j o C_i is then covariant too, and so is
    C_i - c_i eps Id; the kernels are G-stable, so the commutators are
    decided on a set that generates W under the Chevalley blocks G_p and
    the coefficients on one that generates the module (W, or the span).
    A failed premise, or a commutator violation there, reruns both on
    every safe column (or span vector); after a coefficient violation
    only the coefficients are rerun, the commutators having held on W.

    The premises decide some commutators outright, so the seed path skips
    them (6 of the 15 of a quadratic evaluation are compared, 1 of the 6
    of a linear one).  Write M = eps_ab Id, the identity element of o,
    s for the order of L and c eps_ab Id for G + eps G^t.  On L / c the
    top coefficient L_s is M, so [C_k, L_s] = C_k - C_k = 0 for every k.
    M *tt X = X and X *tt M = eps X^t (eps_d eps_-d = eps), and
    L(u - beta) has the coefficients M at u^s and G - s beta M at
    u^(s-1), so

      C_2s     = M *tt M = M,
      C_(2s-1) = M *tt G + (G - s beta M) *tt M
               = G + eps G^t - s beta M = (c - s beta) M,

    scalar multiples of M, which commute with every L_j.  The full path
    compares every commutator.
    `details.generators` records the pairs and seeds (`span_seeds` with
    a span), or the failed premise.
    """
    premises = _premises(lop, premises)
    lop = premises.lop
    b = lop.entry_budget
    comm_basis, _ = _module_basis(lop, 3 * b)
    basis, details = _module_basis(lop, 2 * b, span)
    details = {"commutator_columns": comm_basis.ncols, **details}
    pairs, details["generators"] = premises.central(scalar_top=True, invariant=True)
    if not (comm_basis.ncols and basis.ncols):
        return UniPoly(), _vacuous("center", details)
    c = None
    if pairs is not None:
        seeds = _seed_basis(premises, None, details["generators"])
        on = seeds if span is None else _seed_basis(premises, span, details["generators"])
        c, bad = _center_on(premises, seeds, on, premised=True)
        if c is None and bad[0][0] == "coeff":  # the commutators held on the seeds, so on W
            comm_basis = None
    if c is None:
        c, bad = _center_on(premises, comm_basis, basis)
    if c is None:
        where, (key, val) = bad
        return UniPoly(), CheckReport("center", False, details=details,
                                      counterexample=(where + key, BiPoly({(0, 0): val})))
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
