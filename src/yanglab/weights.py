"""Highest-weight data: detection, weight functions, ratios, finiteness.

Conventions.  The stored object for every index a is the eigen-polynomial

    eig_a(u)  with  L_{-a,a}(u) |0> = eig_a(u) |0>,

and the weight function is lambda_a(u) = eig_a(-u).  Ratios follow the
simple-root pattern

    f_i = lambda_i / lambda_{i+1}            (i < m)
    f_m = lambda_m / lambda_{1-m}            so(2m)
    f_m = -lambda_m / lambda_{-m}            sp(2m)
    f_m = lambda_m / lambda_0                so(2m+1)

and a representation is finite-dimensional (necessary criterion) iff each
f_i(u) = P_i(u + Delta_i)/P_i(u) for a monic polynomial P_i, with
Delta_i = 1 for i < m and Delta_m = 1, 1/2, 2 for so(2m), so(2m+1),
sp(2m).  The existence test walks the zero/pole multiset chain by chain;
everything is exact and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import ONE, ZERO, Scalar, SparseOp, UniPoly, nullspace, rational_roots, reduce_ratio
from .lops import LOperator, metric_opmat
from .structure import CaseDescriptor
from .verify import CheckReport, Premises, check_symmetric_constraints


# ---------------------------------------------------------------------------
# highest-weight detection


def _raising_keys(case: CaseDescriptor):
    keys = []
    m = case.m
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i < j:
                keys.append((-i, j))
            keys.append((-i, -j))
        if case.has_zero:
            keys.append((-i, 0))
    return keys


def _dependent_raising_keys(case: CaseDescriptor):
    """Transpose side of the raising set: (j, -i) with j > i, plus (0, -i).

    These follow from the raising conditions through the dependence of the
    eps-symmetric generator parts; note the index order (the larger
    positive index sits first), which is what the explicit spinor and
    oscillator modules actually satisfy."""
    keys = []
    m = case.m
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if j > i:
                keys.append((j, -i))
        if case.has_zero:
            keys.append((0, -i))
    return keys


def _diagonal_keys(case: CaseDescriptor):
    keys = [(-i, i) for i in range(1, case.m + 1)]
    keys += [(i, -i) for i in range(1, case.m + 1)]
    if case.has_zero:
        keys.append((0, 0))
    return keys


def _eigen_scalar(coeff_vec: dict, vec: dict):
    """Scalar c with coeff_vec == c * vec, or None."""
    if not coeff_vec:
        return ZERO
    anchor = next(iter(vec))
    lam = coeff_vec.get(anchor, ZERO) * vec[anchor].inv()
    expect = {k: v * lam for k, v in vec.items() if not (v * lam).is_zero}
    return lam if coeff_vec == expect else None


def verify_highest_weight(lop: LOperator, vec: dict) -> CheckReport:
    """Check every annihilation and eigenvector condition on vec exactly."""
    if not vec:
        raise ValueError("highest-weight candidate must be nonzero")
    case, dim = lop.case, lop.dim
    for key in _raising_keys(case) + _dependent_raising_keys(case):
        for k, mat in enumerate(lop.coeffs):
            op = mat.get(key)
            if op is not None and op.apply(vec):
                return CheckReport("highest_weight", False,
                                   counterexample=((key, "u^%d" % k), "nonzero action"))
    for key in _diagonal_keys(case):
        for k, mat in enumerate(lop.coeffs):
            op = mat.get(key)
            out = op.apply(vec) if op is not None else {}
            if _eigen_scalar(out, vec) is None:
                return CheckReport("highest_weight", False,
                                   counterexample=((key, "u^%d" % k), "not an eigenvector"))
    return CheckReport("highest_weight", True)


def find_highest_weight(lop: LOperator):
    """Basis of the joint kernel of all raising coefficients.

    On truncated spaces the kernel is computed on the safe subspace for
    the operator budget, which avoids boundary artifacts.
    """
    case = lop.case
    safe = lop.space.safe_indices(lop.entry_budget)
    remap = {col: k for k, col in enumerate(safe)}
    rows = []
    for key in _raising_keys(case):
        for mat in lop.coeffs:
            op = mat.get(key)
            if op is None:
                continue
            for row in op.restrict_cols(set(safe)).rows().values():
                rows.append({remap[j]: v for j, v in row.items()})
    basis = nullspace(rows, len(safe))
    out = []
    for dense in basis:
        out.append({safe[j]: v for j, v in enumerate(dense) if not v.is_zero})
    return out


# ---------------------------------------------------------------------------
# weight functions and components


@dataclass
class WeightFunction:
    """Eigen-polynomials eig_a(u) = lambda_a(-u), keyed by signed index."""

    case: CaseDescriptor
    eig: dict

    def lam(self, a: int) -> UniPoly:
        return self.eig[a].reflect()

    def to_dict(self) -> dict:
        return {str(a): p.to_strings() for a, p in sorted(self.eig.items())}


def weight_functions(lop: LOperator, vec: dict) -> WeightFunction:
    """Read off eig_a(u) from the action of L_{-a,a}(u) on vec."""
    case = lop.case
    eig = {}
    for key in _diagonal_keys(case):
        a = -key[0]
        coeffs = []
        for mat in lop.coeffs:
            op = mat.get(key)
            out = op.apply(vec) if op is not None else {}
            lam = _eigen_scalar(out, vec)
            if lam is None:
                raise ValueError(f"L_{key}(u) does not act diagonally on the vector")
            coeffs.append(lam)
        eig[a] = UniPoly(coeffs)
    return WeightFunction(case, eig)


def weight_components(wf: WeightFunction, k=None) -> dict:
    """Split the quadratic weight functions into their scalar components.

    Returns lam1[i], lam2[a], tilde[i], bar[i] (positive i); requires the
    standard normalization eig_a = eps_{-a,a} u^2 + ... of order two.
    """
    case = wf.case
    comps = {"lam1": {}, "lam2": {}, "tilde": {}, "bar": {}}
    eps = Scalar.of(case.eps)
    for i in range(1, case.m + 1):
        ei, emi = wf.eig[i], wf.eig[-i]
        comps["lam1"][i] = ei.coeff(1)
        comps["lam1"][-i] = emi.coeff(1)
        comps["lam2"][i] = ei.coeff(0)
        comps["lam2"][-i] = emi.coeff(0)
        half = Scalar(1, 0, 2)
        comps["tilde"][i] = (comps["lam2"][i] + eps * comps["lam2"][-i]) * half
        comps["bar"][i] = (comps["lam2"][i] - eps * comps["lam2"][-i]) * half
    if case.has_zero:
        comps["lam1"][0] = wf.eig[0].coeff(1)
        comps["lam2"][0] = wf.eig[0].coeff(0)
    return comps


def lambda_big(wf: WeightFunction, i: int, alpha, gamma) -> UniPoly:
    """Lambda_i(u, alpha, gamma) = lambda_i(-u+alpha) lambda_{-i}(-u+gamma)."""
    alpha, gamma = Scalar.of(alpha), Scalar.of(gamma)
    return wf.eig[i].shift(-alpha) * wf.eig[-i].shift(-gamma)


# ---------------------------------------------------------------------------
# ratio functions


def ratios(wf: WeightFunction, case: CaseDescriptor):
    """Simple-root ratio list [(num, den)], unreduced; lambda_a(u) polys."""
    out = []
    for i in range(1, case.m):
        out.append((wf.lam(i), wf.lam(i + 1)))
    m = case.m
    if case.family == "so_even":
        if m < 2:
            raise ValueError("so(2) has no simple-root ratio set")
        out.append((wf.lam(m), wf.lam(1 - m)))
    elif case.family == "sp":
        out.append((-wf.lam(m), wf.lam(-m)))
    else:
        out.append((wf.lam(m), wf.lam(0)))
    for num, den in out:
        if den.is_zero:
            raise ValueError("identically vanishing denominator in a ratio")
    return out


def reduced_ratios(raw):
    return [reduce_ratio(num, den) for num, den in raw]


# ---------------------------------------------------------------------------
# weight conditions


def check_linear_conditions(lams, case: CaseDescriptor) -> CheckReport:
    """Two-factor conditions on linear-evaluation weights lam_1..lam_m."""
    lams = [Scalar.of(x) for x in lams]
    eps = Scalar.of(case.eps)
    verdicts = []
    for i in range(1, case.m):
        li, ln = lams[i - 1], lams[i]
        value = (ln - li) * (ln + li - eps * (case.beta - i))
        verdicts.append(value.is_zero)
    if case.has_zero:
        lm = lams[-1]
        verdicts.append((lm * (lm + Scalar(1, 0, 2))).is_zero)
    passed = all(verdicts)
    return CheckReport("linear_conditions", passed, details={"conditions": verdicts})


def tilde_component_formula(comps: dict, case: CaseDescriptor, k) -> bool:
    """2 eps tilde_i = lam_i (lam_i - eps(beta-i+1)) - eps sum_{j<i} lam_j + k."""
    eps = Scalar.of(case.eps)
    k = Scalar.of(k)
    running = ZERO
    for i in range(1, case.m + 1):
        li = comps["lam1"][i]
        rhs = li * (li - eps * (case.beta - i + 1)) - eps * running + k
        if not (Scalar(2) * eps * comps["tilde"][i] - rhs).is_zero:
            return False
        running = running + li
    return True


def check_lambda_identities(wf: WeightFunction, case: CaseDescriptor) -> CheckReport:
    """Lambda_i(u, beta-i+1, 1) = Lambda_{i+1}(u, beta-i+1, 1) for adjacent
    indices, plus the odd-orthogonal closing identity at shift 1/2.

    Valid for any finite evaluation order (and invariant under clearing a
    common scalar polynomial from the weights, so fused operators can be
    checked directly)."""
    beta = case.beta
    lam_ok = []
    for i in range(1, case.m):
        alpha = beta - i + 1
        lam_ok.append(lambda_big(wf, i, alpha, ONE) == lambda_big(wf, i + 1, alpha, ONE))
    if case.has_zero:
        lam_ok.append(lambda_big(wf, case.m, Scalar(1, 0, 2), ONE)
                      == lambda_big(wf, 0, Scalar(1, 0, 2), ONE))
    return CheckReport("lambda_identities", all(lam_ok),
                       details={"lambda_identities": lam_ok})


def check_quadratic_conditions(wf: WeightFunction, case: CaseDescriptor, k=None) -> CheckReport:
    """Conditions on quadratic-evaluation weights, in three layers:

    (a) the Lambda polynomial identities between adjacent indices (plus
        the odd-orthogonal closing identity),
    (b) the bar-component relations,
    (c) when every bar component vanishes and k is known, the
        three-factor product conditions.
    """
    eps = Scalar.of(case.eps)
    beta = case.beta
    m = case.m
    details: dict = {}
    lam_ok = check_lambda_identities(wf, case).details["lambda_identities"]
    details["lambda_identities"] = lam_ok

    comps = weight_components(wf)
    bar_ok = []
    for i in range(1, m):
        lhs = comps["bar"][i] * (comps["lam1"][i] - eps * (beta - i))
        rhs = comps["bar"][i + 1] * (comps["lam1"][i + 1] - eps * (beta - i))
        bar_ok.append((lhs - rhs).is_zero)
    if case.has_zero:
        bar_ok.append((comps["bar"][m] * (comps["lam1"][m] + Scalar(1, 0, 2))).is_zero)
    details["bar_relations"] = bar_ok

    three_ok = []
    all_bar_zero = all(comps["bar"][i].is_zero for i in range(1, m + 1))
    details["bar_vanishes"] = all_bar_zero
    if all_bar_zero and k is not None:
        k = Scalar.of(k)
        half = Scalar(1, 0, 2)
        running = ZERO
        for i in range(1, m):
            li, ln = comps["lam1"][i], comps["lam1"][i + 1]
            f1 = li - ln
            f2 = li + ln - Scalar(2) * eps * (beta - i)
            f3 = (half * (li * li + ln * ln) - eps * (beta - i + 1) * (li + ln)
                  + eps * ln + k - eps * running + half * (beta - i) * (beta - i))
            three_ok.append((f1 * f2 * f3).is_zero)
            running = running + li
        if case.has_zero:
            lm = comps["lam1"][m]
            total = running + lm
            f3 = half * lm * (lm - 1) - total + k + Scalar(1, 0, 8)
            three_ok.append((lm * (lm + 1) * f3).is_zero)
        details["three_factor"] = three_ok

    passed = all(lam_ok) and all(bar_ok) and all(three_ok)
    return CheckReport("quadratic_conditions", passed, details=details)


# ---------------------------------------------------------------------------
# finiteness criterion


def drinfeld_shift(case: CaseDescriptor, i: int) -> Fraction:
    if i < case.m:
        return Fraction(1)
    return {"so_even": Fraction(1), "so_odd": Fraction(1, 2), "sp": Fraction(2)}[case.family]


@dataclass
class DrinfeldRatio:
    """Outcome for one ratio: polynomial existence or a failure witness."""

    exists: bool
    shift: Fraction
    roots: dict | None = None  # {Fraction root: multiplicity} of P
    witness: str | None = None

    def polynomial(self) -> UniPoly:
        if not self.exists:
            raise ValueError("no polynomial exists for this ratio")
        out = UniPoly.const(1)
        for root, mult in sorted(self.roots.items()):
            factor = UniPoly([Scalar.rational(-root.numerator, root.denominator), ONE])
            for _ in range(mult):
                out = out * factor
        return out

    def to_dict(self) -> dict:
        out = {"exists": self.exists, "shift": str(self.shift)}
        if self.roots is not None:
            out["roots"] = {str(r): mult for r, mult in sorted(self.roots.items())}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class DrinfeldResult:
    ratios: list = field(default_factory=list)

    @property
    def exists(self) -> bool:
        return all(r.exists for r in self.ratios)

    def to_dict(self) -> dict:
        return {"exists": self.exists, "ratios": [r.to_dict() for r in self.ratios]}


def _poly_root_multiset(p: UniPoly):
    roots, rest = rational_roots(p)
    if rest.degree > 0:
        raise ValueError("ratio polynomial has irrational roots")
    return {v.as_fraction(): mult for v, mult in roots.items()}, rest


def _decide_ratio(num: UniPoly, den: UniPoly, delta: Fraction) -> DrinfeldRatio:
    if num == den:
        return DrinfeldRatio(True, delta, roots={})
    if num.degree != den.degree:
        return DrinfeldRatio(False, delta, witness="degree mismatch: no value 1 at infinity")
    num_roots, num_lead = _poly_root_multiset(num)
    den_roots, den_lead = _poly_root_multiset(den)
    if num_lead != den_lead:
        return DrinfeldRatio(False, delta, witness="leading coefficients differ")
    growth: dict[Fraction, int] = dict(num_roots)
    for root, mult in den_roots.items():
        growth[root] = growth.get(root, 0) - mult
        if growth[root] == 0:
            growth.pop(root)
    roots: dict[Fraction, int] = {}
    chains: dict[Fraction, list] = {}
    for x in growth:
        rep = x - math.floor(x / delta) * delta
        chains.setdefault(rep, []).append(x)
    for rep in sorted(chains):
        support = sorted(chains[rep])
        lattice = []
        x = support[-1]
        while x >= support[0]:
            lattice.append(x)
            x -= delta
        mult = 0
        for x in lattice:  # walk downward: m(x) = m(x + delta) - growth(x)
            mult -= growth.get(x, 0)
            if mult < 0:
                return DrinfeldRatio(False, delta,
                                     witness=f"negative multiplicity at {x} in chain {rep}")
            if mult:
                roots[x] = mult
        if mult != 0:
            return DrinfeldRatio(False, delta,
                                 witness=f"chain {rep} does not terminate")
    return DrinfeldRatio(True, delta, roots=roots)


def drinfeld_test(reduced, case: CaseDescriptor) -> DrinfeldResult:
    """Decide f_i(u) = P_i(u + Delta_i)/P_i(u) for every reduced ratio.

    Chains are processed in increasing residue-class order and walked from
    the top root downward, telescoping the multiplicity; the first chain
    violating nonnegative integrality is reported as the witness.  When
    all polynomials exist, reconstructing P(u+Delta)/P(u) reproduces the
    input ratio exactly (round-trip property, asserted here).
    """
    result = DrinfeldResult()
    for i, (num, den) in enumerate(reduced, start=1):
        delta = drinfeld_shift(case, i)
        ratio = _decide_ratio(num, den, delta)
        if ratio.exists:
            poly = ratio.polynomial()
            shift = Scalar.rational(delta.numerator, delta.denominator)
            back_num, back_den = reduce_ratio(poly.shift(shift), poly)
            if (back_num, back_den) != reduce_ratio(num, den):
                raise AssertionError("round-trip reconstruction failed")
        result.ratios.append(ratio)
    return result


# ---------------------------------------------------------------------------
# the full weight report


@dataclass
class WeightReport:
    """Weight data of one vector; only `hw_report` is set when the vector
    is not a highest-weight vector (and the report fails)."""

    case: CaseDescriptor
    order: int
    wf: WeightFunction | None
    components: dict | None
    k: Scalar | None
    raw_ratios: list
    reduced: list
    hw_report: CheckReport
    condition_report: CheckReport | None
    drinfeld: DrinfeldResult | None

    @property
    def passed(self) -> bool:
        ok = self.hw_report.passed
        if self.condition_report is not None:
            ok = ok and self.condition_report.passed
        return ok

    def to_dict(self) -> dict:
        if self.wf is None:
            return {"case": self.case.label(), "order": self.order,
                    "highest_weight": self.hw_report.to_dict()}
        out = {
            "case": self.case.label(),
            "order": self.order,
            "weights": self.wf.to_dict(),
            "ratios": [{"num": n.to_strings(), "den": d.to_strings()}
                       for n, d in self.reduced],
            "highest_weight": self.hw_report.to_dict(),
            "finiteness": self.drinfeld.to_dict(),
        }
        if self.k is not None:
            out["k"] = self.k.to_string()
        if self.components is not None:
            out["components"] = {
                name: {str(i): v.to_string() for i, v in comp.items()}
                for name, comp in self.components.items()
            }
        if self.condition_report is not None:
            out["conditions"] = self.condition_report.to_dict()
        return out


def standard_normalization(lop: LOperator) -> bool:
    return lop.coeffs[lop.order] == metric_opmat(lop.case, lop.dim)


def weight_report(lop: LOperator, vec: dict, k=None, constraints=None) -> WeightReport:
    """Run the full highest-weight pipeline on one vector.

    A vector that is not highest-weight gives a failing report that
    carries the highest-weight counterexample and nothing else.  k, when
    not given, is c23 of the symmetric constraints on the cyclic module of
    `vec`: of the report `constraints` when the caller already decided it
    there, else of a new check on the span of `Premises.span_of`, which is
    none when `vec` is a unit vector that alone generates W.
    """
    case = lop.case
    hw = verify_highest_weight(lop, vec)
    if not hw.passed:
        return WeightReport(case, lop.order, None, None, None, [], [], hw, None, None)
    wf = weight_functions(lop, vec)
    raw = ratios(wf, case)
    reduced = reduced_ratios(raw)
    comps = None
    cond = None
    if lop.order == 1 and standard_normalization(lop):
        lams = [wf.eig[i].coeff(0) for i in range(1, case.m + 1)]
        cond = check_linear_conditions(lams, case)
    elif lop.order == 2 and standard_normalization(lop):
        comps = weight_components(wf)
        if k is None:
            sym = constraints
            if sym is None:  # no span when vec alone generates W
                premises = Premises(lop)
                sym = check_symmetric_constraints(lop, span=premises.span_of(vec),
                                                  premises=premises)
            if sym.passed:
                k = sym.scalars["c23"]
        cond = check_quadratic_conditions(wf, case, k=k)
    else:
        # generic finite order: only the Lambda identities apply
        cond = check_lambda_identities(wf, case)
    dr = drinfeld_test(reduced, case)
    return WeightReport(case, lop.order, wf, comps,
                        None if k is None else Scalar.of(k),
                        raw, reduced, hw, cond, dr)
