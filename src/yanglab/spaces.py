"""Explicit representation spaces and the generator operators on them.

Every space is a finite ordered basis with an integer grading.  Closed
spaces (fermionic Fock space, a fixed homogeneous layer, gl(2) oscillator
layers) carry `trunc = None`: every operator identity is exact everywhere.
Truncated spaces (bosonic Fock space, polynomial modules cut at degree D,
windowed layer neighbourhoods) carry `trunc` (and possibly `floor`); an
identity whose evaluation can excurse k degrees beyond its input is then
asserted only on basis vectors at distance >= k from the cut, the "safe
subspace".  Graded operators make the boundary effects precisely
localizable, which is what makes this sound.

Monomial bases are ordered graded-lexicographically, which fixes every
basis-dependent serialization.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations_with_replacement
from math import comb

from .exact import ONE, Scalar, SparseOp, axpy
from .structure import CaseDescriptor


class RepSpace:
    """Finite ordered basis with grading and optional truncation window."""

    __slots__ = ("name", "labels", "index", "grade", "trunc", "floor", "meta")

    def __init__(self, name, labels, grade, trunc=None, floor=None, meta=None):
        self.name = name
        self.labels = tuple(labels)
        self.index = {lab: k for k, lab in enumerate(self.labels)}
        self.grade = tuple(grade)
        self.trunc = trunc
        self.floor = floor
        self.meta = dict(meta or {})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def safe_indices(self, budget: int):
        """Basis positions on which a budget-k identity is boundary-free."""
        if self.trunc is None and self.floor is None:
            return list(range(self.dim))
        out = []
        for k, g in enumerate(self.grade):
            if self.trunc is not None and g > self.trunc - budget:
                continue
            if self.floor is not None and g < self.floor + budget:
                continue
            out.append(k)
        return out

    def summary(self) -> dict:
        info = {"name": self.name, "dimension": self.dim}
        if self.trunc is not None:
            info["truncation_degree"] = self.trunc
        if self.floor is not None:
            info["floor_degree"] = self.floor
        info.update(self.meta)
        return info

    def __repr__(self):
        return f"RepSpace({self.name}, dim={self.dim})"


class GeneratorSet:
    """Named generator operators acting on (an ambient extension of) a space."""

    __slots__ = ("case", "space", "ops")

    def __init__(self, case: CaseDescriptor, space: RepSpace, ops: dict):
        self.case = case
        self.space = space
        self.ops = ops

    def c(self, a: int) -> SparseOp:
        return self.ops[("c", a)]

    def x(self, a: int) -> SparseOp:
        return self.ops[("x", a)]

    def d(self, a: int) -> SparseOp:
        return self.ops[("d", a)]

    def xm(self, i: int, j: int) -> SparseOp:
        """Matrix variable x^i_j with the eps-antisymmetry folded in."""
        op, sign = self._canon("xm", i, j)
        return op.scale(sign) if sign != 1 else op

    def dm(self, i: int, j: int) -> SparseOp:
        op, sign = self._canon("dm", i, j)
        return op.scale(sign) if sign != 1 else op

    def _canon(self, kind, i, j):
        case = self.case
        if case.family == "sp":
            key = (kind, min(i, j), max(i, j))
            return self.ops[key], 1
        if i == j:
            return SparseOp.zeros(self.space.dim, self.space.dim), 1
        if i < j:
            return self.ops[(kind, i, j)], 1
        return self.ops[(kind, j, i)], -case.eps


# ---------------------------------------------------------------------------
# spinor space (Clifford / oscillator generators c_a)


def spinor_space(case: CaseDescriptor, trunc: int = 6):
    """Space carrying the c_a generators.

    Orthogonal families: fermionic Fock space over m modes, dimension 2^m,
    exact (no truncation), with c_a c_b + c_b c_a = eps_ab.  so(2m+1) adds
    c_0 = (-1)^F / r, r = 2^(1/2), and is built in the rational frame
    c'_a = r T c_a T^-1 with T = diag(r^parity): c'_0 = (-1)^F, and
    c'_{+-i} is c_{+-i} with its entries that land in odd-parity states
    doubled.  So c'_a c'_b + c'_b c'_a = 2 eps_ab, and
    G = (1/2) eps_ab - (1/2) c'_a c'_b (`build_spinorial_linear`) is
    T G T^-1: every identity holds as before, and since the vacuum has
    even parity, so does every eigenvalue on it.

    Symplectic generators obey canonical commutation relations, which
    admit no finite-dimensional representation, so the bosonic Fock space
    is truncated at total occupation `trunc` and the relations hold on the
    safe subspace.
    """
    m = case.m
    if case.eps == 1:
        labels = list(range(2 ** m))
        grade = [bin(s).count("1") for s in labels]
        space = RepSpace(f"spinor[{case.label()}]", labels, grade)
        ops = {}
        for i in range(1, m + 1):
            bit = 1 << (i - 1)
            low = bit - 1
            create, annih = {}, {}
            for s in labels:
                phase = ONE if bin(s & low).count("1") % 2 == 0 else -ONE
                if case.has_zero and grade[s] % 2 == 0:  # lands in an odd state
                    phase = phase * 2
                if not s & bit:
                    create[(s | bit, s)] = phase
                else:
                    annih[(s & ~bit, s)] = phase
            ops[("c", i)] = SparseOp(space.dim, space.dim, create)
            ops[("c", -i)] = SparseOp(space.dim, space.dim, annih)
        if case.has_zero:
            parity = {(s, s): (ONE if grade[s] % 2 == 0 else -ONE) for s in labels}
            ops[("c", 0)] = SparseOp(space.dim, space.dim, parity)
        return space, GeneratorSet(case, space, ops)

    # symplectic: m bosonic modes, occupation-number basis cut at `trunc`
    labels = []
    for total in range(trunc + 1):
        labels.extend(sorted(_compositions(total, m)))
    grade = [sum(lab) for lab in labels]
    space = RepSpace(f"spinor[{case.label()}]", labels, grade, trunc=trunc)
    ops = {}
    for i in range(1, m + 1):
        create, annih = {}, {}
        for lab in labels:
            pos = space.index[lab]
            if sum(lab) < trunc:
                up = lab[:i - 1] + (lab[i - 1] + 1,) + lab[i:]
                create[(space.index[up], pos)] = ONE
            if lab[i - 1] > 0:
                dn = lab[:i - 1] + (lab[i - 1] - 1,) + lab[i:]
                annih[(space.index[dn], pos)] = Scalar.of(lab[i - 1])
        ops[("c", i)] = SparseOp(space.dim, space.dim, create)
        ops[("c", -i)] = SparseOp(space.dim, space.dim, annih)
    return space, GeneratorSet(case, space, ops)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# homogeneous polynomial / exterior layer (canonical pairs x_a, d_a)


def _graded_monomials(nvars: int, degrees):
    out = []
    for d in degrees:
        level = set()
        for combo in combinations_with_replacement(range(nvars), d):
            exp = [0] * nvars
            for c in combo:
                exp[c] += 1
            level.add(tuple(exp))
        out.extend(sorted(level, reverse=True))
    return out


def homogeneous_dimension(case: CaseDescriptor, two_l: int) -> int:
    if case.family == "sp":
        return comb(case.n, two_l)
    return comb(two_l + case.n - 1, case.n - 1)


def homogeneous_space(case: CaseDescriptor, two_l: int):
    """Degree-2l layer of functions of x_a plus its generator set.

    Orthogonal: commuting variables, layer dimension C(2l+n-1, n-1); the
    generator set lives on the degree window [2l-1, 2l+1] so that the
    canonical pair relations can be checked around the layer.  Symplectic:
    anticommuting variables restricted to 2l in {0, 1}; the ambient space
    is the whole exterior algebra (dimension 2^n, exact).

    Returns (layer, genset); genset.space is the ambient space.
    """
    if two_l < 0:
        raise ValueError("two_l must be a nonnegative integer")
    n = case.n
    if case.family == "sp":
        if two_l > 1:
            raise ValueError("symplectic homogeneous layer requires two_l in {0, 1}")
        labels = sorted(range(2 ** n), key=lambda s: (bin(s).count("1"), s))
        grade = [bin(s).count("1") for s in labels]
        ambient = RepSpace(f"grassmann[{case.label()}]", labels, grade)
        ops = {}
        for a in case.indices:
            p = case.pos(a)
            bit, low = 1 << p, (1 << p) - 1
            mult, deriv = {}, {}
            for s in labels:
                phase = ONE if bin(s & low).count("1") % 2 == 0 else -ONE
                if not s & bit:
                    mult[(ambient.index[s | bit], ambient.index[s])] = phase
            pd = case.pos(-a)
            bit_d, low_d = 1 << pd, (1 << pd) - 1
            sign_a = Scalar.of(case.sign(a))
            for s in labels:
                if s & bit_d:
                    phase = ONE if bin(s & low_d).count("1") % 2 == 0 else -ONE
                    deriv[(ambient.index[s & ~bit_d], ambient.index[s])] = sign_a * phase
            ops[("x", a)] = SparseOp(ambient.dim, ambient.dim, mult)
            ops[("d", a)] = SparseOp(ambient.dim, ambient.dim, deriv)
        layer_labels = [s for s in labels if bin(s).count("1") == two_l]
        layer = RepSpace(f"homog[{case.label()},2l={two_l}]", layer_labels,
                         [two_l] * len(layer_labels))
        return layer, GeneratorSet(case, ambient, ops)

    lo = max(two_l - 1, 0)
    degrees = range(lo, two_l + 2)
    labels = _graded_monomials(n, degrees)
    grade = [sum(e) for e in labels]
    ambient = RepSpace(f"polywindow[{case.label()}]", labels, grade,
                       trunc=two_l + 1, floor=lo if lo > 0 else None)
    ops = {}
    for a in case.indices:
        p = case.pos(a)
        mult, deriv = {}, {}
        for exp in labels:
            pos = ambient.index[exp]
            up = exp[:p] + (exp[p] + 1,) + exp[p + 1:]
            if up in ambient.index:
                mult[(ambient.index[up], pos)] = ONE
        pd = case.pos(-a)
        sign_a = Scalar.of(case.sign(a))
        for exp in labels:
            if exp[pd] > 0:
                dn = exp[:pd] + (exp[pd] - 1,) + exp[pd + 1:]
                if dn in ambient.index:
                    deriv[(ambient.index[dn], ambient.index[exp])] = sign_a * exp[pd]
        ops[("x", a)] = SparseOp(ambient.dim, ambient.dim, mult)
        ops[("d", a)] = SparseOp(ambient.dim, ambient.dim, deriv)
    layer_labels = [e for e in labels if sum(e) == two_l]
    layer = RepSpace(f"homog[{case.label()},2l={two_l}]", layer_labels,
                     [two_l] * len(layer_labels))
    return layer, GeneratorSet(case, ambient, ops)


def js_layer_generators(case: CaseDescriptor, two_l: int):
    """(layer, G): G_ab = -eps (x_a d_b - eps x_b d_a) on the degree-2l layer
    of `homogeneous_space`, formed from its generators on the ambient space.
    The build of sp, and for so(n) the reference of `js_monomial_generators`.
    The layer is one block of the ambient basis, from `off` on, and G keeps
    the degree, so its columns there are G on the layer."""
    layer, gens = homogeneous_space(case, two_l)
    off, dim = gens.space.index[layer.labels[0]], layer.dim
    g = {}
    for a in case.indices:
        for b in case.indices:
            amb = (gens.x(a) @ gens.d(b)).scale(Scalar.of(-case.eps)) + gens.x(b) @ gens.d(a)
            op = SparseOp(dim, dim, {(i - off, j - off): v for (i, j), v in amb.data.items()
                                     if off <= j < off + dim})
            if not op.is_zero:
                g[a, b] = op
    return layer, g


def _js_terms(case: CaseDescriptor, exp):
    """(key, image, v) for each term v x^image of G_ab x^exp, key = (a, b),
    a != b, G_ab = x_b d/dx_(-a) - x_a d/dx_(-b) of so(n); exponents are
    over the positions of case.indices."""
    for p, e in enumerate(exp):
        if e:
            c = case.indices[p]
            for v, b in enumerate(case.indices):
                if b != -c:
                    image = list(exp)
                    image[p] -= 1
                    image[v] += 1
                    image = tuple(image)
                    yield (-c, b), image, e
                    yield (b, -c), image, -e


def js_monomial_generators(case: CaseDescriptor, two_l: int, quotient: bool):
    """(labels, {(a, b): int SparseOp}): G of so(n) on the degree-2l
    monomials (exponent tuples, in `_graded_monomials` order), or with
    `quotient` on the standard monomials of P_2l / q P_(2l-2), every image
    reduced modulo q_hat (the rewrite and the proof are at `lops.build_js_quadratic`)."""
    n, pos = case.n, case.pos

    def monomial(*positions):
        return tuple(sum(p == i for p in positions) for i in range(n))

    qhat = {monomial(pos(i), pos(-i)): 1 + case.has_zero for i in range(1, case.m + 1)}
    lead = monomial(pos(0), pos(0)) if case.has_zero else monomial(pos(1), pos(-1))
    qhat[lead] = 1
    labels = _graded_monomials(n, [two_l])
    if quotient:
        moved = defaultdict(int)  # (a, b, monomial): its coefficient in G_ab q_hat
        for exp, c in qhat.items():
            for key, image, v in _js_terms(case, exp):
                moved[key, image] += c * v
        if any(moved.values()):
            raise ValueError("G does not kill the invariant quadratic q")
        labels = [exp for exp in labels if any(e < d for e, d in zip(exp, lead))]
    index = {exp: i for i, exp in enumerate(labels)}
    tail = [(exp, -c) for exp, c in qhat.items() if exp != lead]
    normal: dict = {}  # monomial: its normal form {row: int}

    def reduce(exp):
        if exp not in normal:
            if exp in index:
                normal[exp] = {index[exp]: 1}
            else:  # exp = lead * rest -> -(q_hat - lead) * rest
                rest = [e - d for e, d in zip(exp, lead)]
                out = normal[exp] = defaultdict(int)
                for t, c in tail:
                    for i, v in reduce(tuple(x + y for x, y in zip(t, rest))).items():
                        out[i] += c * v
        return normal[exp]

    blocks = defaultdict(lambda: defaultdict(int))
    for j, exp in enumerate(labels):
        for key, image, v in _js_terms(case, exp):
            for i, x in reduce(image).items():
                blocks[key][i, j] += v * x
    dim = len(labels)
    g = {(a, b): SparseOp(dim, dim, blocks[a, b]) for a in case.indices for b in case.indices}
    return labels, {key: op for key, op in g.items() if not op.is_zero}


# ---------------------------------------------------------------------------
# matrix-Heisenberg polynomial module (variables x^i_j, derivations d^i_j)


def heisenberg_variables(case: CaseDescriptor):
    m = case.m
    if case.family == "sp":
        return [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    return [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]


def heisenberg_space(case: CaseDescriptor, max_degree: int):
    """Polynomials of degree <= max_degree in the eps-antisymmetric matrix
    variables x^i_j (antisymmetric for so(2m), symmetric for sp(2m)).

    The derivation d^i_j is dual to x^i_j with
    [d^i_j, x^k_l] = delta^k_j delta^i_l - eps delta^i_k delta^j_l.
    Not available for so(2m+1).
    """
    if case.family == "so_odd":
        raise ValueError("matrix-Heisenberg module is not available for so(2m+1)")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    variables = heisenberg_variables(case)
    labels = _graded_monomials(len(variables), range(max_degree + 1))
    grade = [sum(e) for e in labels]
    space = RepSpace(f"heis[{case.label()},D={max_degree}]", labels, grade,
                     trunc=max_degree, meta={"variables": len(variables)})
    eps = case.eps
    ops = {}
    for v, (i, j) in enumerate(variables):
        mult = {}
        for exp in labels:
            up = exp[:v] + (exp[v] + 1,) + exp[v + 1:]
            if up in space.index:
                mult[(space.index[up], space.index[exp])] = ONE
        ops[("xm", i, j)] = SparseOp(space.dim, space.dim, mult)
    for (i, j) in variables:
        deriv = {}
        for exp in labels:
            pos = space.index[exp]
            for v, (k, l) in enumerate(variables):
                if exp[v] == 0:
                    continue
                # d^i_j applied to the canonical generator x^k_l
                dval = (1 if (k == j and i == l) else 0) - eps * (1 if (i == k and j == l) else 0)
                if dval == 0:
                    continue
                dn = exp[:v] + (exp[v] - 1,) + exp[v + 1:]
                axpy(deriv, dval * exp[v], {(space.index[dn], pos): ONE})
        ops[("dm", i, j)] = SparseOp(space.dim, space.dim, deriv)
    return space, GeneratorSet(case, space, ops)


# ---------------------------------------------------------------------------
# gl(2) oscillator layers for Jordan-Schwinger chains


def gl2_chain_space(excitations):
    """Tensor product of per-factor degree layers for a gl(2) chain.

    Factor k carries one canonical oscillator pair doublet and the fixed
    total degree d_k; its layer has basis x_1^(d-j) x_2^j, j = 0..d_k.
    Labels are tuples (j_1, ..., j_s).  The bilinears x_alpha d_beta of
    each factor act exactly on this product (degree per factor is
    conserved), so the space is closed.
    """
    degrees = list(excitations)
    labels = [()]
    for d in degrees:
        labels = [lab + (j,) for lab in labels for j in range(d + 1)]
    grade = [sum(lab) for lab in labels]
    space = RepSpace(f"gl2chain{tuple(degrees)}", labels, grade)
    ops = {}
    for k, d in enumerate(degrees):
        for alpha in (1, 2):
            for beta in (1, 2):
                data = {}
                for lab in labels:
                    j = lab[k]
                    pos = space.index[lab]
                    if alpha == 1 and beta == 1:
                        if d - j:
                            data[(pos, pos)] = Scalar.of(d - j)
                    elif alpha == 2 and beta == 2:
                        if j:
                            data[(pos, pos)] = Scalar.of(j)
                    elif alpha == 1 and beta == 2:
                        if j:
                            up = lab[:k] + (j - 1,) + lab[k + 1:]
                            data[(space.index[up], pos)] = Scalar.of(j)
                    else:
                        if d - j:
                            dn = lab[:k] + (j + 1,) + lab[k + 1:]
                            data[(space.index[dn], pos)] = Scalar.of(d - j)
                ops[("e", k, alpha, beta)] = SparseOp(space.dim, space.dim, data)
    return space, ops
