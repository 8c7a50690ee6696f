"""Explicit representation spaces and the generator operators on them.

Every space is a finite ordered basis with an integer grading.  Closed
spaces (fermionic Fock space, a fixed homogeneous layer, gl(2) oscillator
layers) carry `trunc = None`: every operator identity is exact everywhere.
Truncated spaces (bosonic Fock space, polynomial modules cut at degree D,
windowed layer neighbourhoods) carry `trunc`; an
identity whose evaluation can excurse k degrees beyond its input is then
asserted only on basis vectors at distance >= k from the cut, the "safe
subspace".  Graded operators make the boundary effects precisely
localizable, which is what makes this sound.

Monomial bases are ordered graded-lexicographically, which fixes every
basis-dependent serialization.  Every creation/annihilation pair is built
by one of two routines: `bosonic` (x_v, d/dx_v on exponent tuples) or
`fermionic` (Jordan-Wigner on bitmasks), and every bilinear x_v d/dx_w
(the JS generators, the gl(2) layers) by one rule on exponent tuples,
`_move`.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations_with_replacement

from .exact import ONE, Scalar, SparseOp, axpy
from .structure import CaseDescriptor


class RepSpace:
    """Finite ordered basis with grading and optional truncation window."""

    __slots__ = ("name", "labels", "index", "grade", "trunc", "meta")

    def __init__(self, name, labels, grade, trunc=None, meta=None):
        self.name = name
        self.labels = tuple(labels)
        self.index = {lab: k for k, lab in enumerate(self.labels)}
        self.grade = tuple(grade)
        self.trunc = trunc
        self.meta = dict(meta or {})

    @property
    def dim(self) -> int:
        return len(self.labels)

    def safe_indices(self, budget: int):
        """Basis positions on which a budget-k identity is boundary-free."""
        if self.trunc is None:
            return list(range(self.dim))
        return [k for k, g in enumerate(self.grade) if g <= self.trunc - budget]

    def summary(self) -> dict:
        info = {"name": self.name, "dimension": self.dim}
        if self.trunc is not None:
            info["truncation_degree"] = self.trunc
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
# the Fock routines: every generator set takes its x, d or c_a from these


def bosonic(space: RepSpace, v: int):
    """(x_v, d/dx_v): multiplication by the variable v and its derivative on
    the exponent-tuple labels of `space`; images outside the labels are
    dropped."""
    up, down = {}, {}
    for j, exp in enumerate(space.labels):
        e = exp[v]
        i = space.index.get(exp[:v] + (e + 1,) + exp[v + 1:])
        if i is not None:
            up[i, j] = ONE
        i = space.index.get(exp[:v] + (e - 1,) + exp[v + 1:])
        if i is not None:
            down[i, j] = Scalar.of(e)
    return SparseOp(space.dim, space.dim, up), SparseOp(space.dim, space.dim, down)


def fermionic(space: RepSpace, b: int):
    """(a_b^+, a_b): Jordan-Wigner creation and annihilation of mode b on the
    bitmask labels of `space`, with sign (-1)^(occupied modes below b)."""
    bit, create, annih = 1 << b, {}, {}
    for j, s in enumerate(space.labels):
        sign = -ONE if bin(s & (bit - 1)).count("1") % 2 else ONE
        if s & bit:
            annih[space.index[s ^ bit], j] = sign
        else:
            create[space.index[s | bit], j] = sign
    return SparseOp(space.dim, space.dim, create), SparseOp(space.dim, space.dim, annih)


# ---------------------------------------------------------------------------
# spinor space (Clifford / oscillator generators c_a)


def spinor_space(case: CaseDescriptor, trunc: int = 6):
    """Space carrying the c_a generators, c_(+-i) the creation and
    annihilation of mode i.

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
    m, name = case.m, f"spinor[{case.label()}]"
    if case.eps == 1:
        labels = range(2 ** m)
        space = RepSpace(name, labels, [bin(s).count("1") for s in labels])
        modes = [fermionic(space, p) for p in range(m)]
    else:  # occupation numbers, graded, each degree in ascending order
        labels = [lab for total in range(trunc + 1) for lab in _graded_monomials(m, [total])[::-1]]
        space = RepSpace(name, labels, [sum(lab) for lab in labels], trunc=trunc)
        modes = [bosonic(space, p) for p in range(m)]
    ops = {}
    for i in range(1, m + 1):
        ops["c", i], ops["c", -i] = modes[i - 1]
    if case.has_zero:
        even = [g % 2 == 0 for g in space.grade]
        ops = {key: SparseOp(space.dim, space.dim, {(i, j): v * 2 if even[j] else v
                                                    for (i, j), v in op.data.items()})
               for key, op in ops.items()}
        ops["c", 0] = SparseOp(space.dim, space.dim,
                               {(j, j): ONE if e else -ONE for j, e in enumerate(even)})
    return space, GeneratorSet(case, space, ops)


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


def homogeneous_space(case: CaseDescriptor, two_l: int):
    """Degree-2l layer of functions of x_a plus its generator set, x_a the
    creation of mode pos(a) and d_a = eps_a d/dx_(-a).

    Orthogonal: commuting variables, layer dimension C(2l+n-1, n-1); the
    generator set lives on the degree window [2l-1, 2l+1] so that the
    canonical pair relations can be checked around the layer.  Symplectic:
    anticommuting variables restricted to 2l in {0, 1}; the ambient space
    is the whole exterior algebra (dimension 2^n, exact, bitmask labels).

    Returns (layer, genset); genset.space is the ambient space.  No builder
    reads it: it is the tests' reference (`js_layer_generators`, the pinned
    generator sets) and `bench/spans.py` times it as `spaces.build`.
    """
    if two_l < 0:
        raise ValueError("two_l must be a nonnegative integer")
    n = case.n
    if case.family == "sp":
        if two_l > 1:
            raise ValueError("symplectic homogeneous layer requires two_l in {0, 1}")
        labels = sorted(range(2 ** n), key=lambda s: (bin(s).count("1"), s))
        ambient = RepSpace(f"grassmann[{case.label()}]", labels,
                           [bin(s).count("1") for s in labels])
        modes = [fermionic(ambient, p) for p in range(n)]
    else:
        labels = _graded_monomials(n, range(max(two_l - 1, 0), two_l + 2))
        ambient = RepSpace(f"polywindow[{case.label()}]", labels, [sum(e) for e in labels],
                           trunc=two_l + 1)
        modes = [bosonic(ambient, p) for p in range(n)]
    ops = {}
    for a in case.indices:
        ops["x", a] = modes[case.pos(a)][0]
        ops["d", a] = modes[case.pos(-a)][1].scale(case.sign(a))
    layer_labels = [lab for lab, g in zip(labels, ambient.grade) if g == two_l]
    layer = RepSpace(f"homog[{case.label()},2l={two_l}]", layer_labels,
                     [two_l] * len(layer_labels))
    return layer, GeneratorSet(case, ambient, ops)


def js_layer_generators(case: CaseDescriptor, two_l: int):
    """(layer, G): G_ab = -eps (x_a d_b - eps x_b d_a) on the degree-2l layer
    of `homogeneous_space`, formed from its generators on the ambient space:
    the tests' reference of `js_monomial_generators` for every family.  The
    layer is one block of the ambient basis, from `off` on, and G keeps the
    degree, so its columns there are G on the layer."""
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


def _move(exp, v: int, w: int):
    """x_v d/dx_w on the monomial x^exp: (exp[w], the exponents with one
    unit moved from position w to position v)."""
    image = list(exp)
    image[w] -= 1
    image[v] += 1
    return exp[w], tuple(image)


def _js_terms(case: CaseDescriptor, exp):
    """(key, image, v) for each term v x^image of G_ab x^exp, key = (a, b),
    G_ab = -eps (x_a d_b - eps x_b d_a), d_a = eps_a d/dx_(-a); exponents
    are over the positions of case.indices.  On so(n) the two terms of
    G_(-c,-c) cancel and are skipped.  For sp the variables anticommute, so
    this holds only on degree <= 1, where a monomial has at most one Grassmann factor."""
    for p, c in enumerate(case.indices):
        if exp[p]:
            sign = case.sign(-c)
            for v, b in enumerate(case.indices):
                if b == -c and case.eps == 1:
                    continue
                e, image = _move(exp, v, p)
                yield (-c, b), image, sign * e
                yield (b, -c), image, -case.eps * sign * e


def js_monomial_generators(case: CaseDescriptor, two_l: int, cyclic: bool):
    """(labels, {(a, b): int SparseOp}): G (`_js_terms`) on the degree-2l
    monomials (exponent tuples, in `_graded_monomials` order; for sp 2l is
    0 or 1, where the exterior layer has the same basis), or with
    `cyclic` on the cyclic module of x_(-1)^(2l): for n >= 3 the standard
    monomials of P_2l / q P_(2l-2), every image reduced modulo q_hat, for
    so(2) the monomial x_(-1)^(2l) alone (the rewrite and the proofs are at
    `lops.build_js_quadratic`)."""
    n, pos = case.n, case.pos

    def monomial(*positions):
        return tuple(sum(p == i for p in positions) for i in range(n))

    qhat = {monomial(pos(i), pos(-i)): 1 + case.has_zero for i in range(1, case.m + 1)}
    lead = monomial(pos(0), pos(0)) if case.has_zero else monomial(pos(1), pos(-1))
    qhat[lead] = 1
    labels = _graded_monomials(n, [two_l])
    if cyclic:
        moved = defaultdict(int)  # (a, b, monomial): its coefficient in G_ab q_hat
        for exp, c in qhat.items():
            for key, image, v in _js_terms(case, exp):
                moved[key, image] += c * v
        if any(moved.values()):
            raise ValueError("G does not kill the invariant quadratic q")
        if n == 2:
            labels = [monomial(*[pos(-1)] * two_l)]
        else:
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

    The derivation d^i_j = sum_w dval(i, j, w) d/dx_w is dual to x^i_j:
    dval(i, j, w) = [d^i_j, x^k_l] = delta^k_j delta^i_l - eps delta^i_k delta^j_l
    for the variable w = (k, l).
    Not available for so(2m+1).
    """
    if case.family == "so_odd":
        raise ValueError("matrix-Heisenberg module is not available for so(2m+1)")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    variables = heisenberg_variables(case)
    labels = _graded_monomials(len(variables), range(max_degree + 1))
    space = RepSpace(f"heis[{case.label()},D={max_degree}]", labels, [sum(e) for e in labels],
                     trunc=max_degree, meta={"variables": len(variables)})
    modes = [bosonic(space, v) for v in range(len(variables))]
    ops = {("xm", i, j): modes[v][0] for v, (i, j) in enumerate(variables)}
    for i, j in variables:
        deriv = {}
        for w, (k, l) in enumerate(variables):
            # d^i_j applied to the canonical generator x^k_l
            dval = (k == j and i == l) - case.eps * (i == k and j == l)
            if dval:
                axpy(deriv, dval, modes[w][1].data)
        ops["dm", i, j] = SparseOp(space.dim, space.dim, deriv)
    return space, GeneratorSet(case, space, ops)


# ---------------------------------------------------------------------------
# gl(2) oscillator layers for Jordan-Schwinger chains


def gl2_chain_space(excitations):
    """Tensor product of per-factor degree layers for a gl(2) chain.

    Factor k carries one canonical oscillator pair doublet and the fixed
    total degree d_k; its layer has basis x_1^(d-j) x_2^j, j = 0..d_k.
    Labels are tuples (j_1, ..., j_s).  e_(alpha beta) = x_alpha
    d/dx_beta of each factor is `_move` on the exponents (d - j, j); it
    conserves the degree per factor, so the space is closed.
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
                for pos, lab in enumerate(labels):
                    v, (_, j) = _move((d - lab[k], lab[k]), alpha - 1, beta - 1)
                    if v:
                        data[space.index[lab[:k] + (j,) + lab[k + 1:]], pos] = Scalar.of(v)
                ops[("e", k, alpha, beta)] = SparseOp(space.dim, space.dim, data)
    return space, ops
