"""Exact rational arithmetic.

A scalar is a rational p / r stored with integers p and r >= 1,
gcd(p, r) == 1.  All operations are closed, equality is exact and nothing
here ever touches floating point; tolerance for every comparison in this
package is therefore literally zero.  Every construction of the package
is rational: the two whose textbook form has irrational entries (the
so(2m+1) spinor and the so(3) fusion) are built in a basis where every
entry is rational (see `spaces.spinor_space` and `lops.fuse_so3_from_gl2`).

Polynomials come in two flavours:

  UniPoly  -- dense ascending coefficient tuple in the variable u,
              trailing zeros stripped, degree of the zero polynomial
              is the -inf sentinel.
  BiPoly   -- sparse {(deg_u, deg_v): Scalar} map in (u, v).

SparseOp is a minimal exact sparse matrix ({(row, col): Scalar} plus
explicit dimensions).  It is deliberately dumb: no fill-in heuristics,
no reordering, just exact dict arithmetic.  Everything is immutable in
practice (ops build new objects), so values can be shared freely.
Entries may also be plain ints: `clear_opmats` turns operator matrices into
integer ones times a known 1/D.  Zero tests use truthiness, so every method
works on either entry type.

The one sparse product kernel works on such int blocks: `int_columns`
indexes blocks {(f, d): A} by the columns of their contracted index d, and
`scatter` sums sign A[f, d] @ Y over terms (d, c, sign, Y) by scattering
every nonzero of Y through that index, on plain ints, with no Scalar made.
The identity engine and the block kernel (`structure`), the contractions
and the span closures (`lops`), and through them every check, form their
products on it; `SparseOp.__matmul__` is left to the builders.

VectorSpan is the one exact elimination: sparse primitive integer rows in
echelon form, grown one vector at a time by fraction-free reduction, so
no Scalar is made while a span grows.  Cyclic spans, the restriction to a
submodule and the nullspace all run on it, the last two reading their
answers off its reduced echelon basis (`reduced`, the one back-substitution);
`clear_vector` turns a sparse vector into the int form it works on.
"""

from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from math import gcd, lcm

NEG_INF = float("-inf")  # degree sentinel for the zero polynomial
_SCALAR_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """Rational p/r, canonically normalized.

    The constructor keeps the positional shape Scalar(p, q, r) of its
    callers (`Scalar(1, 0, 2)` is 1/2); q must be 0.
    """

    __slots__ = ("p", "r")

    def __new__(cls, p=0, q=0, r=1):
        if q:
            raise ValueError("a Scalar is rational: q must be 0")
        if r == 0:
            raise ZeroDivisionError("scalar with zero denominator")
        if r < 0:
            p, r = -p, -r
        g = gcd(p, r)
        if g > 1:
            p //= g
            r //= g
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)
        return self

    # construction helpers ---------------------------------------------------

    @classmethod
    def of(cls, value) -> "Scalar":
        """Coerce an int, Fraction or Scalar; floats are rejected."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, int):
            return cls(value, 0, 1)
        if isinstance(value, Fraction):
            return cls(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot coerce {type(value).__name__} to Scalar")

    @classmethod
    def rational(cls, num, den=1) -> "Scalar":
        return cls(num, 0, den)

    @classmethod
    def from_string(cls, text: str) -> "Scalar":
        """Parse 'a' or 'a/b' (a signed, b positive).

        This is exactly the form `to_string` emits, with an optional
        denominator and surrounding blanks; anything else is a ValueError.
        """
        match = _SCALAR_RE.fullmatch(text.strip())
        if match is None:
            raise ValueError(f"not a scalar a[/b]: {text!r}")
        a, b = match.groups()
        if b is not None and int(b) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return cls(int(a), 0, int(b or 1))

    # predicates and parts ----------------------------------------------------

    def __bool__(self):
        return self.p != 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.r)

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            return Scalar(self.p + other * self.r, 0, self.r)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.r + other.p * self.r, 0, self.r * other.r)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.p, 0, self.r)

    def __sub__(self, other):
        if isinstance(other, int):
            return Scalar(self.p - other * self.r, 0, self.r)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.r - other.p * self.r, 0, self.r * other.r)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Scalar(self.p * other, 0, self.r)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.p, 0, self.r * other.r)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if self.p == 0:
            raise ZeroDivisionError("scalar has no inverse")
        return Scalar(self.r, 0, self.p)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Scalar(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return Scalar.of(other) * self.inv()

    # comparisons / hashing -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.r == 1 and self.p == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.p == other.p and self.r == other.r

    def __hash__(self):
        return hash(Fraction(self.p, self.r))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        return f"{self.p}/{self.r}"


ZERO = Scalar(0)
ONE = Scalar(1)


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly:
    """Dense exact polynomial in u over Q, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Scalar) else Scalar.of(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "UniPoly":
        return cls([Scalar.of(value)])

    @classmethod
    def u(cls) -> "UniPoly":
        return cls([ZERO, ONE])

    @classmethod
    def monomial(cls, k: int, coeff=ONE) -> "UniPoly":
        return cls([ZERO] * k + [Scalar.of(coeff)])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def lead(self) -> Scalar:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Scalar:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Scalar)):
            other = UniPoly.const(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = UniPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            s = Scalar.of(other)
            return UniPoly([c * s for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UniPoly()
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca.is_zero:
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return UniPoly(out)

    __rmul__ = __mul__

    def eval(self, x: Scalar) -> Scalar:
        """Horner evaluation."""
        x = Scalar.of(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_linear(self, a, b) -> "UniPoly":
        """p(a*u + b), exact."""
        arg = UniPoly([Scalar.of(b), Scalar.of(a)])
        acc = UniPoly()
        for c in reversed(self.coeffs):
            acc = acc * arg + UniPoly.const(c)
        return acc

    def shift(self, c) -> "UniPoly":
        """p(u + c)."""
        return self.compose_linear(ONE, c)

    def reflect(self) -> "UniPoly":
        """p(-u)."""
        return UniPoly([(-c if k % 2 else c) for k, c in enumerate(self.coeffs)])

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        inv = self.lead().inv()
        return UniPoly([c * inv for c in self.coeffs])

    def divmod(self, other: "UniPoly"):
        """Exact polynomial division with remainder over the field."""
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly(), self
        quot = [ZERO] * (dq + 1)
        inv_lead = other.lead().inv()
        for k in range(dq, -1, -1):
            c = rem[k + len(other.coeffs) - 1] * inv_lead
            quot[k] = c
            if not c.is_zero:
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "UniPoly") -> "UniPoly":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    def to_strings(self):
        return [c.to_string() for c in self.coeffs]

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            at = "" if k == 0 else ("u" if k == 1 else f"u^{k}")
            terms.append(f"({c}){at}" if at else f"({c})")
        return " + ".join(terms)

    def __repr__(self):
        return f"UniPoly({self})"


def poly_eval(p: UniPoly, x) -> Scalar:
    """Exact value of p at x."""
    return p.eval(Scalar.of(x))


def reduce_ratio(num: UniPoly, den: UniPoly):
    """Cancel the gcd and scale so the denominator is monic.

    The value num/den is unchanged; the output pair is canonical.
    """
    if den.is_zero:
        raise ZeroDivisionError("ratio with zero denominator")
    g = num.gcd(den)
    if not g.is_zero and g.degree > 0:
        num = num // g
        den = den // g
    if den.is_zero:
        raise ZeroDivisionError("ratio with zero denominator")
    inv = den.lead().inv()
    return num * inv, den * inv


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(p: UniPoly):
    """All rational roots of p with multiplicities, plus the unfactored rest.

    Returns a dict {root Scalar: multiplicity} and the remainder
    polynomial left after dividing out every (u - root) factor (a constant
    when p splits).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    roots: dict[Scalar, int] = {}
    work = p
    # roots at zero first
    nzeros = 0
    while not work.coeffs[0]:
        work = UniPoly(work.coeffs[1:])
        nzeros += 1
    if nzeros:
        roots[ZERO] = nzeros
    if work.degree == 0:
        return roots, work
    # integerize and enumerate candidates num/den with num | a0, den | a_top
    denoms = common_denominator(work.coeffs)
    ints = [c.p * (denoms // c.r) for c in work.coeffs]
    candidates = set()
    for num in _divisors(ints[0]):
        for den in _divisors(ints[-1]):
            candidates.add(Fraction(num, den))
            candidates.add(Fraction(-num, den))
    for cand in sorted(candidates):
        root = Scalar.rational(cand.numerator, cand.denominator)
        while work.degree >= 1 and work.eval(root).is_zero:
            roots[root] = roots.get(root, 0) + 1
            work = work // UniPoly([-root, ONE])
    return roots, work


# ---------------------------------------------------------------------------
# bivariate polynomials


class BiPoly:
    """Sparse exact polynomial in (u, v): {(deg_u, deg_v): Scalar}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, val in terms.items():
                val = Scalar.of(val)
                if not val.is_zero:
                    data[key] = val
        self.terms = data

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        res = BiPoly()
        res.terms = dict(self.terms)
        axpy(res.terms, 1, other.terms)
        return res

    def __neg__(self):
        res = BiPoly()
        res.terms = {k: -v for k, v in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            s = Scalar.of(other)
            return BiPoly({k: v * s for k, v in self.terms.items()})
        res = BiPoly()
        res.terms = {}
        for (a, b), va in self.terms.items():
            axpy(res.terms, va, {(a + c, b + d): vb for (c, d), vb in other.terms.items()})
        return res

    __rmul__ = __mul__

    def subs_v(self, value) -> UniPoly:
        """Substitute v -> constant, yielding a UniPoly in u."""
        value = Scalar.of(value)
        out: dict[int, Scalar] = {}
        for (du, dv), coeff in self.terms.items():
            term = coeff
            for _ in range(dv):
                term = term * value
            out[du] = out.get(du, ZERO) + term
        top = max(out, default=-1)
        return UniPoly([out.get(k, ZERO) for k in range(top + 1)])

    def eval(self, u_val, v_val) -> Scalar:
        return self.subs_v(v_val).eval(u_val)

    def to_strings(self):
        return {f"{du},{dv}": c.to_string() for (du, dv), c in sorted(self.terms.items())}

    def __repr__(self):
        if self.is_zero:
            return "BiPoly(0)"
        bits = [f"({c})u^{a}v^{b}" for (a, b), c in sorted(self.terms.items())]
        return "BiPoly(" + " + ".join(bits) + ")"


# ---------------------------------------------------------------------------
# sparse exact matrices


class SparseOp:
    """Exact sparse matrix over Q with explicit dimensions."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data=None):
        self.nrows = nrows
        self.ncols = ncols
        if data is None:
            self.data = {}
        else:
            self.data = {k: v for k, v in data.items() if v}

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "SparseOp":
        return cls(nrows, ncols)

    @classmethod
    def identity(cls, n: int, scale=ONE) -> "SparseOp":
        s = Scalar.of(scale)
        if s.is_zero:
            return cls(n, n)
        return cls(n, n, {(i, i): s for i in range(n)})

    @classmethod
    def from_columns(cls, nrows: int, vectors) -> "SparseOp":
        """The sparse vectors {index: entry} as the columns of a SparseOp."""
        vectors = list(vectors)
        return cls(nrows, len(vectors), {(i, j): v for j, vec in enumerate(vectors)
                                         for i, v in vec.items()})

    @property
    def is_zero(self) -> bool:
        return not self.data

    def nnz(self) -> int:
        return len(self.data)

    def __eq__(self, other):
        if not isinstance(other, SparseOp):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and self.data == other.data

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch in add")
        res = SparseOp(self.nrows, self.ncols)
        res.data = dict(self.data)
        axpy(res.data, 1, other.data)
        return res

    def __neg__(self):
        res = SparseOp(self.nrows, self.ncols)
        res.data = {k: -v for k, v in self.data.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s) -> "SparseOp":
        s = Scalar.of(s)
        if s.is_zero:
            return SparseOp(self.nrows, self.ncols)
        res = SparseOp(self.nrows, self.ncols)
        res.data = {k: v * s for k, v in self.data.items()}
        return res

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def rows(self):
        """Row-major view {row: {col: val}}, built on demand."""
        out: dict[int, dict[int, Scalar]] = {}
        for (i, j), v in self.data.items():
            out.setdefault(i, {})[j] = v
        return out

    def __matmul__(self, other: "SparseOp") -> "SparseOp":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        brows = other.rows()
        out: dict = {}
        for (i, k), a in self.data.items():
            row = brows.get(k)
            if row is None:
                continue
            for j, b in row.items():
                key = (i, j)
                prod = a * b
                acc = out.get(key)
                acc = prod if acc is None else acc + prod
                if not acc:
                    out.pop(key, None)
                else:
                    out[key] = acc
        res = SparseOp(self.nrows, other.ncols)
        res.data = out
        return res

    def kron(self, other: "SparseOp") -> "SparseOp":
        res = SparseOp(self.nrows * other.nrows, self.ncols * other.ncols)
        data = {}
        on, om = other.nrows, other.ncols
        for (i, j), a in self.data.items():
            for (k, l), b in other.data.items():
                data[(i * on + k, j * om + l)] = a * b
        res.data = data
        return res

    def apply(self, vec: dict) -> dict:
        """Apply to a sparse column vector {index: Scalar}."""
        cols: dict = {}
        for (i, j), a in self.data.items():
            if j in vec:
                cols.setdefault(j, {})[i] = a
        out: dict[int, Scalar] = {}
        for j, col in cols.items():
            axpy(out, vec[j], col)
        return out

    def restrict_cols(self, cols) -> "SparseOp":
        keep = set(cols)
        res = SparseOp(self.nrows, self.ncols)
        res.data = {k: v for k, v in self.data.items() if k[1] in keep}
        return res

    def __repr__(self):
        return f"SparseOp({self.nrows}x{self.ncols}, nnz={len(self.data)})"


def common_denominator(values):
    """lcm of the denominators of Scalars (1 for none)."""
    return lcm(*{v.r for v in values})


def clear_opmats(mats):
    """(int_mats, d): the opmats `mats` ({key: SparseOp}) times d, with plain
    int entries, d the lcm of every entry's denominator over all of them, so
    int_mats[i] / d == mats[i]: the one way an opmat list is cleared."""
    d = common_denominator(v for mat in mats for op in mat.values() for v in op.data.values())

    def cleared(op):
        res = SparseOp(op.nrows, op.ncols)
        res.data = {k: v.p * (d // v.r) for k, v in op.data.items()}
        return res
    return [{key: cleared(op) for key, op in mat.items()} for mat in mats], d


def clear_vector(vec: dict) -> dict:
    """The sparse vector `vec` ({index: Scalar or int}) times the lcm of its
    entries' denominators, with int entries and no zeros."""
    dens = [v.r for v in vec.values() if not isinstance(v, int)]
    if not dens:
        return {j: v for j, v in vec.items() if v}
    d = lcm(*dens)
    return {j: v * d if isinstance(v, int) else v.p * (d // v.r)
            for j, v in vec.items() if v}


def int_columns(blocks: dict, cols=None) -> dict:
    """{(d, k): [(f, i, v), ...]}: every entry v at (i, k) of the block keyed
    (f, d) of the int blocks {(f, d): SparseOp}, listed under the column k of
    its block's second index d, in block and entry order (only the columns
    k in `cols`, when given)."""
    columns: dict = {}
    for (f, d), op in blocks.items():
        for (i, k), v in op.data.items():
            if cols is not None and k not in cols:
                continue
            columns.setdefault((d, k), []).append((f, i, v))
    return columns


def scatter(columns: dict, terms, acc=None, swap: bool = False) -> dict:
    """{(f, c, i, j): int}: the sum of sign * A[f, d] @ Y over the terms
    (d, c, sign, Y), A the int blocks whose `int_columns` are `columns` and
    each Y an int SparseOp (sign an int); added into `acc` when given, and
    keyed (c, f, i, j) with `swap`.

    The one sparse product kernel (Gustavson's column-oriented product,
    ACM TOMS 4(3), 1978): each nonzero Y[k, j] is scattered through the
    column (d, k), so only the columns that Y uses are touched.  Entries
    that cancel stay in as 0; callers drop them."""
    acc = {} if acc is None else acc
    for d, c, sign, op in terms:
        for (k, j), x in op.data.items():
            col = columns.get((d, k))
            if col is None:
                continue
            if sign != 1:
                x *= sign
            for f, i, a in col:
                key = (c, f, i, j) if swap else (f, c, i, j)
                acc[key] = acc.get(key, 0) + a * x
    return acc


def axpy(acc: dict, c, data: dict) -> None:
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


class VectorSpan:
    """Exact span of sparse vectors with incremental echelon insertion.

    Rows are primitive integer vectors: gcd 1 and a positive entry (the
    lead) at the pivot, their minimal index.  Pivots are pairwise distinct
    and kept sorted, so membership follows by forward substitution in
    pivot order; a row holds indices >= its pivot, so only the pivots where
    the vector is nonzero are visited.  Elimination is fraction-free
    (Bareiss, Math. Comp. 22, 1968): at each pivot p it meets,
    v <- lead v - v[p] row, both factors divided by their gcd.

    A span does not see a nonzero scale, so `add` clears its vector to ints
    and inserts the remainder made primitive.  By induction each row is a
    nonzero multiple of the leading-one row that elimination over Q inserts
    (the remainder that vanishes at every pivot is unique up to that
    scale), with the same pivots in the same order; `vectors` reads the
    rows off as row / lead, and `reduced` back-substitutes them into the
    reduced echelon basis.
    """

    __slots__ = ("pivots", "rows")

    def __init__(self):
        self.pivots = []  # sorted
        self.rows = {}    # {pivot: {index: int}}

    def reduce(self, vec: dict) -> dict:
        """Int V, a positive multiple of vec minus the multiples of the
        leading-one rows that clear its entries at their pivots, in pivot
        order: empty exactly when vec is in the span."""
        vec = clear_vector(vec)
        rows = self.rows
        todo = sorted(j for j in vec if j in rows)  # pivots where vec may be nonzero
        while todo:
            piv = todo.pop(0)
            a = vec.get(piv)
            if a is None:
                continue
            row = rows[piv]
            lead = row[piv]
            g = gcd(a, lead)
            if g != lead:
                scale = lead // g
                vec = {j: v * scale for j, v in vec.items()}
            a //= g
            for j, v in row.items():
                acc = vec.get(j)
                if acc is None:
                    vec[j] = -a * v
                    if j in rows:
                        insort(todo, j)
                elif acc == a * v:
                    del vec[j]
                else:
                    vec[j] = acc - a * v
        return vec

    def add(self, vec: dict) -> bool:
        """Insert if independent; returns True when the span grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        g = gcd(*vec.values())
        if vec[piv] < 0:
            g = -g
        if g != 1:
            vec = {j: v // g for j, v in vec.items()}
        insort(self.pivots, piv)
        self.rows[piv] = vec
        return True

    def vectors(self):
        """The leading-one rows row / lead, in pivot order."""
        rows = self.rows
        return [{j: Scalar(v, 0, rows[piv][piv]) for j, v in rows[piv].items()}
                for piv in self.pivots]

    def reduced(self) -> list:
        """The reduced echelon basis, unique: the leading-one rows with their
        entries at the later pivots cleared, in pivot order, reduced last
        pivot first.  A reduced row vanishes at every other pivot, so a
        vector of the span has its entries at the pivots as coordinates."""
        rows = dict(zip(self.pivots, self.vectors()))
        for piv in reversed(self.pivots):
            row = rows[piv]
            for q in [j for j in row if j != piv and j in rows]:
                axpy(row, -row[q], rows[q])
        return [rows[piv] for piv in self.pivots]

    def __len__(self):
        return len(self.rows)


def op_columns(ops) -> dict:
    """{j: [(k, row, int), ...]}: `int_columns` of the SparseOps `ops` as the
    blocks (k, 0), cleared with one lcm (`clear_opmats`), keyed by the
    column j alone (an int key for the closure's hot loop)."""
    (ints,), _ = clear_opmats([{(k, 0): op for k, op in enumerate(ops)}])
    return {j: col for (_, j), col in int_columns(ints).items()}


def close_span(span, vectors, columns) -> None:
    """Grow the VectorSpan `span` by `vectors` and all their images under
    products of the ops whose `op_columns` are `columns`, one queue of
    int vectors still to insert, each image pushed in the order of its op.
    Ops and seeds are taken times nonzero integers, which change no span,
    so every `add` decides as over Q.  An image touches only the columns
    where its vector is nonzero."""
    queue = [clear_vector(v) for v in vectors]
    while queue:
        vec = queue.pop()
        if not span.add(vec):
            continue
        images: dict = {}
        for j, x in vec.items():
            for k, i, a in columns.get(j, ()):
                image = images.get(k)
                if image is None:
                    image = images[k] = {}
                acc = image.get(i, 0) + a * x
                if acc:
                    image[i] = acc
                else:
                    del image[i]
        queue.extend(image for _, image in sorted(images.items()) if image)


def nullspace(rows, ncols: int):
    """Exact nullspace basis of a stacked row list over Q.

    `rows` is an iterable of {col: Scalar} sparse rows.  Returns one dense
    coefficient list per non-pivot column fc of the echelon form, with a
    one at fc and zeros at the other non-pivot columns: the basis read off
    the reduced echelon form (`VectorSpan.reduced`), which is unique: its
    row at pivot p gives x_p = -row_p[fc] when x_fc = 1.
    """
    span = VectorSpan()
    for row in rows:
        span.add(row)
    echelon = list(zip(span.pivots, span.reduced()))
    basis = []
    for fc in (j for j in range(ncols) if j not in span.rows):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for piv, row in echelon:
            if fc in row:
                vec[piv] = -row[fc]
        basis.append(vec)
    return basis
