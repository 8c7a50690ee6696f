"""Exact arithmetic over the quadratic field Q(sqrt 2).

A scalar is stored as (p + q*sqrt2) / r with integers p, q and r >= 1,
gcd(p, q, r) == 1.  All operations are closed, equality is exact and
nothing here ever touches floating point; tolerance for every comparison
in this package is therefore literally zero.

Polynomials come in two flavours:

  UniPoly  -- dense ascending coefficient tuple in the variable u,
              trailing zeros stripped, degree of the zero polynomial
              is the -inf sentinel.
  BiPoly   -- sparse {(deg_u, deg_v): Scalar} map in (u, v).

SparseOp is a minimal exact sparse matrix ({(row, col): Scalar} plus
explicit dimensions).  It is deliberately dumb: no fill-in heuristics,
no reordering, just exact dict arithmetic.  Everything is immutable in
practice (ops build new objects), so values can be shared freely.
Entries may also be plain ints: `clear_denominators` turns rational
operators into integer ones times a known 1/D, which the identity engine
multiplies and accumulates without normalizing a Scalar per operation.
Zero tests use truthiness, so every method works on either entry type.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

NEG_INF = float("-inf")  # degree sentinel for the zero polynomial
_SCALAR_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?(?:([+-])([0-9]+)(?:/([0-9]+))?\*s2)?")


# ---------------------------------------------------------------------------
# scalars


class Scalar:
    """Element (p + q*sqrt2)/r of Q(sqrt2), canonically normalized."""

    __slots__ = ("p", "q", "r")

    def __new__(cls, p=0, q=0, r=1):
        if r == 0:
            raise ZeroDivisionError("scalar with zero denominator")
        if r < 0:
            p, q, r = -p, -q, -r
        g = gcd(gcd(p, q), r)
        if g > 1:
            p //= g
            q //= g
            r //= g
        self = object.__new__(cls)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
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
        """Parse 'a', 'a/b', 'a+c*s2' or 'a/b+c/d*s2' ('-' for either sign).

        This is exactly the form `to_string` emits, with optional
        denominators and surrounding blanks; anything else is a ValueError.
        """
        match = _SCALAR_RE.fullmatch(text.strip())
        if match is None:
            raise ValueError(f"not a scalar a[/b][(+|-)c[/d]*s2]: {text!r}")
        a, b, sign, c, d = match.groups()
        b, d = int(b or 1), int(d or 1)
        if b == 0 or d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        rat = Fraction(int(a), b)
        rad = Fraction(int(sign + c) if c else 0, d)
        den = rat.denominator * rad.denominator // gcd(rat.denominator, rad.denominator)
        return cls(rat.numerator * (den // rat.denominator),
                   rad.numerator * (den // rad.denominator), den)

    # predicates and parts ----------------------------------------------------

    def __bool__(self):
        return self.p != 0 or self.q != 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError(f"{self} carries a sqrt2 component")
        return Fraction(self.p, self.r)

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            return Scalar(self.p + other * self.r, self.q, self.r)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.r + other.p * self.r,
                      self.q * other.r + other.q * self.r,
                      self.r * other.r)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(-self.p, -self.q, self.r)

    def __sub__(self, other):
        if isinstance(other, int):
            return Scalar(self.p - other * self.r, self.q, self.r)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.r - other.p * self.r,
                      self.q * other.r - other.q * self.r,
                      self.r * other.r)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Scalar(self.p * other, self.q * other, self.r)
        if not isinstance(other, Scalar):
            return NotImplemented
        return Scalar(self.p * other.p + 2 * self.q * other.q,
                      self.p * other.q + self.q * other.p,
                      self.r * other.r)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        # 1/((p + q*s2)/r) = r (p - q*s2) / (p^2 - 2 q^2)
        norm = self.p * self.p - 2 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("scalar has no inverse")
        return Scalar(self.r * self.p, -self.r * self.q, norm)

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
            return self.r == 1 and self.q == 0 and self.p == other
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.r == other.r

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.r))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        rat = Fraction(self.p, self.r)
        rad = Fraction(self.q, self.r)
        out = f"{rat.numerator}/{rat.denominator}"
        if rad:
            sign = "+" if rad > 0 else "-"
            rad = abs(rad)
            out += f"{sign}{rad.numerator}/{rad.denominator}*s2"
        return out


ZERO = Scalar(0)
ONE = Scalar(1)
HALF = Scalar(1, 0, 2)
SQRT2 = Scalar(0, 1, 1)


# ---------------------------------------------------------------------------
# univariate polynomials


class UniPoly:
    """Dense exact polynomial in u over Q(sqrt2), ascending coefficients."""

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

    Coefficients must be free of sqrt2 components.  Returns a dict
    {root Scalar: multiplicity} and the remainder polynomial left after
    dividing out every (u - root) factor (a constant when p splits).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    for c in p.coeffs:
        if not c.is_rational:
            raise ValueError("coefficients carry a sqrt2 component")
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
    denoms = 1
    for c in work.coeffs:
        f = c.as_fraction()
        denoms = denoms * f.denominator // gcd(denoms, f.denominator)
    ints = [int(c.as_fraction() * denoms) for c in work.coeffs]
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
        out = dict(self.terms)
        for key, val in other.terms.items():
            acc = out.get(key, ZERO) + val
            if acc.is_zero:
                out.pop(key, None)
            else:
                out[key] = acc
        res = BiPoly()
        res.terms = out
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
        out: dict = {}
        for (a, b), va in self.terms.items():
            for (c, d), vb in other.terms.items():
                key = (a + c, b + d)
                acc = out.get(key, ZERO) + va * vb
                if acc.is_zero:
                    out.pop(key, None)
                else:
                    out[key] = acc
        res = BiPoly()
        res.terms = out
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
    """Exact sparse matrix over Q(sqrt2) with explicit dimensions."""

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
        out = dict(self.data)
        for key, val in other.data.items():
            acc = out.get(key)
            acc = val if acc is None else acc + val
            if not acc:
                out.pop(key, None)
            else:
                out[key] = acc
        res = SparseOp(self.nrows, self.ncols)
        res.data = out
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

    def transpose(self) -> "SparseOp":
        res = SparseOp(self.ncols, self.nrows)
        res.data = {(j, i): v for (i, j), v in self.data.items()}
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
        out: dict[int, Scalar] = {}
        for (i, j), a in self.data.items():
            x = vec.get(j)
            if x is None:
                continue
            acc = out.get(i, ZERO) + a * x
            if acc.is_zero:
                out.pop(i, None)
            else:
                out[i] = acc
        return out

    def restrict_cols(self, cols) -> "SparseOp":
        keep = set(cols)
        res = SparseOp(self.nrows, self.ncols)
        res.data = {k: v for k, v in self.data.items() if k[1] in keep}
        return res

    def is_zero_on_cols(self, cols) -> bool:
        keep = set(cols)
        return all(j not in keep for (_, j) in self.data)

    def first_entry_on_cols(self, cols):
        """Lexicographically first nonzero (row, col) with col in cols."""
        keep = set(cols)
        best = None
        for key in self.data:
            if key[1] in keep and (best is None or key < best):
                best = key
        return best

    def __repr__(self):
        return f"SparseOp({self.nrows}x{self.ncols}, nnz={len(self.data)})"


def common_denominator(values):
    """lcm of the denominators of Scalars, or None if one carries sqrt2."""
    dens = set()
    for v in values:
        if v.q:
            return None
        dens.add(v.r)
    return lcm(*dens)


def clear_denominators(ops):
    """(int_ops, d): the SparseOps `ops` times d, with plain int entries.

    d is the lcm of every entry's denominator, so int_ops / d == ops.
    If an entry carries sqrt2 the ops come back unchanged with d = 1.
    """
    d = common_denominator(v for op in ops for v in op.data.values())
    if d is None:
        return list(ops), 1
    out = []
    for op in ops:
        res = SparseOp(op.nrows, op.ncols)
        res.data = {k: v.p * (d // v.r) for k, v in op.data.items()}
        out.append(res)
    return out, d


class VectorSpan:
    """Exact span of sparse vectors with incremental echelon insertion.

    Rows keep a leading one at their pivot (minimal index) and pivots are
    pairwise distinct, so membership/coordinates follow by forward
    substitution in pivot order.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []  # sorted list of (pivot, {index: Scalar})

    def reduce(self, vec: dict) -> dict:
        vec = {k: v for k, v in vec.items() if not v.is_zero}
        for piv, row in self.rows:
            c = vec.get(piv)
            if c is None or c.is_zero:
                continue
            for j, v in row.items():
                acc = vec.get(j, ZERO) - c * v
                if acc.is_zero:
                    vec.pop(j, None)
                else:
                    vec[j] = acc
        return vec

    def add(self, vec: dict) -> bool:
        """Insert if independent; returns True when the span grew."""
        vec = self.reduce(vec)
        if not vec:
            return False
        piv = min(vec)
        inv = vec[piv].inv()
        vec = {j: v * inv for j, v in vec.items()}
        self.rows.append((piv, vec))
        self.rows.sort(key=lambda item: item[0])
        return True

    def coordinates(self, vec: dict):
        """Coefficients of vec in the row basis; raises if not in the span."""
        vec = dict(vec)
        out = []
        for piv, row in self.rows:
            c = vec.get(piv, ZERO)
            out.append(c)
            if not c.is_zero:
                for j, v in row.items():
                    acc = vec.get(j, ZERO) - c * v
                    if acc.is_zero:
                        vec.pop(j, None)
                    else:
                        vec[j] = acc
        if vec:
            raise ValueError("vector is not in the span")
        return out

    def vectors(self):
        return [dict(row) for _, row in self.rows]

    def __len__(self):
        return len(self.rows)


def nullspace(rows, ncols: int):
    """Exact nullspace basis of a stacked row list over Q(sqrt2).

    `rows` is an iterable of {col: Scalar} sparse rows.  Returns a list of
    dense coefficient lists, each normalized so its first nonzero entry is
    one; deterministic (pivoting in column order).
    """
    mat = []
    for row in rows:
        dense = [ZERO] * ncols
        nonzero = False
        for j, v in row.items():
            if not v.is_zero:
                dense[j] = v
                nonzero = True
        if nonzero:
            mat.append(dense)
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(mat)):
            if not mat[i][col].is_zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
        inv = mat[rank][col].inv()
        mat[rank] = [c * inv for c in mat[rank]]
        for i in range(len(mat)):
            if i != rank and not mat[i][col].is_zero:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            coeff = mat[r][fc]
            if not coeff.is_zero:
                vec[pc] = -coeff
        basis.append(vec)
    return basis
