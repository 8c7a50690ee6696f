"""Expected verdicts, from the paper's closed forms.

Every expected value here is computed from a formula, not copied from a
report of the program:

- the linear constraint scalar of the spinor construction,
  c2 = eps (n - eps) / 4, and of the Heisenberg family, c2 = l (l + beta);
- the centre of a linear evaluation, c(u) = u (u - beta) - c2;
- the Jordan-Schwinger central value c23 = k = -2l - (beta + 2l - 1)^2 / 2
  with c21 = 0, and the centre decomposition
  c(u) = u^2 (u-b)^2 + u^2 (u-b) c21 + u (u-b) c23 + u c26 + c28;
- Drinfeld polynomials P with f(u) = P(u + Delta) / P(u): a ratio
  (u + a) / (u - b) with (a + b) / Delta = N a whole number has the N
  roots b, b - Delta, ..., b - (N - 1) Delta;
- representation dimensions of the Jordan-Schwinger layers and of their
  cyclic modules.

The counterexamples of the negative controls (the entry where an
identity first fails and its residual polynomial) are pinned verbatim:
they must stay byte-identical under any rewrite of the identity engine.

Expectations are flat maps from a dotted path into a job's outcome to the
expected value.  Paths that are not listed, timings among them, are
ignored, so extra report keys never count as failures.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import comb

EPS = {"so_even": 1, "so_odd": 1, "sp": -1}


def dimension(family: str, m: int) -> int:
    return 2 * m + 1 if family == "so_odd" else 2 * m


def beta(family: str, m: int) -> F:
    return F(dimension(family, m), 2) - EPS[family]


def shift(family: str, m: int, i: int) -> F:
    """Drinfeld shift Delta_i of the i-th simple-root ratio."""
    if i < m:
        return F(1)
    return {"so_even": F(1), "so_odd": F(1, 2), "sp": F(2)}[family]


def scalar(x) -> str:
    """A rational number as the library serializes scalars."""
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def roots(values) -> dict:
    """A root multiset as the library serializes Drinfeld roots."""
    out: dict = {}
    for x in values:
        out[str(F(x))] = out.get(str(F(x)), 0) + 1
    return out


def ladder(top, count: int, delta) -> dict:
    """Roots of P for f(u) = (u + a) / (u - b): b, b - Delta, ... (count of them)."""
    return roots(F(top) - j * F(delta) for j in range(count))


def whole(x: F) -> int:
    if x.denominator != 1 or x < 0:
        raise ValueError(f"{x} is not a whole number of shifts")
    return int(x)


# ---------------------------------------------------------------------------
# constraint scalars and centres


def spinor_c2(family: str, m: int) -> F:
    eps = EPS[family]
    return F(eps * (dimension(family, m) - eps), 4)


def heisenberg_c2(family: str, m: int, ell) -> F:
    ell = F(ell)
    return ell * (ell + beta(family, m))


def js_k(family: str, m: int, two_l: int) -> F:
    t = beta(family, m) + two_l - 1
    return -two_l - t * t / 2


def linear_center(family: str, m: int, c2: F) -> list:
    """c(u) = u (u - beta) - c2, ascending coefficients."""
    return [scalar(-c2), scalar(-beta(family, m)), scalar(1)]


def center_decomposition_holds(family: str, m: int, center: list, scalars: dict) -> bool:
    """The quadratic-evaluation centre in terms of the constraint scalars."""
    b = beta(family, m)
    c21, c23, c26, c28 = (_parse(scalars[k]) for k in ("c21", "c23", "c26", "c28"))
    # u^2 (u-b)^2 + u^2 (u-b) c21 + u (u-b) c23 + u c26 + c28
    want = [c28, -b * c23 + c26, b * b - b * c21 + c23, -2 * b + c21, F(1)]
    got = [_parse(c) for c in center] + [F(0)] * (5 - len(center))
    return got == want


def _parse(text: str) -> F:
    if "s2" in text:
        raise ValueError(f"unexpected sqrt2 component in {text}")
    return F(text)


# ---------------------------------------------------------------------------
# Drinfeld roots, one dict per simple-root ratio


def spinor_roots(family: str, m: int) -> list:
    """so(2m): P = (1, ..., 1, u - 1/2); so(2m+1): (1, ..., 1, u)."""
    last = {"so_even": roots([F(1, 2)]), "so_odd": roots([0])}[family]
    return [{}] * (m - 1) + [last]


def heisenberg_roots(family: str, m: int, ell) -> list:
    """Ratios (1, ..., 1, (u + l) / (u - l))."""
    ell = F(ell)
    delta = shift(family, m, m)
    return [{}] * (m - 1) + [ladder(ell, whole(2 * ell / delta), delta)]


def js_roots(family: str, m: int, two_l: int) -> list:
    """Jordan-Schwinger ratios: f_1 = (u + 2l - w) / (u - w) with
    w = (beta + 2l - 1) / 2 and the other ratios one; so(4) = sl2 x sl2
    repeats f_1, and sp(2) at 2l = 1 has f_1 = (u + 1) / (u - 1)."""
    if family == "sp" and m == 1:
        if two_l != 1:
            raise ValueError("only sp(2) at 2l = 1 has a closed form here")
        return [ladder(1, 1, shift(family, m, 1))]
    w = (beta(family, m) + two_l - 1) / 2
    delta = shift(family, m, 1)
    first = ladder(w, whole(two_l / delta), delta)
    if m == 1:
        return [first]
    if family == "so_even" and m == 2:
        return [first, first]
    return [first] + [{}] * (m - 1)


def product_roots(delta) -> list:
    """so(4) spinor x spinor on the product vacuum: the factors' u - 1/2
    shifted by -+ delta/2."""
    delta = F(delta)
    return [{}, roots([(1 - delta) / 2, (1 + delta) / 2])]


def gl2_roots(chain) -> list:
    """f(u) = prod (u + u_k + d_k) / (u + u_k): roots -(u_k + j), j < d_k."""
    return [roots(-(F(u) + j) for u, d in chain for j in range(d))]


def fuse3_roots(chain) -> list:
    """The fused so(3) ratio is f(2u) at shift 1/2: roots -(u_k + j) / 2."""
    return [roots(-(F(u) + j) / 2 for u, d in chain for j in range(d))]


# ---------------------------------------------------------------------------
# representation dimensions


def js_layer_dim(family: str, m: int, two_l: int) -> int:
    n = dimension(family, m)
    return comb(n + two_l - 1, two_l)


def js_irrep_dim(family: str, m: int, two_l: int) -> int:
    """Orthogonal highest weight (2l, 0, ..., 0): harmonic polynomials."""
    n = dimension(family, m)
    return comb(n + two_l - 1, two_l) - comb(n + two_l - 3, two_l - 2)


# ---------------------------------------------------------------------------
# comparison


_MISSING = object()


def lookup(outcome, path: str):
    node = outcome
    for part in path.split("."):
        if isinstance(node, dict):
            node = node.get(part, _MISSING)
        elif isinstance(node, list) and part.isdigit() and int(part) < len(node):
            node = node[int(part)]
        else:
            return _MISSING
        if node is _MISSING:
            return _MISSING
    return node


def mismatches(expect: dict, outcome) -> list:
    """Human-readable differences between expectations and an outcome."""
    out = []
    for path, want in expect.items():
        got = lookup(outcome, path)
        if callable(want):
            ok = got is not _MISSING and want(got)
        else:
            ok = got == want
        if not ok:
            shown = "missing" if got is _MISSING else repr(got)
            out.append(f"{path}: expected {getattr(want, 'text', repr(want))}, got {shown}")
    return out


def predicate(text: str, fn):
    """An expectation that is a test rather than a value."""
    fn.text = text
    return fn
