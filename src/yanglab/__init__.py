"""Exact computer algebra for orthogonal and symplectic Yangians.

Library layout
--------------
exact      rational scalars, exact polynomials, sparse matrices
structure  case descriptors, invariant metric, fundamental R-matrix, YBE check
spaces     explicit representation spaces and generator operators
lops       constructions of linear and quadratic L-operators
verify     symbolic verification of every algebra identity
weights    highest-weight data, ratio functions, finiteness test
cli        command line front end and JSON reports
"""

from .exact import BiPoly, Scalar, SparseOp, UniPoly, poly_eval, rational_roots
from .structure import CaseDescriptor, check_ybe, fundamental_r, make_case

__all__ = [
    "BiPoly",
    "Scalar",
    "SparseOp",
    "UniPoly",
    "poly_eval",
    "rational_roots",
    "CaseDescriptor",
    "check_ybe",
    "fundamental_r",
    "make_case",
]
