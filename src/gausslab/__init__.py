"""Exact twisted Gauss sums over finite fields.

Builds finite-field towers with discrete-log tables, computes Gauss sums and
twisted gamma factors exactly in cyclotomic integer rings (a subfield's
characters are exponents on the one ambient tower), verifies the
Stickelberger valuation and the Gross-Koblitz factorization in a ramified
p-adic ring, runs converse-theorem signature scans, and cross-checks the
n x 1 gamma-factor formula against a GL2 Bessel-function oracle.
"""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    FormulaValidationError,
    GausslabError,
    PrecisionError,
    PrimalityError,
    ResourceCapError,
)
from .ff import FieldTower, build_tower

__all__ = [
    "ArgumentError",
    "FieldTower",
    "FormulaValidationError",
    "GausslabError",
    "PrecisionError",
    "PrimalityError",
    "ResourceCapError",
    "build_tower",
    "__version__",
]
