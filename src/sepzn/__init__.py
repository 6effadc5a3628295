"""Separable polynomials over Z/n: decision procedures, exact counting
formulas, and a brute-force enumeration oracle that verifies them."""

from .arith import DomainError, Modulus, totient
from .census import (
    Mode,
    count,
    count_leq_recurrence,
    count_monic_separable,
    count_separable_exact,
    count_separable_leq,
    count_separable_leq_primepower,
    geometric_sum,
    proportion_monic_separable,
)
from .oracle import (
    BudgetExceeded,
    VerificationReport,
    crt_product_count,
    enumerate_count,
    verify,
)
from .poly import PolyParseError, PolyZn, parse
from .septest import discriminant, is_separable, is_separable_monic, trace_form

__all__ = [
    "BudgetExceeded", "DomainError", "Mode", "Modulus", "PolyParseError",
    "PolyZn", "VerificationReport",
    "count", "count_leq_recurrence", "count_monic_separable",
    "count_separable_exact", "count_separable_leq",
    "count_separable_leq_primepower", "crt_product_count", "discriminant",
    "enumerate_count", "geometric_sum", "is_separable", "is_separable_monic",
    "parse", "proportion_monic_separable", "totient", "trace_form", "verify",
]
