"""Closed-form counts of separable polynomials over Z/n.

All results are exact: arbitrary-precision integers and Fractions in lowest
terms.  Decimal rendering is display-only and lives in the CLI.

Degree conventions at the edges, shared with the enumeration oracle:
monic degree-1 count is n (every x - a is separable) and monic degree-0
count is 1 (the constant 1); the degree <= d census counts all n^(d+1)
coefficient tuples of length d + 1, zero polynomial included.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .arith import DomainError, Modulus, totient, totient_prime_power


class Mode(str, Enum):
    """Which set of coefficient tuples of length d + 1 is counted."""

    MONIC = "monic"  # monic of degree exactly d
    LEQ = "leq"      # every tuple of length d + 1 (degree <= d)
    EXACT = "exact"  # leading coefficient nonzero (degree exactly d)


# Python renders an int of at most 4300 digits as a string, and every count
# and set size is printed as one; no count is taken over a larger set.
MAX_DIGITS = 4300
_SIZE_LIMIT = 10**MAX_DIGITS


def _require_degree(d: int):
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")


def count_monic_separable_primepower(p: int, k: int, d: int) -> int:
    """Monic separable polynomials of degree d over Z/p^k: phi(p^(kd)) for
    d >= 2 (Carlitz's p^d - p^(d-1) at k = 1); p^k for d = 1; 1 for d = 0."""
    _require_degree(d)
    if d == 0:
        return 1
    if d == 1:
        return p**k
    return totient_prime_power(p, k * d)


def count_monic_separable(m: Modulus, d: int) -> int:
    """Monic separable polynomials of degree d over Z/n, by multiplicativity
    across the CRT components; equals phi(n^d) for d >= 2."""
    result = 1
    for p, k in m.factors:
        result *= count_monic_separable_primepower(p, k, d)
    return result


def proportion_monic_separable(m: Modulus, d: int = 2) -> Fraction:
    """Proportion of monic degree-d polynomials over Z/n that are separable,
    for d >= 2: the product of (1 - 1/p) over the distinct primes p | n."""
    if d < 2:
        raise DomainError(f"the proportion formula requires d >= 2, got {d}")
    result = Fraction(1)
    for p, _ in m.factors:
        result *= Fraction(p - 1, p)
    return result


def count_separable_leq_primepower(p: int, k: int, d: int) -> int:
    """Separable polynomials of degree <= d over Z/p^k (arbitrary leading
    coefficient): phi(p^k) * p^((k-1)d) * (p^d + 1); phi(p^k) at d = 0."""
    _require_degree(d)
    phi = totient_prime_power(p, k)
    if d == 0:
        return phi
    return phi * p ** ((k - 1) * d) * (p**d + 1)


def count_separable_leq(m: Modulus, d: int) -> int:
    """Separable polynomials of degree <= d over Z/n, over all n^(d+1)
    coefficient tuples, by multiplicativity across the CRT components."""
    result = 1
    for p, k in m.factors:
        result *= count_separable_leq_primepower(p, k, d)
    return result


def count_separable_exact(m: Modulus, d: int) -> int:
    """Separable polynomials of degree exactly d over Z/n."""
    if d == 0:
        return totient(m)
    return count_separable_leq(m, d) - count_separable_leq(m, d - 1)


# The formula of each mode, looked up as a module attribute at each call so
# that a replaced formula is the one used, and how many values the leading
# coefficient takes.  Mode is a str Enum: a member and its value find one
# entry.
_MODES = {Mode.MONIC: (lambda m, d: count_monic_separable(m, d), lambda n: 1),
          Mode.LEQ: (lambda m, d: count_separable_leq(m, d), lambda n: n),
          Mode.EXACT: (lambda m, d: count_separable_exact(m, d),
                       lambda n: n - 1)}


def size(n: int, d: int, mode: Mode) -> int:
    """The size of the set one mode counts over Z/n, from n alone: n^d
    monic, n^(d+1) degree <= d, (n-1)n^d degree exactly d.  Refuses a set
    whose size has more than MAX_DIGITS decimal digits."""
    lead = _MODES[mode if mode in _MODES else Mode(mode)][1]  # or ValueError
    _require_degree(d)
    # Every set holds at least n^d >= 2^(d(bits - 1)) tuples, so the test of
    # bit lengths refuses a far too large set before any power is taken.
    if (d * (n.bit_length() - 1) >= _SIZE_LIMIT.bit_length()
            or (total := lead(n) * n**d) >= _SIZE_LIMIT):
        raise DomainError(f"the {Mode(mode).value} set at d = {d} has a size "
                          f"of more than {MAX_DIGITS} digits")
    return total


def count(m: Modulus, d: int, mode: Mode) -> int:
    """The separable count of one mode, over a set that size accepts."""
    size(m.n, d, mode)  # refuses a bad mode or degree first
    return _MODES[mode][0](m, d)


def count_leq_recurrence(p: int, k: int, d: int) -> int:
    """Degree <= d count over Z/p^k by the recurrence
    a_d = phi(p^(kd)) * phi(p^k) + p^(k-1) * a_(d-1),
    seeded with a_1 = phi(p^k) * (p^k + p^(k-1))."""
    if d < 1:
        raise DomainError(f"the recurrence starts at d = 1, got {d}")
    phi = totient_prime_power(p, k)
    a = phi * (p**k + p ** (k - 1))
    for e in range(2, d + 1):
        a = totient_prime_power(p, k * e) * phi + p ** (k - 1) * a
    return a


def geometric_sum(p: int, k: int, d: int) -> int:
    """Closed form p^((k-1)d+1) * (p^(d-1) - 1) of the sum
    phi(b^d) + l*phi(b^(d-1)) + ... + l^(d-2)*phi(b^2), b = p^k, l = p^(k-1)."""
    if d < 2:
        raise DomainError(f"the sum is defined for d >= 2, got {d}")
    return p ** ((k - 1) * d + 1) * (p ** (d - 1) - 1)
