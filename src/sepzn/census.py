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
from math import prod
from operator import index, mul

from .arith import (_TRIAL_PRIMES, DomainError, Modulus, _cofactor_factors,
                    totient_prime_power)


class Mode(str, Enum):
    """Which set of coefficient tuples of length d + 1 is counted."""

    MONIC = "monic"  # monic of degree exactly d
    LEQ = "leq"      # every tuple of length d + 1 (degree <= d)
    EXACT = "exact"  # leading coefficient nonzero (degree exactly d)


# Python renders an int of at most 4300 digits as a string, and every count
# and set size is printed as one; no count is taken over a larger set.
MAX_DIGITS = 4300
_SIZE_LIMIT = 10**MAX_DIGITS
# A block of _counts_by_n's sieve holds rows of about _BLOCK_BITS bits in
# all: a count at degree d over Z/n has at most (d + 1) bits(n) bits, and
# each int, and each n's row, costs about _INT_BITS more.
_BLOCK_BITS = 1 << 24
_INT_BITS = 512


def _require_degree(d: int):
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")


def _require_exponent(k: int):
    if k < 1:
        raise DomainError(f"the prime power p^k needs k >= 1, got {k}")


def _counts(factors, ds: range, mode: Mode) -> list[int]:
    """The count of one mode at each degree of ds (a range of step 1) over
    the product of the prime powers p^k in factors, one p^k at a time: the
    one home of each formula, whose one-degree case the public counts are."""
    _require_degree(ds.start)
    if mode == "exact":
        return _exact(_counts(factors, _leq_degrees(ds), Mode.LEQ), ds)
    result = [1] * len(ds)
    for p, k in factors:  # each p^k's term of every degree, multiplied in
        pk, low = p**k, p ** (k - 1)  # phi(p^k) = pk - low
        q, r = pk**ds.start, low**ds.start  # p^(kd) and p^((k-1)d) at each d
        for i, d in enumerate(ds):
            if mode == "monic":  # 1, p^k, then phi(p^(kd)) from d = 2
                result[i] *= q if d < 2 else q - q // p
            else:  # phi(p^k) p^((k-1)d) (p^d + 1), and phi(p^k) at d = 0
                result[i] *= (pk - low) * (q + r) if d else pk - low
            q, r = q * pk, r * low
    return result


def _leq_degrees(ds: range) -> range:
    """The degrees whose degree <= d counts give the exact counts at ds."""
    return range(max(ds.start - 1, 0), ds.stop)


def _exact(leq: list[int], ds: range) -> list[int]:
    """The exact counts at ds from the degree <= d counts at _leq_degrees(ds):
    leq(d) - leq(d - 1), and phi(n) = leq(0) at d = 0."""
    steps = [b - a for a, b in zip(leq, leq[1:])]
    return (leq[:1] if ds.start == 0 else []) + steps


def _counts_by_n(ns: range, ds: range, mode: Mode):
    """(n, [count(Modulus(n), d, mode) for d in ds]) for each n of ns (step
    1, from 2), with no set checked against window.  The rows are built one
    block of consecutive n at a time by a multiplicative sieve: the row of
    terms of each p^k, from _counts, is built once per block and multiplied
    into the row of every n of the block that p^k exactly divides.  Raises
    what factorize(n) raises at the first n it cannot factor, after the n
    before it."""
    exact = mode == "exact"
    row_ds, row_mode = (_leq_degrees(ds), Mode.LEQ) if exact else (ds, mode)
    row_bits = (len(row_ds) + 1) * (row_ds.stop * ns.stop.bit_length()
                                    + _INT_BITS)
    block = max(1, _BLOCK_BITS // row_bits)
    for a in range(ns.start, ns.stop, block):
        b = min(a + block, ns.stop)
        rest, rows = list(range(a, b)), [None] * (b - a)  # n's cofactor, row
        for p in _TRIAL_PRIMES:
            if p >= b:
                break
            terms = {}  # k -> the row of terms of p^k
            for i in range(-a % p, b - a, p):
                m, k = rest[i] // p, 1
                while m % p == 0:
                    m, k = m // p, k + 1
                rest[i] = m
                if k not in terms:
                    terms[k] = _counts([(p, k)], row_ds, row_mode)
                rows[i] = (terms[k] if rows[i] is None
                           else list(map(mul, rows[i], terms[k])))
        for i, n in enumerate(range(a, b)):
            row, rows[i] = rows[i] or [1] * len(row_ds), None
            for q, e in _cofactor_factors(rest[i], n):
                row = list(map(mul, row, _counts([(q, e)], row_ds, row_mode)))
            yield n, _exact(row, ds) if exact else row


def count_monic_separable(m: Modulus, d: int) -> int:
    """Monic separable polynomials of degree d over Z/n, by multiplicativity
    across the CRT components; equals phi(n^d) for d >= 2."""
    return _counts(m.factors, range(d, d + 1), Mode.MONIC)[0]


def proportion_monic_separable(m: Modulus, d: int = 2) -> Fraction:
    """Proportion of monic degree-d polynomials over Z/n that are separable,
    for d >= 2: the product of (1 - 1/p) over the distinct primes p | n."""
    if d < 2:
        raise DomainError(f"the proportion formula requires d >= 2, got {d}")
    from fractions import Fraction  # imported here: nothing else needs it
    return prod(Fraction(p - 1, p) for p, _ in m.factors)


def count_separable_leq_primepower(p: int, k: int, d: int) -> int:
    """Separable polynomials of degree <= d over Z/p^k (arbitrary leading
    coefficient): phi(p^k) * p^((k-1)d) * (p^d + 1); phi(p^k) at d = 0."""
    p, k, d = index(p), index(k), index(d)
    _require_exponent(k)
    return _counts([(p, k)], range(d, d + 1), Mode.LEQ)[0]


def count_separable_leq(m: Modulus, d: int) -> int:
    """Separable polynomials of degree <= d over Z/n, over all n^(d+1)
    coefficient tuples, by multiplicativity across the CRT components."""
    return _counts(m.factors, range(d, d + 1), Mode.LEQ)[0]


def count_separable_exact(m: Modulus, d: int) -> int:
    """Separable polynomials of degree exactly d over Z/n: phi(n) at d = 0."""
    return _counts(m.factors, range(d, d + 1), Mode.EXACT)[0]


def window(n: int, d: int, mode: Mode) -> tuple[int, int]:
    """The indices [start, stop), at sum c_i n^i, of the set one mode
    counts over Z/n, from n alone: [n^d, 2 n^d) monic, [0, n^(d+1)) degree
    <= d, [n^d, n^(d+1)) degree exactly d.  Refuses a set whose size has
    more than MAX_DIGITS decimal digits."""
    if type(mode) is not Mode:
        mode = Mode(mode)  # or ValueError
    _require_degree(d)
    # Every set holds at least n^d >= 2^(d(bits - 1)) tuples, so the test of
    # bit lengths refuses a far too large set before any power is taken.
    if d * (n.bit_length() - 1) < _SIZE_LIMIT.bit_length():
        low = n**d
        start = 0 if mode == "leq" else low  # a member equals its value
        stop = 2 * low if mode == "monic" else n * low
        if stop - start < _SIZE_LIMIT:
            return start, stop
    raise DomainError(f"the {Mode(mode).value} set at d = {d} has a size "
                      f"of more than {MAX_DIGITS} digits")


def count(m: Modulus, d: int, mode: Mode) -> int:
    """The separable count of one mode, over a set that window accepts."""
    window(m.n, d, mode)  # refuses a bad mode, degree or size first
    return _counts(m.factors, range(d, d + 1), mode)[0]


def count_leq_recurrence(p: int, k: int, d: int) -> int:
    """Degree <= d count over Z/p^k by the recurrence
    a_d = phi(p^(kd)) * phi(p^k) + p^(k-1) * a_(d-1),
    seeded with a_1 = phi(p^k) * (p^k + p^(k-1))."""
    p, k, d = index(p), index(k), index(d)
    _require_exponent(k)
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
    p, k, d = index(p), index(k), index(d)
    _require_exponent(k)
    if d < 2:
        raise DomainError(f"the sum is defined for d >= 2, got {d}")
    return p ** ((k - 1) * d + 1) * (p ** (d - 1) - 1)
