"""Brute-force enumeration of separable polynomials over Z/n, the ground
truth the census formulas are verified against.  A query is sized from n
alone (census.size), so one over budget is refused before n is factored.

A polynomial over Z/n is separable exactly when its reduction mod every
prime p | n is, and over the field Z/p one of degree >= 1 is separable
exactly when no g^2 divides it, g monic of degree >= 1 (the squarefree
criterion Carlitz counts).  So the verdicts mod p come from a square sieve,
with no gcd: one byte per polynomial of degree <= d, at index sum c_i p^i,
all 1 but the zero polynomial and every multiple of a g^2 marked 0.  The
multiples of g^2 are indexed by their coefficients from x^(2e) up, e the
degree of g, so those in a window of the table are a run of them, and each
g is set up only for the steps of its run.  The monic polynomials of
degree d are the window [p^d, 2 p^d), the exact-degree ones [p^d, p^(d + 1)).

Index t of a mode's space is index base + t of the degree <= d space,
whose index sum c_i n^i has coefficient 0 as its lowest digit; base is n^d
for the monic and exact sets and 0 for the leq set.  For prime n a count
over indices [lo, hi) is the number of ones in one table window, sieved a
chunk of max(4 _BLOCK, number of monic g of degree <= d/2) entries at a
time, however wide the window.  Composite n is walked in blocks of n^j
tuples that share coefficients j and up.  For each prime p | n those
coefficients reduced mod p fix a run of p^j table entries, and the block's
verdicts mod p are that run tiled n/p times along each coefficient below
j; a tuple counts where every prime's verdict is 1.  The distinct primes
of a composite n sum to at most n - 1, so the tables hold no more bytes
than the space has tuples: the budget bounds memory as well as time.
Ranges of the space run on parallel workers, each sieving its own tables,
and their counts are summed.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import census
from .arith import DomainError, Modulus, factorize
from .census import Mode
# Not called here; perfbench/spans.py wraps oracle.PolyZn to count calls.
from .poly import PolyZn  # noqa: F401

DEFAULT_BUDGET = 10**8
# Tuples per block of the composite walk (see count_range).
_BLOCK = 2**20


class BudgetExceeded(DomainError):
    """The query needs more separability tests than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} tests, budget is {budget}")
        self.required, self.budget = required, budget


def _sieve(p: int, d: int, lo: int = 0, hi: int | None = None) -> bytearray:
    """Separability over Z/p of the polynomials f of degree <= d with table
    indices sum f_i p^i in [lo, hi) (by default the whole table), one byte
    each.  The work is the window's marks plus, for each monic g of degree
    e <= d/2, only the steps its run of multiples in the window needs."""
    hi = p**(d + 1) if hi is None else hi
    table = bytearray(b"\1") * max(hi - lo, 0)
    if lo == 0 < hi:
        table[0] = 0  # the zero polynomial
    size = len(table)
    for e in range(1, d // 2 + 1):
        # f = T + R, T = sum m_j x^(2e + j) and deg R < 2e, is a multiple of
        # g^2 exactly when R = -(T mod g^2): m names one multiple, at index
        # m p^(2e) + sum R_k p^k, so only m in [first, last) reach [lo, hi).
        block, place = p**(2 * e), [p**k for k in range(2 * e)]
        first, last = lo // block, min(-(-hi // block), p**(d - 2 * e + 1))
        # Steps to m in (first, last) wrap m_0 .. m_(j-1), p^j exactly dividing
        # m, j <= j_max (-1: none); R at first is sum m_j r_j over its digits.
        j_max = sum((last - 1) // p**j > first // p**j for j in range(d)) - 1
        digits = [first // p**j % p for j in range(d) if first >= p**j]
        top = max(j_max + 1, len(digits))
        # g in W-bit slots, squared once: a coefficient of g^2 sums at most
        # e products of low coefficients, twice one of them (times the lead)
        # and 1, so it is at most e(p - 1)^2 + 2(p - 1) + 1 < 2^W: no carry.
        width = (e * (p - 1)**2 + 2 * (p - 1) + 1).bit_length()
        mask = (1 << width) - 1
        slots = [range(0, p << width * i, 1 << width * i) for i in range(e)]
        for g in map(sum, itertools.product(*slots, [1 << width * e])):
            g *= g
            s = r = [(g >> width * k & mask) % p
                     for k in range(2 * e)]  # g^2 below its lead
            # r_j = -(x^(2e + j) mod g^2), so R = sum m_j r_j.  Where m_0 ..
            # m_(j-1) wrap to 0 and m_j goes up, R moves by r_0 + ... + r_j:
            # R_k by c, the index by c p^k ((c - p) p^k on wrap).
            rem, up, moves = [0] * (2 * e), [0] * (2 * e), []
            for j in range(top):
                if j < len(digits) and digits[j]:  # R at first
                    rem = [(a + digits[j] * b) % p for a, b in zip(rem, r)]
                if j <= j_max:
                    up = [(a + b) % p for a, b in zip(up, r)]
                    moves.append([(k, c, c * place[k], (c - p) * place[k])
                                  for k, c in enumerate(up) if c])
                if j + 1 < top:
                    r = [(a - r[-1] * b) % p for a, b in zip([0, *r], s)]
            t = first * block + sum(c * q for c, q in zip(rem, place)) - lo
            if 0 <= t < size:
                table[t] = 0
            for m in range(first + 1, last):  # step to m, mark it
                q, j = m, 0
                while q % p == 0:  # m_0 .. m_(j-1) wrapped to 0
                    q, j = q // p, j + 1
                t += block
                for k, c, step, wrap in moves[j]:
                    v = rem[k] + c
                    if v < p:
                        rem[k], t = v, t + step
                    else:
                        rem[k], t = v - p, t + wrap
                if t < size:
                    table[t] = 0
    return table


def _tile(table: bytearray, at: int, p: int, n: int,
          j: int) -> bytes | bytearray:
    """Verdicts of the n^j tuples whose coefficients below j run over Z/n,
    coefficient 0 fastest, when coefficient i's residue c mod p adds c p^i
    to the table index at: the p^j entries from at, tiled n/p times along
    each coefficient."""
    if j <= 1:
        return table[at:at + p**j] * (n // p)**j
    step = p**(j - 1)
    return b"".join(_tile(table, at + c * step, p, n, j - 1)
                    for c in range(p)) * (n // p)


def count_range(n: int, d: int, mode: Mode, lo: int, hi: int) -> int:
    """Separable tuples among indices [lo, hi) of the query's space.

    Index t is index base + t of the degree <= d space, base being n^d for
    monic and exact and 0 for leq.  Prime n holds one table chunk at a time.
    Composite n is walked in blocks of n^j tuples, n^j <= max(_BLOCK, n):
    the peak memory is the tables' bytes plus about three blocks, within
    4 max(_BLOCK, n) bytes."""
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    mode = Mode(mode)
    monic = mode is Mode.MONIC
    factors = factorize(n)
    base = 0 if mode is Mode.LEQ else n**d
    lo, hi = base + lo, base + hi
    if factors == ((n, 1),):
        # No fewer entries than monic g of degree <= d/2: each chunk sets up
        # every g again.
        step = max(4 * _BLOCK, sum(n**e for e in range(1, d // 2 + 1)))
        return sum(_sieve(n, d, a, min(a + step, hi)).count(1)
                   for a in range(lo, hi, step))
    # The largest j with n^j <= _BLOCK, but at least 1, and no more than
    # the free coefficients: coefficients 0 .. j - 1 run over a block.
    top = d if monic else d + 1
    j = min(top, 1)
    while j < top and n**(j + 1) <= _BLOCK:
        j += 1
    # A monic table is the window [p^d, 2 p^d) of the degree <= d table.
    tables = [(p, _sieve(p, d, p**d, 2 * p**d) if monic else _sieve(p, d),
               p**d if monic else 0) for p, _ in factors]
    size, count = n**j, 0
    for block in range(lo // size, -(-hi // size)):
        at = block * size
        high = [block // n**k % n for k in range(d + 1 - j)]  # c_j .. c_d
        bits = -1
        for p, table, first in tables:
            key = sum(c % p * p**(j + k) for k, c in enumerate(high)) - first
            bits &= int.from_bytes(  # the block's verdicts freed once read
                _tile(table, key, p, n, j)[max(lo - at, 0):hi - at], "little")
        count += bits.bit_count()
    return count


class _Pool(contextlib.ExitStack):
    """The process pool for one command.  Its workers are capped at one
    per CPU; each query's space is split into that many index ranges, and
    the pool is started at the first split and shut down when the command
    leaves it."""

    def __init__(self, workers: int):
        super().__init__()
        self.workers = min(workers, os.cpu_count() or 1)
        self._executor = None

    def count(self, m: Modulus, d: int, mode: Mode, budget: int) -> int:
        """enumerate_count on this pool."""
        size = census.size(m.n, d, mode)
        if size > budget:
            raise BudgetExceeded(size, budget)
        return self.walk(m, d, mode, size)

    def walk(self, m: Modulus, d: int, mode: Mode, size: int) -> int:
        """Count the query's space of `size` tuples."""
        n, w = m.n, self.workers
        if w <= 1:
            return count_range(n, d, mode, 0, size)
        if self._executor is None:
            self._executor = self.enter_context(
                ProcessPoolExecutor(max_workers=w))
        bounds = [size * i // w for i in range(w + 1)]
        return sum(self._executor.map(count_range, [n] * w, [d] * w,
                                      [mode] * w, bounds[:-1], bounds[1:]))


def enumerate_count(m: Modulus, d: int, mode: Mode,
                    budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Exact count of separable polynomials in the set census.size(m.n, d,
    mode) sizes; with workers > 1 its index ranges run on at most one
    process per CPU."""
    with _Pool(workers) as pool:
        return pool.count(m, d, mode, budget)


def crt_product_count(m: Modulus, d: int, mode: Mode,
                      budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """enumerate_count via the CRT decomposition: enumerate each prime-power
    component separately and multiply the component counts.  Every walk
    runs on one pool.

    Exponentially cheaper than the full ring (Z/120 at d = 3 costs
    8^4 + 3^4 + 5^4 = 4802 tests instead of 120^4).  For exact-degree
    queries with d >= 1 the componentwise product does not apply directly
    (nonzero mod n is not componentwise), so the count is taken as the
    difference of two degree <= d products.
    """
    mode = Mode(mode)
    with _Pool(workers) as pool:
        def product(d: int, mode: Mode) -> int:
            return math.prod(pool.count(Modulus(p**k), d, mode, budget)
                             for p, k in m.factors)

        if mode is Mode.EXACT and d >= 1:
            return product(d, Mode.LEQ) - product(d - 1, Mode.LEQ)
        return product(d, mode)


@dataclass(frozen=True)
class VerificationReport:
    """Formula-vs-enumeration comparison for one degree and mode.

    match is None when the query was skipped for exceeding the budget.
    """

    d: int
    mode: Mode
    oracle_count: int | None
    formula_count: int
    match: bool | None
    elapsed: float
    skipped: bool = False


def verify(m: Modulus, d_max: int, budget: int = DEFAULT_BUDGET,
           workers: int = 1) -> list[VerificationReport]:
    """Compare every census formula with the oracle for all d <= d_max and
    all modes; queries over budget are reported as skipped.  With
    workers > 1 the queries share one process pool."""
    if d_max < 0:
        raise DomainError(f"d_max must be >= 0, got {d_max}")
    census.size(m.n, d_max, Mode.LEQ)  # the largest set; refused if too large
    reports = []
    with _Pool(workers) as pool:
        for d in range(d_max + 1):
            for mode in Mode:
                formula = census.count(m, d, mode)
                size = census.size(m.n, d, mode)
                start = time.perf_counter()
                oracle = None if size > budget else pool.walk(m, d, mode, size)
                reports.append(VerificationReport(
                    d, mode, oracle, formula,
                    None if oracle is None else oracle == formula,
                    time.perf_counter() - start, skipped=oracle is None))
    return reports
