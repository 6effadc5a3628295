"""Brute-force enumeration of separable polynomials over Z/n, the ground
truth the census formulas are verified against.  A walk counts the
polynomials among indices [lo, hi), index sum c_i n^i naming sum c_i x^i,
and census.window places each mode's set in that index from n alone, so
a query over budget is refused before n is factored.

A polynomial over Z/n is separable exactly when its reduction mod every
prime p | n is, and over the field Z/p one of degree >= 1 is separable
exactly when no g^2 divides it, g monic of degree >= 1 (the squarefree
criterion Carlitz counts).  So the verdicts mod p come from a square sieve,
with no gcd: one byte per polynomial of degree <= d, at index sum c_i p^i,
all 1 but the zero polynomial and every multiple of a g^2 marked 0.  The
multiples of g^2 are indexed by their coefficients from x^(2e) up, e the
degree of g, so those in a window of the table are a run of them, and each
g is set up only for the steps of its run.

For prime n a count over [lo, hi) is the number of ones in that window of
the table, d the degree of index hi - 1, sieved a chunk of max(4 _BLOCK,
monic g of degree <= d/2) entries at a time however wide the window.
Composite n is walked in blocks of n^j tuples that share coefficients j and
up.  For each prime p | n those coefficients reduced mod p fix a run of p^j
table entries, and the block's verdicts mod p are that run tiled n/p times
along each coefficient below j; a tuple counts where every prime's verdict
is 1.  A range inside one value c of the top coefficient, as the monic set
[n^d, 2 n^d) is, reads only the window [(c mod p) p^d, (c mod p + 1) p^d)
of each table.  The distinct primes of a composite n sum to at most n - 1,
so the tables hold no more bytes than the space has tuples: the budget
bounds memory as well as time, and MAX_TABLE_BYTES bounds the tables
however far the budget is raised.  A range is split across parallel workers,
each sieving its own tables, and their counts are summed.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import time
from collections import namedtuple

from . import census
from .arith import DomainError, Modulus, factorize
from .census import Mode
# Not called here; perfbench/spans.py wraps oracle.PolyZn to count calls.
from .poly import PolyZn  # noqa: F401

DEFAULT_BUDGET = 10**8
# Tuples per block of the composite walk (see count_range).
_BLOCK = 2**20
# The most bytes the composite walk's tables may hold at once: p^(d+1) for
# the largest prime p | n outgrows memory under a raised budget.
MAX_TABLE_BYTES = 2**30


def __getattr__(name: str):
    """ProcessPoolExecutor, imported on first read (PEP 562) and kept in
    the module: only --workers > 1 starts a pool, and its modules take
    longer to import than most commands take to run."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    globals()[name] = ProcessPoolExecutor
    return ProcessPoolExecutor


class BudgetExceeded(DomainError):
    """The query needs more separability tests than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} tests, budget is {budget}")
        self.required, self.budget = required, budget


def _sieve(p: int, d: int, lo: int, hi: int) -> bytearray:
    """Separability over Z/p of the polynomials f of degree <= d with table
    indices sum f_i p^i in [lo, hi), one byte each.  The work is the
    window's marks plus, for each monic g of degree e <= d/2, only the
    steps its run of multiples in the window needs."""
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


def count_range(n: int, lo: int, hi: int) -> int:
    """The number of separable polynomials over Z/n among indices [lo, hi),
    index sum c_i n^i naming sum c_i x^i; d is the degree of index hi - 1.

    Prime n holds one table chunk at a time.  Composite n is walked in
    blocks of n^j tuples, n^j <= max(_BLOCK, n): the peak memory is the
    tables' bytes plus about three blocks, within 4 max(_BLOCK, n) bytes.
    Tables of more than MAX_TABLE_BYTES are refused before any is sieved."""
    d = next(e for e in itertools.count() if n**(e + 1) >= hi)
    factors = factorize(n)
    if factors == ((n, 1),):
        # No fewer entries than monic g of degree <= d/2: each chunk sets up
        # every g again.
        step = max(4 * _BLOCK, sum(n**e for e in range(1, d // 2 + 1)))
        return sum(_sieve(n, d, a, min(a + step, hi)).count(1)
                   for a in range(lo, hi, step))
    # x^d runs over [c mod p, c mod p + 1) of each table when the range
    # has one value c of it (its blocks then leave it out), else [0, p).
    lead = lo // n**d
    one = lead == (hi - 1) // n**d
    # The largest j with n^j <= _BLOCK, but at least 1, and no more than
    # the free coefficients: coefficients 0 .. j - 1 run over a block.
    top = d if one else d + 1
    j = min(top, 1)
    while j < top and n**(j + 1) <= _BLOCK:
        j += 1
    windows = [(p, a * p**d, b * p**d) for p, _ in factors
               for a, b in [(lead % p, lead % p + 1) if one else (0, p)]]
    if (held := sum(b - a for _, a, b in windows)) > MAX_TABLE_BYTES:
        raise DomainError(f"enumeration needs tables of {held} bytes, more "
                          f"than the {MAX_TABLE_BYTES} it holds")
    tables = [(p, _sieve(p, d, a, b), a) for p, a, b in windows]
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
    per CPU; each walk's range is split into that many ranges, and the
    pool is started at the first split and shut down when the command
    leaves it."""

    def __init__(self, workers: int):
        super().__init__()
        self.workers = (workers if workers <= 1
                        else min(workers, os.cpu_count() or 1))
        self._executor = None

    def walk(self, n: int, lo: int, hi: int) -> int:
        """count_range(n, lo, hi), split across the workers."""
        w = self.workers
        if w <= 1:
            return count_range(n, lo, hi)
        if self._executor is None:
            # Read as oracle.ProcessPoolExecutor, where it may be replaced.
            pool = (globals().get("ProcessPoolExecutor")
                    or __getattr__("ProcessPoolExecutor"))
            self._executor = self.enter_context(pool(max_workers=w))
        bounds = [lo + (hi - lo) * i // w for i in range(w + 1)]
        return sum(self._executor.map(count_range, [n] * w, bounds[:-1],
                                      bounds[1:]))


def enumerate_count(m: Modulus, d: int, mode: Mode,
                    budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Exact count of separable polynomials in the set census.window(m.n,
    d, mode) places; with workers > 1 its index range runs on at most one
    process per CPU."""
    lo, hi = census.window(m.n, d, mode)
    if hi - lo > budget:
        raise BudgetExceeded(hi - lo, budget)
    with _Pool(workers) as pool:
        return pool.walk(m.n, lo, hi)


def crt_product_count(m: Modulus, d: int, mode: Mode,
                      budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """enumerate_count via the CRT decomposition: enumerate each prime-power
    component separately and multiply the component counts.  The budget
    holds the total of every walk, and every walk runs on one pool.

    Exponentially cheaper than the full ring (Z/120 at d = 3 costs
    8^4 + 3^4 + 5^4 = 4802 tests instead of 120^4).  For exact-degree
    queries with d >= 1 the componentwise product does not apply directly
    (nonzero mod n is not componentwise), so the count is taken as the
    difference of two degree <= d products.
    """
    queries = ([(d, Mode.LEQ), (d - 1, Mode.LEQ)]
               if Mode(mode) is Mode.EXACT and d >= 1 else [(d, mode)])
    products = [[(p**k, census.window(p**k, e, q)) for p, k in m.factors]
                for e, q in queries]
    total = sum(hi - lo for walks in products for _, (lo, hi) in walks)
    if total > budget:
        raise BudgetExceeded(total, budget)
    with _Pool(workers) as pool:
        counts = [math.prod(pool.walk(q, lo, hi) for q, (lo, hi) in walks)
                  for walks in products]
    return counts[0] - sum(counts[1:])


class VerificationReport(namedtuple(
        "VerificationReport", ["d", "mode", "oracle_count", "formula_count",
                               "match", "elapsed", "skipped"],
        defaults=[False])):
    """Formula-vs-enumeration comparison for one degree and mode.

    oracle_count and match are None when the query was skipped for
    exceeding the budget.
    """

    __slots__ = ()


def verify(m: Modulus, d_max: int, budget: int = DEFAULT_BUDGET,
           workers: int = 1) -> list[VerificationReport]:
    """Compare every census formula with the oracle for all d <= d_max and
    all modes; queries over budget are reported as skipped.  With
    workers > 1 the queries share one process pool."""
    if d_max < 0:
        raise DomainError(f"d_max must be >= 0, got {d_max}")
    census.window(m.n, d_max, Mode.LEQ)  # the largest set, if too large
    reports = []
    with _Pool(workers) as pool:
        for d in range(d_max + 1):
            for mode in Mode:
                formula = census.count(m, d, mode)
                lo, hi = census.window(m.n, d, mode)
                start = time.perf_counter()
                oracle = None if hi - lo > budget else pool.walk(m.n, lo, hi)
                reports.append(VerificationReport(
                    d, mode, oracle, formula,
                    None if oracle is None else oracle == formula,
                    time.perf_counter() - start, skipped=oracle is None))
    return reports
