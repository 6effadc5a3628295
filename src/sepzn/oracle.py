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
degree of g, so those in a window of the table are a run of them.  The
p^e monic g of each degree e are set up together, in slices of at most
_SLICE g, one list per coefficient indexed by g, only as far as the steps
of their runs need; what is left g by g is the walk along its run.

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
import signal
import sys
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
# The most monic g that _sieve sets up together: a level's set-up holds
# about 2e list entries per g, so the peak does not grow with p^e.
_SLICE = 2**12


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
    window's marks, for each degree e <= d/2 one set-up of the monic g of
    degree e together, _SLICE g at a time, as far as the steps of their
    runs of multiples in the window need, and then each g's walk along its
    run."""
    table = bytearray(b"\1") * max(hi - lo, 0)
    if lo == 0 < hi:
        table[0] = 0  # the zero polynomial
    size = len(table)
    for e in range(1, d // 2 + 1):
        # f = T + R, T = sum m_j x^(2e + j) and deg R < 2e, is a multiple of
        # g^2 exactly when R = -(T mod g^2): m names one multiple, at index
        # m p^(2e) + sum R_k p^k, so only m in [first, last) reach [lo, hi).
        block = p**(2 * e)
        first, last = lo // block, min(-(-hi // block), p**(d - 2 * e + 1))
        # R at first is sum m_j r_j over the digits of m = first, as many as
        # last - 1 has.  Steps to m in (first, last) wrap m_0 .. m_(j-1), p^j
        # exactly dividing m, j <= j_max (-1: none).
        digits = [first // p**j % p for j in range(d) if last > p**j]
        j_max = -1
        while (last - 1) // p**(j_max + 1) > first // p**(j_max + 1):
            j_max += 1
        # The step to first + 1 + i wraps depth[i] digits, the p-adic
        # valuation of that m: one byte per step, set for all g at once.
        depth = bytearray(max(last - first - 1, 0))
        for j in range(1, j_max + 1):
            start = -(first + 1) % p**j
            depth[start::p**j] = bytes([j]) * len(range(start, len(depth),
                                                         p**j))
        # g in W-bit slots, squared once: a coefficient of g^2 sums at most
        # e products of low coefficients, twice one of them (times the lead)
        # and 1, so it is at most e(p - 1)^2 + 2(p - 1) + 1 < 2^W: no carry.
        width = (e * (p - 1)**2 + 2 * (p - 1) + 1).bit_length()
        mask, lead = (1 << width) - 1, 1 << width * e
        gs = range(lead, lead + p)  # g = x^e + a_0, then + a_i x^i
        for i in range(1, e):
            gs = [g + (a << width * i) for a in range(p) for g in gs]
        for at in range(0, len(gs), _SLICE):
            sq = [g * g for g in gs[at:at + _SLICE]]  # the slice's g^2
            count = len(sq)
            # From here on a polynomial of degree < 2e is set up for all
            # count g of the slice at once: one list, coefficient k of the
            # i-th g's at k count + i.
            s = r = [q >> width * k & mask for k in range(2 * e) for q in sq]
            # r_j = -(x^(2e + j) mod g^2), r_0 = s (not reduced), so R =
            # sum m_j r_j.  Where m_0 .. m_(j-1) wrap to 0 and m_j goes up,
            # R moves by up_j = r_0 + ... + r_j: R_k by c, the index by
            # c p^k ((c - p) p^k on wrap).
            rem = up = [0] * len(s)
            ups = []
            for j, digit in enumerate(digits):
                if digit:
                    rem = [(a + digit * b) % p for a, b in zip(rem, r)]
                if j <= j_max:
                    up = [(a + b) % p for a, b in zip(up, r)]
                    ups.append(up)
                if j + 1 < len(digits):  # r_(j+1) = x r_j mod g^2
                    shift, high = [0] * count + r[:-count], r[-count:] * 2 * e
                    r = [(a - c * b) % p for a, b, c in zip(shift, s, high)]
            # Each g's multiple at first: its index has the base-p digits of
            # first and then R_(2e - 1) .. R_0, read by Horner's rule.
            marks = [first * p + c for c in rem[-count:]]
            for k in reversed(range(0, len(rem) - count, count)):
                marks = [t * p + c for t, c in zip(marks, rem[k:k + count])]
            for t in marks:
                if lo <= t < hi:
                    table[t - lo] = 0
            if not depth:
                continue
            for i, t in enumerate(marks):  # walk the run of the i-th g
                moves = [[(k, c, c * p**k, (c - p) * p**k)
                          for k, c in enumerate(u[i::count]) if c]
                         for u in ups]
                rem_i, t = rem[i::count], t - lo  # its R, as the walk goes
                for j in depth:  # step to the next m, mark it
                    t += block
                    for k, c, step, wrap in moves[j]:
                        v = rem_i[k] + c
                        if v < p:
                            rem_i[k], t = v, t + step
                        else:
                            rem_i[k], t = v - p, t + wrap
                    if t < size:
                        table[t] = 0
    return table


def _tile(table: bytearray, at: int, p: int, n: int,
          j: int) -> bytes | bytearray:
    """Verdicts of the n^j tuples whose coefficients below j run over Z/n,
    coefficient 0 fastest, when coefficient i's residue c mod p adds c p^i
    to the table index at: the p^j entries from at, widened for i = 0 ..
    j - 1 by repeating each run of n^i p bytes n/p times."""
    run, size = table[at:at + p**j], p
    for _ in range(j):
        run = b"".join(run[k:k + size] * (n // p)
                       for k in range(0, len(run), size))
        size *= n
    return run


def _layout(n: int, lo: int, hi: int) -> tuple[int, bool, list]:
    """d, the degree of index hi - 1; whether [lo, hi) has one value c of
    x^d; and, for composite n, the window (p, a, b) of each prime p's table
    that count_range reads: [c mod p, c mod p + 1) p^d if so, else
    [0, p^(d+1)).  Refuses tables of more than MAX_TABLE_BYTES in all."""
    d = next(e for e in itertools.count() if n**(e + 1) >= hi)
    lead = lo // n**d
    one = lead == (hi - 1) // n**d
    factors = factorize(n)
    windows = [] if factors == ((n, 1),) else [
        (p, a * p**d, b * p**d) for p, _ in factors
        for a, b in [(lead % p, lead % p + 1) if one else (0, p)]]
    if (held := sum(b - a for _, a, b in windows)) > MAX_TABLE_BYTES:
        raise DomainError(f"enumeration needs tables of {held} bytes, more "
                          f"than the {MAX_TABLE_BYTES} it holds")
    return d, one, windows


def count_range(n: int, lo: int, hi: int) -> int:
    """The number of separable polynomials over Z/n among indices [lo, hi),
    index sum c_i n^i naming sum c_i x^i; d is the degree of index hi - 1.

    Prime n holds one table chunk at a time.  Composite n is walked in
    blocks of n^j tuples, n^j <= max(_BLOCK, n): the peak memory is the
    tables' bytes plus about three blocks, within 4 max(_BLOCK, n) bytes.
    Tables of more than MAX_TABLE_BYTES are refused before any is sieved."""
    d, one, windows = _layout(n, lo, hi)
    if not windows:  # prime n
        # No fewer entries than monic g of degree <= d/2: each chunk sets up
        # every g again.
        step = max(4 * _BLOCK, sum(n**e for e in range(1, d // 2 + 1)))
        return sum(_sieve(n, d, a, min(a + step, hi)).count(1)
                   for a in range(lo, hi, step))
    # The largest j with n^j <= _BLOCK, but at least 1, and no more than
    # the free coefficients: coefficients 0 .. j - 1 run over a block (x^d
    # too, unless the range has one value of it).
    top = d if one else d + 1
    j = min(top, 1)
    while j < top and n**(j + 1) <= _BLOCK:
        j += 1
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


def _walk(walks: list[tuple[int, int, int]],
          workers: int) -> list[tuple[int, float]]:
    """(count_range(n, lo, hi), seconds) of each walk (n, lo, hi) of a
    command.  At workers > 1, at most one per CPU, each range is split per
    worker, and every part is sized by _layout before one pool maps them."""
    w = 1 if workers <= 1 else min(workers, os.cpu_count() or 1)
    splits = [(n, [lo + (hi - lo) * i // w for i in range(w + 1)])
              for n, lo, hi in walks]
    with contextlib.ExitStack() as stack:
        mapper = map
        if w > 1 and walks:
            for n, bounds in splits:
                for a, b in zip(bounds, bounds[1:]):
                    _layout(n, a, b)  # a worker's refusal, before the pool
            # Read through the module: the first read imports the class
            # (__getattr__), and a test or tracer may have replaced it.
            pool = sys.modules[__name__].ProcessPoolExecutor
            # SIGINT ends a worker silently, unless this process ignores it.
            ignore = signal.getsignal(signal.SIGINT) == signal.SIG_IGN
            mapper = stack.enter_context(pool(
                max_workers=w, initializer=signal.signal, initargs=(
                    signal.SIGINT, signal.SIG_IGN if ignore
                    else signal.SIG_DFL))).map
        out = []
        for n, bounds in splits:
            start = time.perf_counter()
            count = sum(mapper(count_range, [n] * w, bounds[:-1], bounds[1:]))
            out.append((count, time.perf_counter() - start))
        return out


def _within(walks: list, budget: int) -> list:
    """walks, each (n, lo, hi), refused when they hold more than budget
    tuples in all."""
    if (total := sum(hi - lo for _, lo, hi in walks)) > budget:
        raise BudgetExceeded(total, budget)
    return walks


def enumerate_count(m: Modulus, d: int, mode: Mode,
                    budget: int = DEFAULT_BUDGET, workers: int = 1) -> int:
    """Exact count of separable polynomials in the set census.window(m.n,
    d, mode) places; with workers > 1 its index range runs on at most one
    process per CPU."""
    walks = [(m.n, *census.window(m.n, d, mode))]
    [(count, _)] = _walk(_within(walks, budget), workers)
    return count


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
    walks = [(p**k, *census.window(p**k, e, q))
             for e, q in queries for p, k in m.factors]
    counts = (count for count, _ in _walk(_within(walks, budget), workers))
    first, *rest = [math.prod(itertools.islice(counts, len(m.factors)))
                    for _ in queries]
    return first - sum(rest)


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
    queries = [(d, mode, census.count(m, d, mode), census.window(m.n, d, mode))
               for d in range(d_max + 1) for mode in Mode]
    walked = iter(_walk([(m.n, lo, hi) for *_, (lo, hi) in queries
                         if hi - lo <= budget], workers))
    reports = []
    for d, mode, formula, (lo, hi) in queries:
        oracle, elapsed = next(walked) if hi - lo <= budget else (None, 0.0)
        reports.append(VerificationReport(
            d, mode, oracle, formula,
            None if oracle is None else oracle == formula, elapsed,
            skipped=oracle is None))
    return reports
