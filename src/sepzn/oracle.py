"""Brute-force enumeration of separable polynomials over Z/n.

The ground truth the census formulas are verified against.  A polynomial
over Z/n is separable exactly when its reduction mod every prime p | n is
separable over the field Z/p; the oracle runs that test (the mod-p gcd
kernel of septest.is_separable) on every coefficient tuple of the queried
set, memoized on the reduced tuples, and uses no counting formula: of
census.count it reads only the size of the set.

The space is walked by a mixed-radix odometer whose digit i is coefficient
i, coefficient 0 fastest, so index t names the same tuple in every walk and
every split.  For each prime p | n the odometer also carries the index of
the current tuple reduced mod p.  For p < n that index addresses a verdict
table of p^D bytes (D free digits: d for monic, d + 1 otherwise), filled
lazily: an entry is computed by the gcd kernel the first time its reduced
tuple comes up, then read back for every tuple with that reduction.  When
p == n every reduced tuple is distinct, so no table is built and each
verdict is computed directly.  The distinct primes of a composite n sum to
at most n - 1, so the tables together hold no more bytes than the space has
tuples (at D = 0, one byte per prime): the budget bounds memory as well as
time.  Digit 0 is stepped a row at a time: the row's verdicts for each
prime are its table slice tiled across the row, and a tuple is counted
where every prime's verdict is 1.

The space is split into contiguous index ranges for parallel workers, each
building its own tables; the reduction is a plain sum, so worker count and
partition order cannot affect results.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import census
from .arith import DomainError, Modulus
from .census import Mode
# Not called here; perfbench/spans.py wraps oracle.PolyZn to count calls.
from .poly import PolyZn  # noqa: F401
from .septest import _separable_coeffs_mod_p

DEFAULT_BUDGET = 10**8


class BudgetExceeded(Exception):
    """The query needs more separability tests than the budget allows."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"enumeration needs {required} tests, budget is {budget}")
        self.required = required
        self.budget = budget


_UNKNOWN = 2  # a verdict-table entry not yet computed; verdicts are 0 or 1


class _PrimeWalk:
    """One prime p | n along the walk: its verdict table (None when p == n)
    and the table index of the current row, the digits above digit 0
    reduced mod p."""

    __slots__ = ("p", "widths", "places", "reps", "key", "table")

    def __init__(self, p: int, n: int, radix: list[int], offsets: list[int]):
        self.p = p
        # A digit's verdict depends on its offset only mod its width.
        self.widths = [min(p, r) for r in radix]
        self.places = [math.prod(self.widths[:i]) for i in range(len(radix))]
        self.reps = -(-radix[0] // self.widths[0])
        self.key = sum((j % w) * s for j, w, s in
                       zip(offsets[1:], self.widths[1:], self.places[1:]))
        self.table = (bytearray([_UNKNOWN]) * math.prod(self.widths)
                      if p < n else None)

    def step(self, i: int, old: int, new: int):
        """Digit i >= 1 moved from offset old to offset new."""
        w = self.widths[i]
        self.key += (new % w - old % w) * self.places[i]

    def row(self, coeffs: list[int], first: int, a: int, b: int) -> int:
        """Verdicts mod p of the row's tuples whose digit 0 has offsets
        a..b-1, as the bytes of an int, low byte first."""
        p, table = self.p, self.table
        if table is None:
            verdicts = bytearray(b - a)
            for j in range(a, b):
                coeffs[0] = first + j
                verdicts[j - a] = _separable_coeffs_mod_p(coeffs, p)
            return int.from_bytes(verdicts, "little")
        w, k = self.widths[0], self.key
        seg = table[k:k + w]
        if _UNKNOWN in seg:
            for j in range(a, min(b, a + w)):
                r = j % w
                if seg[r] == _UNKNOWN:
                    coeffs[0] = first + j
                    seg[r] = table[k + r] = _separable_coeffs_mod_p(coeffs, p)
        return int.from_bytes((seg * self.reps)[a:b], "little")


def count_range(n: int, d: int, mode: Mode, lo: int, hi: int) -> int:
    """Separable tuples among indices [lo, hi) of the query's space."""
    if d < 0:
        raise DomainError(f"degree must be >= 0, got {d}")
    mode = Mode(mode)
    # Coefficient i is first[i] + offset, offset in range(radix[i]); the
    # leading one is fixed at 1 (monic), nonzero (exact) or free (leq).
    lead = {Mode.MONIC: (1, 1), Mode.EXACT: (1, n - 1), Mode.LEQ: (0, n)}
    first = [0] * d + [lead[mode][0]]
    radix = [n] * d + [lead[mode][1]]
    offsets, t = [], lo
    for r in radix:
        t, j = divmod(t, r)
        offsets.append(j)
    coeffs = [f + j for f, j in zip(first, offsets)]
    primes = [_PrimeWalk(p, n, radix, offsets) for p, _ in Modulus(n).factors]
    count, t = 0, lo
    while t < hi:
        a = offsets[0]
        b = min(radix[0], a + hi - t)
        bits = -1
        for walk in primes:
            bits &= walk.row(coeffs, first[0], a, b)
        count += bits.bit_count()
        t += b - a
        offsets[0] = 0
        for i in range(1, len(radix)):
            old = offsets[i]
            new = offsets[i] = (old + 1) % radix[i]
            coeffs[i] = first[i] + new
            for walk in primes:
                walk.step(i, old, new)
            if new:
                break
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
        size = census.count(m, d, mode).total  # the size, not the count
        if size > budget:
            raise BudgetExceeded(size, budget)
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
    """Exact count of separable polynomials in the set census.count(m, d,
    mode) sizes.

    With workers > 1 the set is split into index ranges run on at most
    one process per CPU."""
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
            result = 1
            for p, k in m.factors:
                result *= pool.count(Modulus(p**k), d, mode, budget)
            return result

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
    census.count(m, d_max, Mode.LEQ)  # the largest set; refused if too large
    reports = []
    with _Pool(workers) as pool:
        for d in range(d_max + 1):
            for mode in Mode:
                formula = census.count(m, d, mode).count
                start = time.perf_counter()
                try:
                    oracle = pool.count(m, d, mode, budget)
                except BudgetExceeded:
                    oracle = None
                reports.append(VerificationReport(
                    d, mode, oracle, formula,
                    None if oracle is None else oracle == formula,
                    time.perf_counter() - start, skipped=oracle is None))
    return reports
