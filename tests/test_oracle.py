import concurrent.futures
import functools
import itertools
import json
import os
import signal
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepzn import arith, census, oracle
from sepzn.arith import DomainError, Modulus
from sepzn.oracle import (
    BudgetExceeded,
    Mode,
    count_range,
    crt_product_count,
    enumerate_count,
    verify,
)
from sepzn.poly import PolyZn
from sepzn.septest import is_separable

from gcd_reference import separable_mod_p
from tracing import lines_run


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the oracle's process pool by one that maps serially and
    starts no process, on a host with 2 CPUs.  Returns the log: max_workers
    of each pool started, and the number of ranges of each map."""
    log = types.SimpleNamespace(starts=[], maps=[])

    class SerialPool:
        def __init__(self, max_workers, initializer=None, initargs=()):
            log.starts.append(max_workers)  # runs no initializer here

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            ranges = list(zip(*iterables))
            log.maps.append(len(ranges))
            return [fn(*args) for args in ranges]

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    return log


def sigint_is(action, n, lo, hi):
    """A count_range stand-in: 1 where SIGINT's action is action."""
    return int(signal.getsignal(signal.SIGINT) == action)


def space_size(n, d, mode):
    start, stop = census.window(n, d, mode)
    return stop - start


def count_in(n, d, mode, lo, hi):
    """count_range over indices [lo, hi) of one mode's set: the same range
    moved to the set's start in the index of all polynomials."""
    start, _ = census.window(n, d, mode)
    return count_range(n, start + lo, start + hi)


class TestEnumerateCount:
    def test_mod2_monic_quadratics(self):
        assert enumerate_count(Modulus(2), 2, Mode.MONIC) == 2

    def test_mod4_monic_quadratics(self):
        assert enumerate_count(Modulus(4), 2, Mode.MONIC) == 8

    def test_z15_exact_degree_two(self):
        assert enumerate_count(Modulus(15), 2, Mode.EXACT) == 1888

    def test_budget_refusal_names_requirement(self):
        with pytest.raises(BudgetExceeded) as e:
            enumerate_count(Modulus(120), 3, Mode.LEQ, budget=10**6)
        assert e.value.required == 120**4

    @pytest.mark.parametrize("mode", list(Mode))
    def test_budget_refusal_needs_no_primes(self, monkeypatch, mode):
        # The refusal is decided from n, d and the mode: n is not factored
        # and no formula is evaluated.
        def refuse(*args):
            raise AssertionError(args)

        monkeypatch.setattr(arith, "factorize", refuse)
        for name in ("count_monic_separable", "count_separable_leq",
                     "count_separable_exact", "count"):
            monkeypatch.setattr(census, name, refuse)
        with pytest.raises(BudgetExceeded):  # 2^89 - 1: factorize refuses it
            enumerate_count(Modulus(2**89 - 1), 3, mode, budget=10**8)

    def test_space_sizes(self):
        assert space_size(6, 2, Mode.MONIC) == 36
        assert space_size(6, 2, Mode.LEQ) == 216
        assert space_size(6, 2, Mode.EXACT) == 180

    def test_degree_zero_modes(self):
        m = Modulus(12)
        assert enumerate_count(m, 0, Mode.MONIC) == 1
        assert enumerate_count(m, 0, Mode.EXACT) == 4
        assert enumerate_count(m, 0, Mode.LEQ) == 4


class TestDeterminismAndPartition:
    def test_worker_counts_agree(self):
        counts = {enumerate_count(Modulus(6), 2, Mode.LEQ, workers=w)
                  for w in (1, 2, 8)}
        assert len(counts) == 1

    def test_partition_soundness(self):
        size = space_size(10, 2, Mode.EXACT)
        whole = count_in(10, 2, Mode.EXACT, 0, size)
        for pieces in (3, 7, 11):
            bounds = [size * i // pieces for i in range(pieces + 1)]
            parts = [count_in(10, 2, Mode.EXACT, lo, hi)
                     for lo, hi in zip(bounds, bounds[1:])]
            assert sum(parts) == whole

    def test_processes_capped_at_cpu_count(self, serial_pool, monkeypatch):
        # The pool forks max_workers processes at its first submit, so a
        # large --workers must not reach it; the space is split into as
        # many ranges as there are processes.
        def count(workers):
            return enumerate_count(Modulus(6), 2, Mode.LEQ, workers=workers)

        assert count(100000) == count(1)
        assert count(8) == count(1)
        assert serial_pool.starts == [2, 2]
        assert serial_pool.maps == [2, 2]
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: None)
        assert count(3) == count(1)  # one CPU: run serially
        assert serial_pool.starts == [2, 2]

    def test_huge_worker_count(self, serial_pool):
        # No list of `workers` entries is built before the cap.
        m = Modulus(30)
        assert enumerate_count(m, 2, Mode.EXACT, workers=10**9) == \
            enumerate_count(m, 2, Mode.EXACT)
        assert (serial_pool.starts, serial_pool.maps) == ([2], [2])

    def test_verify_starts_one_pool(self, serial_pool):
        # Every query of one verify call maps its ranges on the same pool,
        # started only once a query runs on more than one worker.
        def results(reports):
            return [(r.d, r.mode, r.oracle_count, r.match, r.skipped)
                    for r in reports]

        serial = verify(Modulus(5), 2)
        assert serial_pool.starts == []
        assert results(verify(Modulus(5), 2, workers=2)) == results(serial)
        assert serial_pool.starts == [2]
        assert serial_pool.maps == [2] * 9  # 3 degrees x 3 modes
        verify(Modulus(5), 2, budget=0, workers=2)  # every query skipped
        assert serial_pool.starts == [2]

    def test_every_walk_sized_before_the_pool(self, monkeypatch):
        # Every worker range of every query is sized in this process before
        # any walk runs or a pool starts: Z/30's degree 2 queries need
        # tables of 160 bytes, so the first query (d = 0) never runs.
        def refuse(*args, **kwargs):
            raise AssertionError("walked before every query was sized")

        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", 159)
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(oracle, "count_range", refuse)
        with pytest.raises(DomainError, match="tables of 160 bytes"):
            verify(Modulus(30), 2, workers=2)

    @pytest.mark.parametrize("count, required", [
        (enumerate_count, 120**4), (crt_product_count, 8**4 + 3**4 + 5**4)])
    def test_budget_refused_before_any_part_is_sized(self, monkeypatch,
                                                     count, required):
        # The budget holds the command's walks in all, and refuses them
        # before _walk sizes a worker's part or starts a pool.
        def refuse(*args, **kwargs):
            raise AssertionError("sized or pooled over budget")

        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(oracle, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(oracle, "_layout", refuse)
        with pytest.raises(BudgetExceeded) as e:
            count(Modulus(120), 3, Mode.LEQ, budget=required - 1, workers=2)
        assert (e.value.required, e.value.budget) == (required, required - 1)

    @pytest.mark.parametrize("here, there", [
        (signal.default_int_handler, signal.SIG_DFL),
        (signal.SIG_IGN, signal.SIG_IGN)], ids=["default", "ignored"])
    def test_pool_workers_end_or_ignore_sigint(self, monkeypatch, here,
                                               there):
        # Ctrl-C reaches every worker too; each must end silently, with no
        # KeyboardInterrupt traceback of its own, while this process
        # reports the interrupt once.  Where this process ignores SIGINT,
        # as a shell's background job does, the workers must ignore it
        # too, or a Ctrl-C kills them under a parent that lives on.  One
        # CPU runs serially, in here.
        monkeypatch.setattr(oracle, "count_range",
                            functools.partial(sigint_is, there))
        previous = signal.signal(signal.SIGINT, here)
        try:
            [(count, _)] = oracle._walk([(5, 0, 125)], workers=2)
        finally:
            signal.signal(signal.SIGINT, previous)
        assert count == (2 if (os.cpu_count() or 1) > 1 else here == there)

    def test_one_worker_reads_no_cpu_count(self, monkeypatch):
        def refuse():
            raise AssertionError("cpu_count read")

        monkeypatch.setattr(oracle.os, "cpu_count", refuse)
        assert enumerate_count(Modulus(6), 2, Mode.LEQ, workers=1) == \
            census.count(Modulus(6), 2, Mode.LEQ)
        assert all(r.match for r in verify(Modulus(5), 1, workers=1))


class TestModuleAttributes:
    def test_pool_class_is_the_process_pool(self):
        # Imported on first read, then kept in the module.
        assert oracle.ProcessPoolExecutor is \
            concurrent.futures.ProcessPoolExecutor
        assert "ProcessPoolExecutor" in vars(oracle)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(oracle, "no_such_name")
        assert not hasattr(oracle, "no_such_name")


class TestCrtProductCount:
    @pytest.mark.parametrize("n", [6, 12, 15])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_agrees_with_full_enumeration(self, n, d, mode):
        m = Modulus(n)
        assert crt_product_count(m, d, mode) == enumerate_count(m, d, mode)

    def test_prime_modulus_is_plain_enumeration(self):
        m = Modulus(7)
        assert crt_product_count(m, 2, Mode.LEQ) == \
            enumerate_count(m, 2, Mode.LEQ)

    def test_starts_one_pool(self, serial_pool):
        # Three components, and two LEQ products for the exact mode: six
        # walks, all on one pool.
        m = Modulus(30)
        serial = crt_product_count(m, 2, Mode.EXACT)
        assert serial_pool.starts == []
        assert crt_product_count(m, 2, Mode.EXACT, workers=2) == serial
        assert serial_pool.starts == [2]
        assert serial_pool.maps == [2] * 6

    def test_z120_within_tiny_budget(self):
        # 8^4 + 3^4 + 5^4 = 4802 tests; the full ring would need 120^4
        m = Modulus(120)
        assert crt_product_count(m, 3, Mode.LEQ, budget=5000) == 65028096

    def test_z6_degree_one(self):
        assert crt_product_count(Modulus(6), 1, Mode.LEQ) == 24

    @pytest.mark.parametrize("n, d, mode, total", [
        (120, 3, Mode.LEQ, 8**4 + 3**4 + 5**4),
        # Two degree <= d products: 4^3 + 3^3 + 4^2 + 3^2 tuples.
        (12, 2, Mode.EXACT, 116)])
    def test_budget_holds_every_walk(self, monkeypatch, n, d, mode, total):
        # The budget holds the walks' total, refused before any walk.
        m = Modulus(n)
        assert crt_product_count(m, d, mode, budget=total) == \
            census.count(m, d, mode)

        def refuse(*args):
            raise AssertionError(args)

        monkeypatch.setattr(oracle, "count_range", refuse)
        for budget in (total - 1, 10):
            with pytest.raises(BudgetExceeded) as e:
                crt_product_count(m, d, mode, budget=budget)
            assert (e.value.required, e.value.budget) == (total, budget)


class TestVerify:
    def test_z6_all_match(self):
        reports = verify(Modulus(6), 2)
        assert len(reports) == 9
        assert all(r.match for r in reports)

    def test_z4_monic_counts(self):
        reports = verify(Modulus(4), 3)
        monic = {r.d: r.oracle_count for r in reports if r.mode is Mode.MONIC}
        assert monic[1] == 4 and monic[2] == 8 and monic[3] == 32

    def test_z9_leq_degree_one(self):
        reports = verify(Modulus(9), 1)
        leq = {r.d: r for r in reports if r.mode is Mode.LEQ}
        assert leq[1].oracle_count == 72
        assert leq[1].formula_count == census.count_separable_leq(Modulus(9), 1)
        assert leq[1].match

    def test_counts_each_query_once(self, monkeypatch):
        # One census.count per query (the up-front check of the largest set
        # is a census.window), and a skipped query builds no BudgetExceeded
        # (whose message would print the set size).
        calls, refusals = [], []
        count = census.count
        monkeypatch.setattr(census, "count",
                            lambda *args: calls.append(args) or count(*args))
        monkeypatch.setattr(oracle, "BudgetExceeded",
                            lambda *args: refusals.append(args))
        reports = verify(Modulus(2), 40, budget=10)
        assert len(calls) == 3 * 41
        assert refusals == []
        assert any(r.skipped for r in reports)
        assert all(r.match for r in reports if not r.skipped)

    def test_report_fields(self):
        report = oracle.VerificationReport(2, Mode.LEQ, 30, 30, True, 0.5)
        assert (report.d, report.mode, report.oracle_count,
                report.formula_count, report.match, report.elapsed,
                report.skipped) == (2, Mode.LEQ, 30, 30, True, 0.5, False)
        assert report == oracle.VerificationReport(
            2, Mode.LEQ, 30, 30, True, 0.5, skipped=False)
        assert report != oracle.VerificationReport(
            2, Mode.LEQ, None, 30, None, 0.5, skipped=True)
        with pytest.raises(AttributeError):
            report.match = False
        with pytest.raises(AttributeError):
            report.extra = 1  # no instance dict

    def test_budget_exceeded_marks_skipped(self):
        reports = verify(Modulus(6), 2, budget=100)
        skipped = [r for r in reports if r.skipped]
        assert skipped
        assert all(r.oracle_count is None and r.match is None for r in skipped)
        done = [r for r in reports if not r.skipped]
        assert done and all(r.match for r in done)


class TestNegativeDegree:
    def test_query_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            enumerate_count(Modulus(6), -1, Mode.LEQ)

    def test_verify_rejects_negative_d_max(self):
        with pytest.raises(DomainError):
            verify(Modulus(6), -1)


# Primes, prime powers and composites, so the count runs on one table slice
# (p == n), and the walk on one table (n = p^k) and on several.
MODULI = st.one_of(
    st.sampled_from([2, 3, 5, 7, 11, 13, 29, 53, 59]),
    st.sampled_from([4, 8, 9, 25, 27, 49, 32]),
    st.integers(min_value=2, max_value=60),
)
# Largest space a drawn query may have; it bounds how far the reference
# below skips before its range.
SPACE_CAP = 100_000


def reference_count(n, d, mode, lo, hi):
    """Separable tuples among indices [lo, hi), walking itertools.product
    with coefficient 0 fastest (the oracle's index order) and testing each
    tuple with septest.is_separable."""
    m = Modulus(n)
    lead = {Mode.MONIC: [range(1, 2)], Mode.EXACT: [range(1, n)],
            Mode.LEQ: [range(n)]}[mode]
    digits = lead + [range(n)] * d  # most significant first
    tuples = itertools.islice(itertools.product(*digits), lo, hi)
    return sum(is_separable(PolyZn(m, t[::-1])) for t in tuples)


@st.composite
def queries(draw):
    n = draw(MODULI)
    mode = draw(st.sampled_from(list(Mode)))
    d_max = max(d for d in range(4) if space_size(n, d, mode) <= SPACE_CAP)
    d = draw(st.integers(min_value=0, max_value=d_max))
    return n, d, mode, space_size(n, d, mode)


def block_caps(n):
    """Caps on the composite walk's block, so that blocks of every size n^j
    the space allows, and their edges, fall inside a drawn space."""
    return st.sampled_from([1, n, n**2, n**3])


class TestWalkProperties:
    @settings(max_examples=150, deadline=None)
    @given(queries(), st.data())
    def test_range_matches_reference(self, query, data):
        n, d, mode, size = query
        lo = data.draw(st.integers(min_value=0, max_value=size))
        hi = data.draw(st.integers(min_value=lo,
                                   max_value=min(size, lo + 400)))
        with mock.patch.object(oracle, "_BLOCK", data.draw(block_caps(n))):
            count = count_in(n, d, mode, lo, hi)
        assert count == reference_count(n, d, mode, lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(queries(), st.data())
    def test_ranges_sum_to_whole(self, query, data):
        n, d, mode, size = query
        cuts = sorted(data.draw(st.lists(
            st.integers(min_value=0, max_value=size), max_size=6)))
        bounds = [0] + cuts + [size]
        with mock.patch.object(oracle, "_BLOCK", data.draw(block_caps(n))):
            parts = [count_in(n, d, mode, lo, hi)
                     for lo, hi in zip(bounds, bounds[1:])]
        assert sum(parts) == count_in(n, d, mode, 0, size)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_tile_is_a_gather(self, data):
        # Each tuple c of the block reads the table entry at
        # at + sum (c_i mod p) p^i, coefficient 0 fastest.
        n = data.draw(st.sampled_from([4, 6, 8, 9, 10, 12, 15, 18, 30]))
        p = data.draw(st.sampled_from([q for q, _ in Modulus(n).factors]))
        j = data.draw(st.integers(
            min_value=0, max_value=max(j for j in range(8) if n**j <= 4000)))
        table = bytearray(data.draw(st.binary(min_size=p**j,
                                              max_size=p**j + 20)))
        at = data.draw(st.integers(min_value=0,
                                   max_value=len(table) - p**j))
        gather = bytes(
            table[at + sum(c_i % p * p**i for i, c_i in enumerate(c))]
            for c in ([t // n**i % n for i in range(j)] for t in range(n**j)))
        assert bytes(oracle._tile(table, at, p, n, j)) == gather

    @pytest.mark.parametrize("n, d", [(6, 5), (30, 3)])
    def test_work_follows_blocks(self, n, d):
        # The walk's Python work is per block of n^j tuples and per p
        # table entries of each prime's tiling, not per row of n tuples.
        size = space_size(n, d, Mode.LEQ)
        count, lines = lines_run(count_range, n, 0, size,
                                 also=[oracle._tile])
        assert count == census.count(Modulus(n), d, Mode.LEQ)
        assert size >= 10 * lines

    @pytest.mark.parametrize("n, d", [(6, 8), (30, 4)])
    def test_walk_memory(self, n, d):
        # Each prime's table, and a few blocks of at most max(_BLOCK, n)
        # bytes: the 10^7 tuples are never held at once.
        tables = sum(p**(d + 1) for p, _ in Modulus(n).factors)
        size = space_size(n, d, Mode.LEQ)
        tracemalloc.start()
        try:
            count = count_in(n, d, Mode.LEQ, 0, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == census.count(Modulus(n), d, Mode.LEQ)
        assert peak <= tables + 4 * max(oracle._BLOCK, n)

    @pytest.mark.parametrize("n, d, mode", [
        (6, 3, Mode.LEQ), (4, 4, Mode.EXACT), (30, 2, Mode.MONIC)])
    def test_table_bound_is_exact(self, monkeypatch, n, d, mode):
        # The tables are p^(d+1) bytes per prime p | n, or p^d when the
        # range holds one value of x^d, as the monic set does; they are
        # walked at MAX_TABLE_BYTES and refused one byte below it.
        top = d if mode is Mode.MONIC else d + 1
        held = sum(p**top for p, _ in Modulus(n).factors)
        lo, hi = census.window(n, d, mode)
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", held)
        assert count_range(n, lo, hi) == census.count(Modulus(n), d, mode)
        monkeypatch.setattr(oracle, "MAX_TABLE_BYTES", held - 1)
        with pytest.raises(DomainError, match=f"tables of {held} bytes"):
            count_range(n, lo, hi)

    def test_tables_beyond_bound_refused_before_any_is_sieved(
            self, monkeypatch):
        # Degree <= 1 over Z/(2 * 3 * 174763) holds a table of 174763^2
        # bytes, about 3 * 10^10: refused before any table is sieved.
        def sieve(*args):
            raise AssertionError("a table was sieved")

        monkeypatch.setattr(oracle, "_sieve", sieve)
        n = 2 * 3 * 174763
        with pytest.raises(DomainError, match="tables of 30542106182 bytes"):
            count_range(n, *census.window(n, 1, Mode.EXACT))

    @pytest.mark.parametrize("d, mode", [(0, Mode.LEQ), (1, Mode.MONIC)])
    def test_modulus_above_block(self, d, mode):
        # n > _BLOCK: a block still spans coefficient 0, so the n tuples
        # take a few steps, not one each.
        n = 2 * 3 * 174763
        assert n > oracle._BLOCK
        count, lines = lines_run(count_range, n, *census.window(n, d, mode),
                                 also=[oracle._tile])
        assert count == census.count(Modulus(n), d, mode)
        assert lines < 200


PRIMES = [2, 3, 5, 7, 11, 13]


def kernel_table(p, d, lo, hi):
    """Verdicts of the reference gcd kernel, the list Euclid over Z/p, on
    table indices [lo, hi) in the sieve's order: digit i of the index in
    base p is coefficient i of a polynomial of degree <= d."""
    # The window lies in one run of p^k entries that share digits k and up;
    # itertools.product runs the digits below k, its last (digit 0) fastest.
    k = 0
    while k <= d and lo // p**k != (hi - 1) // p**k:
        k += 1
    start = lo - lo % p**k
    high = [start // p**i % p for i in range(k, d + 1)]
    low = itertools.islice(itertools.product(range(p), repeat=k),
                           lo - start, hi - start)
    return bytearray(separable_mod_p([*t[::-1], *high], p)
                     for t in low)


def kernel_associates(p, d):
    """kernel_table(p, d, 0, p^(d + 1)), with the gcd kernel run once per
    monic polynomial: a unit multiple a f is separable exactly when f is,
    so every other entry takes the verdict of its monic associate."""
    table = bytearray(p**(d + 1))  # 0 at the zero polynomial
    for e in range(d + 1):
        monic = kernel_table(p, e, p**e, 2 * p**e)
        for a in range(1, p):
            # a f has coefficient a c_i mod p where f has c_i, and a at x^e.
            places = [[a * c % p * p**i for c in range(p)]
                      for i in reversed(range(e))]
            for t, verdict in zip(itertools.product(*places), monic):
                table[a * p**e + sum(t)] = verdict
    return table


def kernel_shifts(p, d):
    """kernel_table(p, d, p^d, 2 p^d) for d >= 2 and p not dividing d, with
    the gcd kernel run once per monic f of degree d with no x^(d-1) term:
    every monic polynomial of degree d is f(x + s) for one such f and one
    s, and a shift keeps separability.  The p polynomials f that differ
    only in their constant term c shift to g + c, g = f(x + s) - f(0), so
    their verdicts fill one run of p entries, rotated by g(0)."""
    monic = kernel_table(p, d, p**d, p**d + p**(d - 1))  # no x^(d-1) term
    table = bytearray(p**d)
    for s in range(p):
        for r in range(p**(d - 2)):  # digit i - 1 of r: coefficient i of f
            g = []  # f(x + s) - f(0) by Horner, from the coefficient of x^d
            for c in [1, 0, *(r // p**(i - 1) % p
                              for i in range(d - 2, 0, -1)), 0]:
                g = [(s * a + b) % p for a, b in zip([*g, 0], [0, *g])]
                g[0] = (g[0] + c) % p
            run, k = monic[r * p:(r + 1) * p], g[0]
            at = sum(c * p**i for i, c in enumerate(g[1:d], 1))
            table[at:at + p] = run[-k:] + run[:-k] if k else run
    return table


@functools.cache
def whole_table(p, d):
    return oracle._sieve(p, d, 0, p**(d + 1))


@st.composite
def tables(draw):
    # A whole table of at most 13^5 entries; else (degree 5 for p >= 11,
    # 6 for p = 7 and 7 for p = 5) the monic window [p^d, 2 p^d).
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.sampled_from([d for d in range(8) if p**d <= 13**5]))
    size = p**(d + 1)
    return (p, d, 0, size) if size <= 13**5 else (p, d, p**d, 2 * p**d)


@st.composite
def sieve_windows(draw):
    # A whole table of at most 2 10^5 entries and a window of it that cuts
    # the runs of the multiples of the squares of degree e: shorter than a
    # block of p^(2e) (at most one multiple of each g^2), or p or p^2
    # blocks long, or any width, from anywhere in the table.
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 31]))
    d = draw(st.integers(2, max(d for d in range(20)
                                if p**(d + 1) <= 2 * 10**5)))
    block = p**(2 * draw(st.integers(1, d // 2)))
    size = p**(d + 1)
    lo = draw(st.integers(0, size - 1))
    width = draw(st.one_of(
        st.sampled_from([1, block // 2, block - 1, block, block + 1,
                         p * block + 1, p**2 * block - 1]),
        st.integers(1, size)))
    return p, d, lo, min(lo + width, size)


class TestSieve:
    @pytest.mark.parametrize("p", PRIMES)
    @pytest.mark.parametrize("monic", [True, False])
    def test_tables_match_gcd_kernel(self, p, monic):
        # Every entry of every table with at most 5 free coefficients: the
        # monic polynomials of degree d are the window [p^d, 2 p^d), and
        # the whole tables of degree d < 5 are prefixes of the one of
        # degree 4.
        whole = None if monic else kernel_associates(p, 4)
        for d in range(6 if monic else 5):
            lo, hi = (p**d, 2 * p**d) if monic else (0, p**(d + 1))
            if not monic:
                reference = whole[lo:hi]
            elif d > 1 and d % p:
                reference = kernel_shifts(p, d)
            else:
                reference = kernel_table(p, d, lo, hi)
            assert oracle._sieve(p, d, lo, hi) == reference

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_associates_are_the_gcd_kernel(self, p):
        # The reference above, against the kernel run on every entry.
        for d in range(4):
            whole = kernel_table(p, d, 0, p**(d + 1))
            assert kernel_associates(p, d) == whole

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_shifts_are_the_gcd_kernel(self, p):
        # The monic reference above, against the kernel run on every entry.
        for d in range(2, 6):
            if d % p:
                monic = kernel_table(p, d, p**d, 2 * p**d)
                assert kernel_shifts(p, d) == monic

    @pytest.mark.parametrize("p, d, monic", [
        (2, 6, True), (3, 6, True), (5, 6, True), (2, 7, True), (3, 7, True),
        (2, 5, False), (3, 5, False), (2, 6, False), (3, 6, False)])
    def test_degree_three_squares_match_gcd_kernel(self, p, d, monic):
        # The whole tables of degree 5 and 6 and the monic windows of
        # degree 6 and 7 that the test above leaves out: from degree 6 on
        # they take the squares of g of degree 3, packed in the widest slots.
        lo, hi = (p**d, 2 * p**d) if monic else (0, p**(d + 1))
        assert oracle._sieve(p, d, lo, hi) == kernel_table(p, d, lo, hi)

    @pytest.mark.parametrize("p, d", [(2, 7), (3, 5), (5, 4), (7, 3),
                                      (13, 2)])
    def test_tables_match_split_euclid(self, p, d):
        # septest's split Euclid on every entry of a whole table.
        table = oracle._sieve(p, d, 0, p**(d + 1))
        polys = itertools.product(range(p), repeat=d + 1)  # digit 0 last
        assert table == bytearray(is_separable(PolyZn(Modulus(p), t[::-1]))
                                  for t in polys)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([12, 30, 45, 1001, 2**10 * 3**5,
                            7**3 * 11**2 * 13, 13**3]),
           st.integers(0, 3), st.data())
    def test_composite_verdicts_match_tables(self, n, d, data):
        # Over Z/n, f is separable exactly when its reduction mod each prime
        # p | n is marked in the table of p.
        coeffs = data.draw(st.lists(st.integers(0, n - 1), min_size=d + 1,
                                    max_size=d + 1))
        marks = [whole_table(p, d)[sum(c % p * p**i for i, c in
                                       enumerate(coeffs))]
                 for p, _ in Modulus(n).factors]
        assert is_separable(PolyZn(Modulus(n), coeffs)) == all(marks)

    @settings(max_examples=200, deadline=None)
    @given(tables(), st.data())
    def test_window_matches_whole_table(self, table, data):
        # p <= 13 and degree <= 7: a window sieved alone marks what the
        # table around it marks, wherever it starts and ends, the monic and
        # exact base p^d and the monic end 2 p^d among them.  The multiples
        # of the squares of degree e run in blocks of p^(2e): a window from
        # k p^(2e) + {-1, 0, 1} to the block k, k + 1 or k + 2 holds 0, 1 or
        # 2 multiples of each g^2, and one to the next multiple of p^i above
        # k ends just past a step that wraps i digits of the run.
        p, d, start, end = table
        e = data.draw(st.integers(min_value=1, max_value=max(1, d // 2)))
        block = p**(2 * e)

        def near(k_off, floor):
            return min(max(k_off[0] * block + k_off[1], floor), end)

        edges = [x for x in (0, p**d, 2 * p**d, p**(d + 1))
                 if start <= x <= end]
        offsets = st.sampled_from([-1, 0, 1])
        lo = data.draw(st.one_of(
            st.sampled_from(edges),
            st.integers(min_value=start, max_value=end),
            st.tuples(st.integers(min_value=start // block,
                                  max_value=end // block),
                      offsets).map(lambda k_off: near(k_off, start))))
        k = lo // block
        ks = [k, k + 1, k + 2,
              *((k // p**i + 1) * p**i for i in range(1, d - 2 * e + 1))]
        hi = data.draw(st.one_of(
            st.sampled_from([x for x in edges if x >= lo]),
            st.integers(min_value=lo, max_value=end),
            st.tuples(st.sampled_from(ks),
                      offsets).map(lambda k_off: near(k_off, lo))))
        whole = oracle._sieve(p, d, start, end)
        assert len(whole) == end - start
        assert oracle._sieve(p, d, lo, hi) == whole[lo - start:hi - start]

    @settings(max_examples=150, deadline=None)
    @given(sieve_windows())
    @example((2, 16, 3 * 2**12 + 5, 7 * 2**13 + 3))  # e = 1 .. 8, many steps
    @example((5, 6, 5**6 + 7, 2 * 5**6 - 2))  # e = 3, mid-block at both ends
    @example((3, 8, 3**8 - 1, 3**8 + 3**6 + 1))  # one multiple of each g^2
    @example((31, 2, 31**2 + 5, 2 * 31**2 - 5))
    def test_window_is_a_slice_of_the_whole_table(self, window):
        # A window sieved alone is the slice of the whole table, wherever
        # it cuts the runs of multiples: levels e = 1 .. 3 (up to 8 at
        # p = 2), runs of one multiple and runs of many steps.
        p, d, lo, hi = window
        assert oracle._sieve(p, d, lo, hi) == whole_table(p, d)[lo:hi]

    def test_setup_is_per_level(self):
        # The monic quadratics mod 1009: one multiple of each of the 1009
        # squares g^2, so the work is set-up.  Each level is set up for
        # all g at once, a few list entries per g, and each g costs only
        # its mark: about 10 lines per g (29 when set up g by g).
        lo, hi = 1009**2, 2 * 1009**2
        window, lines = lines_run(oracle._sieve, 1009, 2, lo, hi)
        assert lines < 12 * 1009
        assert window == kernel_shifts(1009, 2)
        for at in (lo, lo + 500000, hi - 2000):
            assert window[at - lo:at - lo + 2000] == kernel_table(
                1009, 2, at, at + 2000)

    def test_work_follows_the_window(self):
        # 2000 entries far into a table of 1009^3: the sieve visits only
        # the multiples of each of the 1009 squares g^2 that reach them, one
        # or two each, not the 1009 multiples of each below them, and sets
        # up each g only as far as those steps go (about 28 lines per g).
        lo = 5 * 10**8 + 12345
        window, lines = lines_run(oracle._sieve, 1009, 2, lo, lo + 2000)
        assert window == kernel_table(1009, 2, lo, lo + 2000)
        assert lines < 100 * 1009
        assert lines < 40 * 1009

    @settings(max_examples=100, deadline=None)
    @given(sieve_windows(), st.integers(1, 5))
    @example((5, 6, 5**6 + 7, 2 * 5**6 - 2), 4)  # 125 g of degree 3
    def test_sliced_setup_marks_what_one_slice_marks(self, window, size):
        # Each level of these windows fits one slice of the module's
        # _SLICE; set up a few g at a time, it must come out the same.
        p, d, lo, hi = window
        whole = oracle._sieve(p, d, lo, hi)
        with mock.patch.object(oracle, "_SLICE", size):
            assert oracle._sieve(p, d, lo, hi) == whole

    def test_setup_memory_is_per_slice(self):
        # A window of the degree 6 table mod 13 sets up all 2197 monic g of
        # degree 3, about 2e list entries each, in one slice; 64 at a time
        # the set-up holds a fraction of that.
        def sieve():
            tracemalloc.start()
            try:
                table = oracle._sieve(13, 6, 13**6, 13**6 + 2000)
                return table, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert 13**3 <= oracle._SLICE
        whole, peak = sieve()
        with mock.patch.object(oracle, "_SLICE", 64):
            sliced, sliced_peak = sieve()
        assert sliced == whole == kernel_table(13, 6, 13**6, 13**6 + 2000)
        assert 3 * sliced_peak < peak

    def test_setup_follows_the_steps(self):
        # The monic quartics mod 7: 49 multiples of each of the 7 squares
        # of degree 1 and 1 of each of the 49 of degree 2.  Each g builds
        # the steps its run takes and the powers its first multiple needs,
        # no more: about 7,200 lines.
        lo, hi = 7**4, 2 * 7**4
        window, lines = lines_run(oracle._sieve, 7, 4, lo, hi)
        assert window == kernel_table(7, 4, lo, hi)
        assert lines < 10000

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(PRIMES), st.sampled_from(list(Mode)), st.data())
    def test_prime_count_is_one_slice(self, p, mode, data):
        # The space of each mode sits at its own base in the table (the
        # exact set from p^d on); any range counts as the reference does.
        d_max = max(d for d in range(6) if space_size(p, d, mode) <= SPACE_CAP)
        d = data.draw(st.integers(min_value=0, max_value=d_max))
        size = space_size(p, d, mode)
        lo = data.draw(st.integers(min_value=0, max_value=size))
        hi = data.draw(st.integers(min_value=lo,
                                   max_value=min(size, lo + 400)))
        assert count_in(p, d, mode, lo, hi) == reference_count(
            p, d, mode, lo, hi)

    @pytest.mark.parametrize("mode, size", [(Mode.LEQ, 101**3),
                                            (Mode.EXACT, 100 * 101**2)])
    def test_prime_count_holds_one_slice(self, mode, size):
        # A prime modulus builds only the slice it counts (the exact set
        # without the lower degrees): the budget bounds memory as well as
        # time.
        tracemalloc.start()
        try:
            count = count_in(101, 2, mode, 0, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == census.count(Modulus(101), 2, mode)
        assert peak <= size + 64 * 1024

    def test_raised_budget_keeps_prime_memory_bounded(self):
        # 14143^2 = 2 10^8 tuples under a raised budget, as a process: the
        # window is sieved in chunks, not held whole (209 MB RSS if it were).
        # A fresh interpreter runs the command, so that the peak RSS of its
        # children is the command's alone.
        script = (
            "import resource, subprocess, sys\n"
            "out = subprocess.run([sys.executable, '-m', 'sepzn.cli', "
            "'enumerate', '-n', '14143', '--mode', 'leq', '-d', '1', "
            "'--budget', '300000000'], capture_output=True, text=True, "
            "check=True).stdout\n"
            "print(out, resource.getrusage(resource.RUSAGE_CHILDREN)"
            ".ru_maxrss)\n")
        src = str(Path(oracle.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        record, maxrss_kb = out.rsplit(None, 1)
        assert json.loads(record)["result"]["value"] == 14143**2 - 1
        assert int(maxrss_kb) < 64 * 1024
