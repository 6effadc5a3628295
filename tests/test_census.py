import collections
import itertools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepzn import census
from sepzn.arith import (
    DomainError,
    Modulus,
    factorize,
    totient,
    totient_prime_power,
)
from sepzn.census import (
    Mode,
    count,
    count_leq_recurrence,
    count_monic_separable,
    count_separable_exact,
    count_separable_leq,
    count_separable_leq_primepower,
    geometric_sum,
    proportion_monic_separable,
    window,
)

FIRST_FIFTEEN_PRIMES_PRODUCT = 614889782588491410


def set_size(n, d, mode):
    start, stop = window(n, d, mode)
    return stop - start


class TestCarlitz:
    """Monic counts over a prime field Z/p: the prime-power count at k = 1."""

    def test_opening_question(self):
        assert count(Modulus(11), 3, Mode.MONIC) == 1210
        assert Fraction(1210, 11**3) == Fraction(10, 11)

    def test_mod2_quadratics(self):
        # of the 4 monic quadratics over Z/2, only x^2+x and x^2+x+1 separate
        assert count(Modulus(2), 2, Mode.MONIC) == 2

    def test_all_linear_monics(self):
        assert count(Modulus(5), 1, Mode.MONIC) == 5

    def test_degree_zero(self):
        assert count(Modulus(7), 0, Mode.MONIC) == 1


class TestMonicPrimePower:
    def test_small_prime_powers(self):
        assert count(Modulus(2**2), 2, Mode.MONIC) == 8    # phi(16)
        assert count(Modulus(3**2), 2, Mode.MONIC) == 54   # phi(81)

    def test_reduces_to_carlitz_at_k1(self):
        # Carlitz: p^d - p^(d-1) for d >= 2, p for d = 1, 1 for d = 0
        for p in (2, 3, 5, 7):
            carlitz = [1, p] + [p**d - p ** (d - 1) for d in range(2, 5)]
            for d in range(5):
                assert count(Modulus(p), d, Mode.MONIC) == carlitz[d]

    def test_is_totient_of_power(self):
        for p, k, d in [(2, 2, 3), (3, 3, 2), (5, 2, 4)]:
            assert count(Modulus(p**k), d, Mode.MONIC) == \
                totient_prime_power(p, k * d)


class TestMonicComposite:
    def test_fifteen(self):
        assert count_monic_separable(Modulus(15), 2) == 120  # phi(225)

    def test_prime_input(self):
        assert count_monic_separable(Modulus(13), 3) == 13**3 - 13**2

    def test_four_cubed(self):
        assert count_monic_separable(Modulus(4), 3) == 32  # phi(4^3)

    def test_edge_degrees(self):
        assert count_monic_separable(Modulus(12), 1) == 12
        assert count_monic_separable(Modulus(12), 0) == 1


class TestProportion:
    def test_first_fifteen_primes(self):
        assert proportion_monic_separable(Modulus(FIRST_FIFTEEN_PRIMES_PRODUCT)) \
            == Fraction(1605264998400, 11573306655157)

    def test_prime_power(self):
        assert proportion_monic_separable(Modulus(49)) == Fraction(6, 7)

    def test_six(self):
        assert proportion_monic_separable(Modulus(6)) == Fraction(1, 3)

    def test_independent_of_degree(self):
        m = Modulus(360)
        assert proportion_monic_separable(m, 2) == proportion_monic_separable(m, 9)

    def test_matches_monic_count(self):
        for n in (4, 6, 15, 360):
            m = Modulus(n)
            for d in (2, 3):
                assert Fraction(count_monic_separable(m, d), n**d) == \
                    proportion_monic_separable(m, d)

    def test_rejects_low_degree(self):
        with pytest.raises(DomainError):
            proportion_monic_separable(Modulus(6), 1)


class TestLeqPrimePower:
    def test_degree_one_seed(self):
        for p, k in [(2, 1), (2, 2), (3, 1), (5, 2)]:
            phi = totient_prime_power(p, k)
            assert count_separable_leq_primepower(p, k, 1) == \
                phi * (p**k + p ** (k - 1))

    def test_small_cases(self):
        assert count_separable_leq_primepower(2, 1, 2) == 5
        assert count_separable_leq_primepower(2, 2, 2) == 40

    def test_degree_zero(self):
        for p, k in [(2, 1), (3, 2), (5, 1)]:
            assert count_separable_leq_primepower(p, k, 0) == \
                totient_prime_power(p, k)

    @pytest.mark.parametrize("k, d", [(0, 1), (-1, 2), (0, 0)])
    def test_refuses_k_below_one(self, k, d):
        # (2, 0, 1) gave 0.75, (2, -1, 2) 0.078125 and (2, 0, 0) 0.5.
        with pytest.raises(DomainError, match=f"k >= 1, got {k}"):
            count_separable_leq_primepower(2, k, d)

    @pytest.mark.parametrize("bad", [2.0, Fraction(2), "2"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_refuses_what_is_not_an_integer(self, bad, at):
        # (2.0, 1, 2) gave 5.0: no exact count is a float.
        args = [2, 1, 2]
        args[at] = bad
        with pytest.raises(TypeError):
            count_separable_leq_primepower(*args)


class TestLeqComposite:
    def test_z120_paper_value(self):
        assert count_separable_leq(Modulus(120), 3) == 65028096

    def test_prime_power_matches(self):
        assert count_separable_leq(Modulus(8), 4) == \
            count_separable_leq_primepower(2, 3, 4)

    def test_z6_degree_one(self):
        r, total = count(Modulus(6), 1, Mode.LEQ), set_size(6, 1, Mode.LEQ)
        assert r == 24
        assert total == 36
        assert Fraction(r, total) == Fraction(2, 3)

    def test_never_saturates(self):
        for n in (2, 6, 15, 120):
            for d in range(4):
                assert count_separable_leq(Modulus(n), d) < n ** (d + 1)


class TestExactDegree:
    def test_z15_paper_value(self):
        assert count_separable_exact(Modulus(15), 2) == 1888

    def test_degree_zero_is_units(self):
        from sepzn.arith import totient
        for n in (4, 9, 15):
            assert count_separable_exact(Modulus(n), 0) == totient(Modulus(n))

    def test_z6_degree_one(self):
        assert count_separable_exact(Modulus(6), 1) == 22

    def test_telescoping(self):
        for n in (6, 12, 15):
            m = Modulus(n)
            for d in range(6):
                assert sum(count_separable_exact(m, e) for e in range(d + 1)) \
                    == count_separable_leq(m, d)


class TestCount:
    @pytest.mark.parametrize("mode, formula, total", [
        (Mode.MONIC, count_monic_separable, lambda n, d: n**d),
        (Mode.LEQ, count_separable_leq, lambda n, d: n ** (d + 1)),
        (Mode.EXACT, count_separable_exact, lambda n, d: (n - 1) * n**d),
    ])
    def test_dispatches_by_mode(self, mode, formula, total):
        for n in (2, 6, 12, 120):
            m = Modulus(n)
            for d in range(5):
                r = count(m, d, mode.value), set_size(n, d, mode.value)
                assert r == (formula(m, d), total(n, d))

    @pytest.mark.parametrize("mode, start, stop", [
        (Mode.MONIC, lambda n, d: n**d, lambda n, d: 2 * n**d),
        (Mode.LEQ, lambda n, d: 0, lambda n, d: n ** (d + 1)),
        (Mode.EXACT, lambda n, d: n**d, lambda n, d: n ** (d + 1)),
    ])
    def test_window_places_each_set(self, mode, start, stop):
        # Index sum c_i n^i: the monic set has c_d = 1, the exact set
        # c_d != 0, both above every polynomial of lower degree.
        for n in (2, 6, 12, 120):
            for d in range(5):
                assert window(n, d, mode.value) == (start(n, d), stop(n, d))


PRIME_POWERS = st.sampled_from([2, 3, 5, 7, 101, 1009, 999983]).flatmap(
    lambda p: st.integers(min_value=1, max_value=int(math.log(10**12, p)))
    .map(lambda k: p**k))
ONE_DEGREE = {Mode.MONIC: count_monic_separable,
              Mode.LEQ: count_separable_leq,
              Mode.EXACT: count_separable_exact}


class TestCounts:
    @staticmethod
    def leq(m, d):
        """Degree <= d by the recurrence over each prime power, phi(n) at
        d = 0 and 0 below it."""
        if d < 1:
            return totient(m) if d == 0 else 0
        return math.prod(count_leq_recurrence(p, k, d) for p, k in m.factors)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(st.integers(min_value=2, max_value=10**12),
                     PRIME_POWERS),
           st.sampled_from(list(Mode)),
           st.integers(min_value=0, max_value=13),
           st.integers(min_value=0, max_value=13))
    def test_match_independent_forms(self, n, mode, d_min, stop):
        # ds inside [0, 12], empty where d_min >= stop.
        m, ds = Modulus(n), range(d_min, stop)
        values = census._counts(m.factors, ds, mode)
        assert values == [count(m, d, mode) for d in ds] \
            == [ONE_DEGREE[mode](m, d) for d in ds]
        for d, value in zip(ds, values):
            if mode is Mode.LEQ:
                assert value == self.leq(m, d)
            elif mode is Mode.EXACT:  # telescopes to degree <= d
                assert value == self.leq(m, d) - self.leq(m, d - 1)
            else:
                assert value == [1, n, totient(m) * n ** (d - 1)][min(d, 2)]

    @pytest.mark.parametrize("mode", list(Mode))
    def test_refuse_what_window_refuses_at_the_largest_degree(self, mode):
        # Decided before n is factored: 2^89 - 1 cannot be.
        m = Modulus(2**89 - 1)
        with pytest.raises(DomainError, match="at d = 20000 has a size"):
            count(m, 20000, mode)
        with pytest.raises(DomainError, match="cannot factor"):
            count(m, 1, mode)
        with pytest.raises(DomainError, match="degree must be >= 0, got -1"):
            count(Modulus(6), -1, mode)


# First n of the ranges drawn below: ranges that cross 1000 and 10^6, that
# hold powers of 2, 3 and 997 and their neighbours, and n near 10^12, most
# of them with a cofactor above 10^6 after the primes below 1000.  1009^2 is
# the least cofactor free of those primes that is not prime.
FIRST_N = st.one_of(
    st.integers(min_value=2, max_value=1100),
    st.integers(min_value=10**6 - 40, max_value=10**6 + 5),
    st.sampled_from([2**20, 3**12, 997, 997**2, 997**3, 997**4, 1009**2])
    .flatmap(lambda n: st.integers(min_value=n - 20, max_value=n + 2)),
    st.integers(min_value=10**12 - 40, max_value=10**12 + 20))


class TestCountsByN:
    """_counts_by_n, the sieve behind `table`, against counts n by n."""

    @staticmethod
    def blocks(ns, ds, mode):
        """The number of blocks _counts_by_n sieves: the term row of 2^1 is
        built once in each block of more than three n."""
        built, terms = [], census._counts

        def counting(factors, *rest):
            built.append(factors == [(2, 1)])
            return terms(factors, *rest)

        with mock.patch.object(census, "_counts", counting):
            collections.deque(census._counts_by_n(ns, ds, mode), maxlen=0)
        return sum(built)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(FIRST_N, st.integers(min_value=1, max_value=30),
           st.sampled_from(list(Mode)), st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=40000))
    @example(990, 20, Mode.EXACT, 0, 3, 20000)
    @example(997**2 - 4, 8, Mode.LEQ, 1, 3, 8000)
    @example(997**4 - 3, 6, Mode.MONIC, 2, 2, 1 << 24)
    @example(10**6 - 12, 20, Mode.EXACT, 2, 3, 1)
    @example(2**20 - 2, 5, Mode.LEQ, 0, 2, 1)
    @example(1009**2 - 1, 3, Mode.LEQ, 1, 1, 1 << 24)
    @example(3**12 - 3, 5, Mode.MONIC, 0, 3, 1 << 24)
    def test_match_counts(self, first, length, mode, d_min, degrees, bits):
        # A small budget: a block of 1 to about 60 n, so ranges straddle
        # block edges.
        ns, ds = range(first, first + length), range(d_min, d_min + degrees)
        with mock.patch.object(census, "_BLOCK_BITS", bits):
            rows = list(census._counts_by_n(ns, ds, mode))
        assert rows == [(n, [count(Modulus(n), d, mode) for d in ds])
                        for n in ns]

    @pytest.mark.parametrize("bits", [1, 1 << 24])
    def test_refuse_inside_a_block_after_the_n_before(self, bits):
        # 2^89 - 1 is a probable prime above where primality is certified.
        ns = range(2**89 - 3, 2**89 + 2)
        with pytest.raises(DomainError) as refused:
            factorize(2**89 - 1)
        with mock.patch.object(census, "_BLOCK_BITS", bits):
            rows = census._counts_by_n(ns, range(0, 3), Mode.EXACT)
            assert [n for n, _ in itertools.islice(rows, 2)] == list(ns[:2])
            with pytest.raises(DomainError) as raised:
                next(rows)
        assert str(raised.value) == str(refused.value)

    def test_memory_stays_one_block(self):
        # A block of about 50 n: the peak over 40 blocks is that over 10.
        peaks, ds = [], range(0, 7)
        with mock.patch.object(census, "_BLOCK_BITS", 1 << 18):
            for length, least in [(600, 10), (2400, 40)]:
                ns = range(10**5, 10**5 + length)  # every stop 17 bits long
                assert self.blocks(ns, ds, Mode.EXACT) >= least
                tracemalloc.start()
                collections.deque(
                    census._counts_by_n(ns, ds, Mode.EXACT), maxlen=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        # One block's rows, 8 ints each, take about 20 kB.
        assert peaks[1] <= 1.25 * peaks[0]
        assert peaks[1] < 100_000


class TestRecurrence:
    def test_degree_one_is_seed(self):
        for p, k in [(2, 1), (3, 2)]:
            assert count_leq_recurrence(p, k, 1) == \
                count_separable_leq_primepower(p, k, 1)

    def test_specific_values(self):
        assert count_leq_recurrence(2, 1, 3) == 9          # phi(2)*(2^3+1)
        assert count_leq_recurrence(3, 2, 4) == 6 * 81 * 82

    def test_matches_closed_form_grid(self):
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                for d in range(1, 11):
                    assert count_leq_recurrence(p, k, d) == \
                        count_separable_leq_primepower(p, k, d)

    def test_rejects_degree_zero(self):
        with pytest.raises(DomainError):
            count_leq_recurrence(2, 1, 0)

    @pytest.mark.parametrize("k", [0, -1])
    def test_refuses_k_below_one(self, k):
        # (2, 0, 3) gave 1.875.
        with pytest.raises(DomainError, match=f"k >= 1, got {k}"):
            count_leq_recurrence(2, k, 3)

    @pytest.mark.parametrize("bad", [3.5, Fraction(7, 2), "3"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_refuses_what_is_not_an_integer(self, bad, at):
        # (3.5, 1, 2) gave 33.125.
        args = [3, 1, 2]
        args[at] = bad
        with pytest.raises(TypeError):
            count_leq_recurrence(*args)


class TestGeometricSum:
    @staticmethod
    def direct_sum(p, k, d):
        beta, lam = p**k, p ** (k - 1)
        total = 0
        for j in range(d - 1):
            power = beta ** (d - j)
            total += lam**j * (power - power // p)
        return total

    def test_single_term(self):
        for p, k in [(2, 1), (3, 2), (5, 3)]:
            assert geometric_sum(p, k, 2) == totient_prime_power(p, 2 * k)

    def test_specific_values(self):
        assert geometric_sum(2, 1, 4) == 14       # phi(16)+phi(8)+phi(4)
        assert geometric_sum(3, 2, 3) == 648      # phi(3^6)+3*phi(3^4)

    def test_matches_direct_summation(self):
        for p in (2, 3, 5, 7):
            for k in (1, 2, 3):
                for d in range(2, 11):
                    assert geometric_sum(p, k, d) == self.direct_sum(p, k, d)

    def test_rejects_low_degree(self):
        with pytest.raises(DomainError):
            geometric_sum(2, 1, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_refuses_k_below_one(self, k):
        # (2, 0, 3) gave 0.75.
        with pytest.raises(DomainError, match=f"k >= 1, got {k}"):
            geometric_sum(2, k, 3)

    @pytest.mark.parametrize("bad", [2.5, Fraction(5, 2), "2"])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_refuses_what_is_not_an_integer(self, bad, at):
        # (2.5, 1, 3) gave 13.125.
        args = [2, 1, 3]
        args[at] = bad
        with pytest.raises(TypeError):
            geometric_sum(*args)


class TestErrata:
    def test_degree_leq_one_uses_k_minus_one_exponent(self):
        # phi(p^k)(p^k + p^(k-1)), not the p^(k+1) variant: at (2,1) the
        # latter would claim 6 separable polynomials among only 4 tuples
        assert count_separable_leq_primepower(2, 1, 1) == 3
        variant = totient_prime_power(2, 1) * (2 + 2**2)
        assert variant == 6 > 2**2

    def test_plus_sign_in_product(self):
        # phi(n) n^d prod(1 + p^-d), not the abstract's minus sign: the
        # paper's own Z/120 example only matches the plus sign
        from sepzn.arith import totient
        m = Modulus(120)
        phi_n = totient(m)
        d = 3
        plus = Fraction(phi_n * m.n**d)
        minus = Fraction(phi_n * m.n**d)
        for p, _ in m.factors:
            plus *= 1 + Fraction(1, p**d)
            minus *= 1 - Fraction(1, p**d)
        assert plus == 65028096 == count_separable_leq(m, d)
        assert minus != 65028096


class TestNegativeDegree:
    @pytest.mark.parametrize("call", [
        lambda: count(Modulus(5), -1, Mode.MONIC),
        lambda: count(Modulus(2**3), -1, Mode.MONIC),
        lambda: count_separable_leq_primepower(3, 2, -1),
        lambda: count_monic_separable(Modulus(6), -1),
        lambda: count_separable_leq(Modulus(6), -1),
        lambda: count_separable_exact(Modulus(6), -1),
    ])
    def test_rejected(self, call):
        with pytest.raises(DomainError):
            call()
