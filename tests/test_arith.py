import functools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepzn import arith
from sepzn.arith import (
    DomainError,
    Modulus,
    factorize,
    totient,
    totient_prime_power,
)


def brute_totient(n):
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def totient_sieve(limit):
    """phi(0..limit) by a sieve: starting from phi(k) = k, each prime p
    multiplies phi(k) by (1 - 1/p) for every multiple k of p."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # no smaller prime divides p
            for k in range(p, limit + 1, p):
                phi[k] -= phi[k] // p
    return phi


@functools.cache
def primes_below(limit):
    """The primes below limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


def trial_division(n):
    """((p, k), ...) for n whose prime factors are all below 10^6, by
    dividing out the primes in increasing order."""
    factors, m = [], n
    for p in primes_below(10**6):
        if p * p > m:
            break
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            factors.append((p, k))
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


class TestFactorize:
    def test_composite(self):
        assert factorize(120) == ((2, 3), (3, 1), (5, 1))

    def test_prime(self):
        assert factorize(7) == ((7, 1),)

    def test_product_of_first_fifteen_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
        assert factorize(614889782588491410) == tuple((p, 1) for p in primes)

    def test_rejects_small(self):
        with pytest.raises(DomainError):
            factorize(1)

    @given(st.integers(min_value=2, max_value=10**6))
    def test_reconstructs_n(self, n):
        assert math.prod(p**k for p, k in factorize(n)) == n

    @given(st.integers(min_value=2, max_value=10**7))
    def test_matches_trial_division(self, n):
        assert factorize(n) == trial_division(n)

    @settings(deadline=None)
    @given(st.lists(st.sampled_from(primes_below(10**6)),
                    min_size=2, max_size=3))
    def test_products_of_large_primes(self, primes):
        n = math.prod(primes)
        assert factorize(n) == trial_division(n)
        assert factorize(n) == tuple(sorted(Counter(primes).items()))

    @pytest.mark.parametrize("n, factors", [
        # Carmichael numbers: Fermat pseudoprimes to every coprime base.
        (561, ((3, 1), (11, 1), (17, 1))),
        (41041, ((7, 1), (11, 1), (13, 1), (41, 1))),
        (825265, ((5, 1), (7, 1), (17, 1), (19, 1), (73, 1))),
        # Strong pseudoprimes to the bases 2, 3, 5, 7, and to every base up
        # to 23.
        (3215031751, ((151, 1), (751, 1), (28351, 1))),
        (3825123056546413051, ((149491, 1), (747451, 1), (34233211, 1))),
        (1000003**2 * 7, ((7, 1), (1000003, 2))),
        # Rho with y^2 + 1 finds only the whole number, so it must go on to
        # y^2 + 2.
        (1009 * 1709, ((1009, 1), (1709, 1))),
        (1217**2, ((1217, 2),)),
        (2**200 * 3**50, ((2, 200), (3, 50))),
        (2**61 - 1, ((2**61 - 1, 1),)),
    ])
    def test_hard_cases(self, n, factors):
        assert factorize(n) == factors

    def test_largest_certifiable_split(self):
        # Both factors above 10^12: about the largest rho must find below
        # the Miller-Rabin bound.
        p, q = 10**12 + 39, 18 * 10**11 + 47
        assert factorize(p * q) == ((p, 1), (q, 1))

    def test_refuses_uncertified_probable_prime(self):
        # 2^89 - 1 is prime but above the deterministic Miller-Rabin bound.
        # The modulus is built; the refusal comes with the first read.
        m = Modulus(2**89 - 1)
        with pytest.raises(DomainError):
            m.factors
        # The bound is itself composite, a strong pseudoprime to every base
        # up to 41, and must not be reported prime.
        assert arith._MR_EXACT_BELOW == 1287836182261 * 2575672364521
        with pytest.raises(DomainError):
            factorize(arith._MR_EXACT_BELOW)

    def test_refuses_split_beyond_step_cap(self, monkeypatch):
        monkeypatch.setattr(arith, "_RHO_STEP_CAP", 64)
        factorize.cache_clear()
        with pytest.raises(DomainError, match="rho steps"):
            factorize(999983 * 1000003)
        factorize.cache_clear()

    def test_refusal_is_cached(self, monkeypatch):
        # The second call on a refused n raises the same message from the
        # cache, with no rho run again.
        monkeypatch.setattr(arith, "_RHO_STEP_CAP", 64)
        factorize.cache_clear()
        try:
            with pytest.raises(DomainError, match="rho steps") as first:
                factorize(999983 * 1000003)

            def divisor(*args):
                raise AssertionError("rho ran again")

            monkeypatch.setattr(arith, "_rho_divisor", divisor)
            with pytest.raises(DomainError) as second:
                factorize(999983 * 1000003)
            assert str(second.value) == str(first.value)
            assert factorize.cache_info().currsize == 1
        finally:
            factorize.cache_clear()

    @pytest.mark.parametrize("n, factors", [
        (1009**400, ((1009, 400),)),
        (1009**100 * 1013**100, ((1009, 100), (1013, 100))),
        (1009**3 * 1013**2 * 999983**5, ((1009, 3), (1013, 2), (999983, 5))),
    ], ids=["1009^400", "1009^100*1013^100", "three-prime-powers"])
    def test_prime_powers_take_few_splits(self, monkeypatch, n, factors):
        # Each certified prime is divided out of every cofactor left, so a
        # power of a prime above the trial bound is not split again and
        # again: splitting each cofactor found takes 399, 199 and 9 rho
        # calls on these n.
        calls = []
        divisor = arith._rho_divisor
        monkeypatch.setattr(arith, "_rho_divisor",
                            lambda m, n: calls.append(m) or divisor(m, n))
        factorize.cache_clear()
        assert factorize(n) == factors
        assert len(calls) <= 4

    @pytest.mark.parametrize("n, certified, split", [
        # Every prime factor is below the trial bound.
        (991 * 997, [], []),
        (997**2, [], []),
        (997**3, [], []),
        # The cofactor left is a prime below 10^6: returned at once.
        (997 * 1009, [], []),
        (2 * 999983, [], []),
        # The cofactor left is a composite at or above 10^6: rho splits it.
        (1009**2, [1009**2, 1009], [1009**2]),
        (1009 * 1013, [1009 * 1013, 1009, 1013], [1009 * 1013]),
        # The cofactor left is a prime above 10^6: Miller-Rabin certifies it.
        (7 * (10**6 + 3), [10**6 + 3], []),
    ])
    def test_trial_division_edge(self, monkeypatch, n, certified, split):
        # The cofactors tested for primality, and those split by rho.
        tested, splits = [], []
        is_prime, divisor = arith._is_certified_prime, arith._rho_divisor
        monkeypatch.setattr(arith, "_is_certified_prime",
                            lambda m, n: tested.append(m) or is_prime(m, n))
        monkeypatch.setattr(arith, "_rho_divisor",
                            lambda m, n: splits.append(m) or divisor(m, n))
        factorize.cache_clear()
        assert factorize(n) == trial_division(n)
        assert (tested, splits) == (certified, split)
        factorize.cache_clear()

    def test_trial_primes(self):
        assert arith._TRIAL_PRIMES == tuple(primes_below(arith._TRIAL_BOUND))

    def test_cache_is_bounded(self):
        assert factorize.cache_info().maxsize is not None


class TestModulus:
    def test_negative_canonicalized(self):
        assert Modulus(-12).n == 12

    def test_rejects_unit(self):
        with pytest.raises(DomainError):
            Modulus(1)

    def test_factors_on_first_read(self, monkeypatch):
        calls = []
        monkeypatch.setattr(arith, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        m = Modulus(-120)
        assert calls == []
        assert m.factors == factorize(120) and calls == [120]
        assert m.factors == ((2, 3), (3, 1), (5, 1)) and calls == [120]

    def test_factors_once_per_instance(self, monkeypatch):
        # One factorize call for each instance, however often it is read,
        # and then a plain attribute of that instance alone.
        calls = []
        monkeypatch.setattr(arith, "factorize",
                            lambda n: calls.append(n) or factorize(n))
        first, second = Modulus(12), Modulus(12)
        for _ in range(3):
            assert first.factors == second.factors == ((2, 2), (3, 1))
        assert calls == [12, 12]
        assert vars(first) == {"n": 12, "factors": ((2, 2), (3, 1))}
        assert "factors" not in vars(Modulus(12))

    @pytest.mark.parametrize("n", [6.9, Fraction(13, 2), "6"])
    def test_refuses_what_is_not_an_integer(self, n):
        # Modulus(6.9) was Z/6: n is never truncated to an int.
        with pytest.raises(TypeError):
            Modulus(n)

class TestTotient:
    def test_prime_power(self):
        assert totient(Modulus(8)) == 4

    def test_fifteen(self):
        assert totient(Modulus(15)) == 8

    def test_exhaustive_to_ten_thousand(self):
        phi = totient_sieve(10000)
        for n in range(2, 10001):
            assert totient(Modulus(n)) == phi[n]

    def test_conceptual_n_equals_one(self):
        # exposed for exponent arithmetic: phi(p^0) = 1
        assert totient_prime_power(5, 0) == 1

    @pytest.mark.parametrize("k", [-1, -2])
    def test_prime_power_refuses_negative_k(self, k):
        # (2, -1) gave 0.25.
        with pytest.raises(DomainError, match=f"k >= 0, got {k}"):
            totient_prime_power(2, k)

    @pytest.mark.parametrize("bad", [5.0, Fraction(5), "5"])
    @pytest.mark.parametrize("at", [0, 1])
    def test_prime_power_refuses_what_is_not_an_integer(self, bad, at):
        args = [5, 2]
        args[at] = bad
        with pytest.raises(TypeError):
            totient_prime_power(*args)


class TestTotientOfPower:
    """phi(n^e), which the monic census equals for degree e >= 2."""

    def test_prime_power(self):
        assert totient(Modulus(4**2)) == 8

    def test_fifteen_squared(self):
        assert totient(Modulus(15**2)) == 120
        assert totient(Modulus(15**2)) == brute_totient(225)

    def test_prime_to_degree(self):
        for p in (2, 3, 5, 7):
            for d in range(1, 6):
                assert totient(Modulus(p**d)) == p**d - p ** (d - 1)

    def test_matches_factoring_the_power(self):
        # phi(n^e) = n^(e-1) phi(n): n^e has the primes of n
        for n in range(2, 101):
            for e in range(1, 5):
                assert totient(Modulus(n**e)) == n ** (e - 1) * totient(Modulus(n))
