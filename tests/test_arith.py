import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

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


class TestModulus:
    def test_negative_canonicalized(self):
        assert Modulus(-12).n == 12

    def test_rejects_unit(self):
        with pytest.raises(DomainError):
            Modulus(1)


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
