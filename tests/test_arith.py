import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepzn.arith import (
    DomainError,
    Modulus,
    Residue,
    crt_combine,
    crt_split,
    factorize,
    is_unit,
    totient,
    totient_of_power,
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

    def test_residue_reduced(self):
        assert Modulus(6).residue(19).value == 1


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
    def test_prime_power(self):
        assert totient_of_power(Modulus(4), 2) == 8

    def test_fifteen_squared(self):
        assert totient_of_power(Modulus(15), 2) == 120
        assert totient_of_power(Modulus(15), 2) == brute_totient(225)

    def test_prime_to_degree(self):
        for p in (2, 3, 5, 7):
            for d in range(1, 6):
                assert totient_of_power(Modulus(p), d) == p**d - p ** (d - 1)

    def test_matches_factoring_the_power(self):
        for n in range(2, 101):
            for e in range(1, 5):
                assert totient_of_power(Modulus(n), e) == totient(Modulus(n**e))

    def test_rejects_zero_exponent(self):
        with pytest.raises(DomainError):
            totient_of_power(Modulus(6), 0)


class TestIsUnit:
    def test_examples(self):
        assert not is_unit(Residue(3, Modulus(6)))
        assert is_unit(Residue(5, Modulus(6)))
        assert not is_unit(Residue(0, Modulus(2)))

    def test_unit_iff_invertible(self):
        for n in range(2, 201):
            m = Modulus(n)
            for a in range(n):
                has_inverse = any(a * b % n == 1 for b in range(n))
                assert is_unit(Residue(a, m)) == has_inverse


class TestCrt:
    def test_split_examples(self):
        parts = crt_split(Residue(7, Modulus(12)))
        assert [(r.value, r.modulus.n) for r in parts] == [(3, 4), (1, 3)]
        parts = crt_split(Residue(11, Modulus(15)))
        assert [(r.value, r.modulus.n) for r in parts] == [(2, 3), (1, 5)]

    def test_split_zero(self):
        assert all(r.value == 0 for r in crt_split(Residue(0, Modulus(360))))

    def test_combine_example(self):
        r = crt_combine([Residue(3, Modulus(4)), Residue(1, Modulus(3))])
        assert (r.value, r.modulus.n) == (7, 12)

    def test_combine_singleton(self):
        r = crt_combine([Residue(5, Modulus(9))])
        assert (r.value, r.modulus.n) == (5, 9)

    def test_combine_rejects_non_coprime(self):
        with pytest.raises(DomainError):
            crt_combine([Residue(1, Modulus(4)), Residue(1, Modulus(6))])

    def test_round_trip_mod_360(self):
        m = Modulus(360)
        for a in range(360):
            r = crt_combine(crt_split(Residue(a, m)))
            assert (r.value, r.modulus.n) == (a, 360)

    @settings(max_examples=200)
    @given(st.integers(min_value=2, max_value=10**6), st.integers(min_value=0))
    def test_round_trip_random_moduli(self, n, a):
        m = Modulus(n)
        r = crt_combine(crt_split(Residue(a, m)))
        assert (r.value, r.modulus.n) == (a % n, n)
