from fractions import Fraction

import pytest

from sepzn.arith import DomainError, Modulus, totient_prime_power
from sepzn.census import (
    Mode,
    count,
    count_leq_recurrence,
    count_monic_separable,
    count_monic_separable_primepower,
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
        assert count_monic_separable_primepower(11, 1, 3) == 1210
        assert Fraction(1210, 11**3) == Fraction(10, 11)

    def test_mod2_quadratics(self):
        # of the 4 monic quadratics over Z/2, only x^2+x and x^2+x+1 separate
        assert count_monic_separable_primepower(2, 1, 2) == 2

    def test_all_linear_monics(self):
        assert count_monic_separable_primepower(5, 1, 1) == 5

    def test_degree_zero(self):
        assert count_monic_separable_primepower(7, 1, 0) == 1


class TestMonicPrimePower:
    def test_small_prime_powers(self):
        assert count_monic_separable_primepower(2, 2, 2) == 8    # phi(16)
        assert count_monic_separable_primepower(3, 2, 2) == 54   # phi(81)

    def test_reduces_to_carlitz_at_k1(self):
        # Carlitz: p^d - p^(d-1) for d >= 2, p for d = 1, 1 for d = 0
        for p in (2, 3, 5, 7):
            carlitz = [1, p] + [p**d - p ** (d - 1) for d in range(2, 5)]
            for d in range(5):
                assert count_monic_separable_primepower(p, 1, d) == carlitz[d]

    def test_is_totient_of_power(self):
        for p, k, d in [(2, 2, 3), (3, 3, 2), (5, 2, 4)]:
            assert count_monic_separable_primepower(p, k, d) == \
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
        lambda: count_monic_separable_primepower(2, 3, -1),
        lambda: count_separable_leq_primepower(3, 2, -1),
        lambda: count_monic_separable(Modulus(6), -1),
        lambda: count_separable_leq(Modulus(6), -1),
        lambda: count_separable_exact(Modulus(6), -1),
    ])
    def test_rejected(self, call):
        with pytest.raises(DomainError):
            call()
