"""Acceptance suite: every criterion checks exact integer/rational equality
(tolerance zero) and prints one PASS/FAIL line.  Run with `pytest -s` to see
the lines as they complete."""

import itertools
import math
import random
from fractions import Fraction

from sepzn import census
from sepzn.arith import Modulus, totient, totient_prime_power
from sepzn.oracle import (
    BudgetExceeded,
    Mode,
    crt_product_count,
    enumerate_count,
)
from sepzn.poly import PolyZn, parse
from sepzn.septest import discriminant, is_separable, is_separable_monic

FIRST_FIFTEEN_PRIMES_PRODUCT = 614889782588491410


def report(number, name, ok):
    print(f"criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_carlitz_desk_scale():
    ok = True
    for p in (2, 3, 5, 7):
        for d in (2, 3):
            ok = ok and enumerate_count(Modulus(p), d, Mode.MONIC) == \
                p**d - p ** (d - 1)
    report(1, "Carlitz monic counts over Z/p", ok)


def test_02_theorem_monic_prime_power():
    ok = True
    for p, k in ((2, 2), (2, 3), (3, 2), (5, 2)):
        for d in (2, 3):
            ok = ok and enumerate_count(Modulus(p**k), d, Mode.MONIC) == \
                totient_prime_power(p, k * d)
    report(2, "monic counts over Z/p^k equal phi(p^(kd))", ok)


def test_03_theorem_leq_prime_power():
    ok = True
    for p, k in ((2, 2), (2, 3), (3, 2), (5, 2)):
        phi = totient_prime_power(p, k)
        for d in (0, 1, 2, 3):
            expect = phi if d == 0 else phi * p ** ((k - 1) * d) * (p**d + 1)
            ok = ok and enumerate_count(Modulus(p**k), d, Mode.LEQ) == expect
    report(3, "degree <= d counts over Z/p^k", ok)


def test_04_multiplicativity_full_ring():
    ok = True
    for n in (6, 12, 15, 20):
        m = Modulus(n)
        for d in (1, 2):
            for mode in Mode:
                oracle = enumerate_count(m, d, mode)
                if mode is Mode.MONIC:
                    formula = census.count_monic_separable(m, d)
                elif mode is Mode.LEQ:
                    formula = census.count_separable_leq(m, d)
                else:
                    formula = census.count_separable_exact(m, d)
                ok = ok and oracle == formula == crt_product_count(m, d, mode)
    ok = ok and enumerate_count(Modulus(15), 2, Mode.EXACT) == 1888
    report(4, "full-ring counts, formula and CRT product", ok)


def test_05_z120_paper_value():
    m = Modulus(120)
    ok = census.count_separable_leq(m, 3) == 65028096
    ok = ok and crt_product_count(m, 3, Mode.LEQ, budget=4802) == 65028096
    try:
        enumerate_count(m, 3, Mode.LEQ)  # 120^4 > 10^8
        ok = False
    except BudgetExceeded as e:
        ok = ok and e.required == 120**4
    report(5, "Z/120 degree <= 3 count is 65028096", ok)


def test_06_proportion_reproduction():
    big = Modulus(FIRST_FIFTEEN_PRIMES_PRODUCT)
    ok = census.proportion_monic_separable(big) == \
        Fraction(1605264998400, 11573306655157)
    ok = ok and census.proportion_monic_separable(Modulus(11)) == Fraction(10, 11)
    report(6, "monic separable proportions", ok)


def test_07_discriminant_formulas():
    m = Modulus(101)
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        a, b = rng.randrange(101), rng.randrange(101)
        ok = ok and discriminant(PolyZn(m, (b, a, 1))) == \
            (a * a - 4 * b) % 101
    for _ in range(200):
        a, b, c = rng.randrange(101), rng.randrange(101), rng.randrange(101)
        expect = (a * a * b * b - 4 * a**3 * c - 4 * b**3
                  + 18 * a * b * c - 27 * c * c) % 101
        ok = ok and discriminant(PolyZn(m, (c, b, a, 1))) == expect
    report(7, "quadratic and cubic discriminants mod 101", ok)


def test_08_criterion_agreement():
    ok = True
    for n in (2, 3, 4, 5, 6, 8, 9, 12):
        m = Modulus(n)
        for deg in (1, 2, 3):
            for low in itertools.product(range(n), repeat=deg):
                f = PolyZn(m, low + (1,))
                ok = ok and is_separable_monic(f) == is_separable(f)
    ok = ok and not is_separable_monic(parse("x^2+1", Modulus(4)))
    ok = ok and is_separable_monic(parse("x^2+x+1", Modulus(4)))
    ok = ok and is_separable(parse("3x^2+x+5", Modulus(6)))
    report(8, "discriminant path agrees with CRT/gcd path", ok)


def test_09_structural_properties():
    ok = True
    # unit scaling and shift invariance
    for n in (4, 6, 9):
        m = Modulus(n)
        units = [u for u in range(1, n) if math.gcd(u, n) == 1]
        x_plus = [PolyZn(m, (a, 1)) for a in range(n)]
        for coeffs in itertools.product(range(n), repeat=3):
            f = PolyZn(m, coeffs)
            sep = is_separable(f)
            for u in units:
                ok = ok and is_separable(f * u) == sep
            for xa in x_plus:
                shifted = PolyZn(m, ())
                for c in reversed(f.coeffs):
                    shifted = shifted * xa + PolyZn(m, (c,))
                ok = ok and is_separable(shifted) == sep
    # recurrence vs closed form, geometric sum vs direct summation
    for p in (2, 3, 5, 7):
        for k in (1, 2, 3):
            for d in range(1, 11):
                ok = ok and census.count_leq_recurrence(p, k, d) == \
                    census.count_separable_leq_primepower(p, k, d)
            for d in range(2, 11):
                beta, lam = p**k, p ** (k - 1)
                direct = sum(lam**j * totient_prime_power(p, k * (d - j))
                             for j in range(d - 1))
                ok = ok and census.geometric_sum(p, k, d) == direct
    # telescoping
    for n in (6, 15):
        m = Modulus(n)
        for d in range(5):
            ok = ok and sum(census.count_separable_exact(m, e)
                            for e in range(d + 1)) == \
                census.count_separable_leq(m, d)
    # deterministic parallel enumeration
    counts = {enumerate_count(Modulus(12), 2, Mode.LEQ, workers=w)
              for w in (1, 2, 8)}
    ok = ok and len(counts) == 1
    report(9, "structural properties", ok)


def test_10_erratum_resolution():
    ok = True
    for p, k in ((2, 1), (2, 2)):
        phi = totient_prime_power(p, k)
        stated = phi * (p**k + p ** (k - 1))
        variant = phi * (p**k + p ** (k + 1))
        oracle = enumerate_count(Modulus(p**k), 1, Mode.LEQ)
        ok = ok and oracle == stated and oracle != variant
    m = Modulus(6)
    oracle = enumerate_count(m, 2, Mode.LEQ)
    phi_n = totient(m)
    plus = phi_n * m.n**2
    minus = Fraction(phi_n * m.n**2)
    for p, _ in m.factors:
        plus = plus * (p**2 + 1) // p**2
        minus *= 1 - Fraction(1, p**2)
    ok = ok and oracle == plus and oracle != minus
    report(10, "errata resolved in favor of the oracle", ok)
