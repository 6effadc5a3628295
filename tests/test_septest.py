import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepzn.arith import DomainError, Modulus
from sepzn.poly import PolyZn, parse
from sepzn.septest import (
    MAX_DET_WORK,
    MAX_GCD_WORK,
    MAX_TRACE_DIGITS,
    _det_mod,
    discriminant,
    is_separable,
    is_separable_monic,
    trace_form,
)

from tracing import lines_run


def monic_polys(n, deg):
    m = Modulus(n)
    for low in itertools.product(range(n), repeat=deg):
        yield PolyZn(m, low + (1,))


class TestTrace:
    """tr(x^k) on Z/n[x]/f is entry (i, j) of the trace form for i + j = k."""

    def test_identity_has_trace_n(self):
        for n, deg in [(6, 2), (5, 3), (4, 4)]:
            f = PolyZn(Modulus(n), (1,) * deg + (1,))
            assert trace_form(f)[0][0] == deg % n

    def test_quadratic_trace_of_x(self):
        # tr(x) on Z/n[x]/(x^2+ax+b) is -a
        for n in (5, 6, 9):
            m = Modulus(n)
            for a in range(n):
                for b in range(n):
                    f = PolyZn(m, (b, a, 1))
                    assert trace_form(f)[0][1] == -a % n

    def test_cubic_trace_of_x_squared(self):
        # tr(x^2) on Z/n[x]/(x^3+ax^2+bx+c) is a^2 - 2b
        m = Modulus(7)
        for a, b, c in itertools.product(range(7), repeat=3):
            f = PolyZn(m, (c, b, a, 1))
            assert trace_form(f)[0][2] == (a * a - 2 * b) % 7

    def test_reduces_high_degree_argument(self):
        # x^3 = 1 in Z/5[x]/(x^3-1), so tr(x^3) = tr(1) and tr(x^4) = tr(x)
        form = trace_form(parse("x^3-1", Modulus(5)))
        assert form[1][2] == form[0][0] == 3
        assert form[2][2] == form[0][1] == 0

    def test_rejects_non_monic(self):
        with pytest.raises(DomainError):
            trace_form(parse("2x^2+1", Modulus(6)))


MERSENNE_61 = 2**61 - 1


def companion_trace_form(coeffs, n):
    """Entry (i, j) = trace of C^(i+j) mod n, C the companion matrix of the
    monic polynomial with ascending coefficients coeffs, by matrix powers."""
    size = len(coeffs) - 1
    # C maps x^j to x^(j+1), and x^(N-1) to -(c_0 + c_1 x + ...).
    comp = [[0] * size for _ in range(size)]
    for j in range(size - 1):
        comp[j + 1][j] = 1
    for i in range(size):
        comp[i][size - 1] = -coeffs[i] % n
    power = [[int(i == j) for j in range(size)] for i in range(size)]
    traces = []
    for _ in range(2 * size - 1):
        traces.append(sum(power[i][i] for i in range(size)) % n)
        power = [[sum(power[i][k] * comp[k][j] for k in range(size)) % n
                  for j in range(size)] for i in range(size)]
    return tuple(tuple(traces[i + j] for j in range(size))
                 for i in range(size))


class TestTraceForm:
    def test_quadratic_matrix(self):
        # [[2, -a], [-a, a^2-2b]]
        m = Modulus(11)
        for a, b in itertools.product(range(11), repeat=2):
            form = trace_form(PolyZn(m, (b, a, 1)))
            assert form == ((2, -a % 11), (-a % 11, (a * a - 2 * b) % 11))

    def test_cubic_matrix(self):
        m = Modulus(11)
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = rng.randrange(11), rng.randrange(11), rng.randrange(11)
            form = trace_form(PolyZn(m, (c, b, a, 1)))
            expect = [
                [3, -a, a * a - 2 * b],
                [-a, a * a - 2 * b, -a**3 + 3 * a * b - 3 * c],
                [a * a - 2 * b, -a**3 + 3 * a * b - 3 * c,
                 a**4 - 4 * a * a * b + 4 * a * c + 2 * b * b],
            ]
            assert form == tuple(tuple(e % 11 for e in row) for row in expect)

    def test_linear_matrix(self):
        m = Modulus(9)
        form = trace_form(parse("x-4", m))
        assert form == ((1,),)

    def test_symmetry_and_corner(self):
        for n in range(2, 13):
            for deg in (1, 2, 3, 4):
                for f in itertools.islice(monic_polys(n, deg), 40):
                    form = trace_form(f)
                    assert form[0][0] == deg % n
                    for i in range(deg):
                        for j in range(deg):
                            assert form[i][j] == form[j][i]

    @pytest.mark.parametrize("digits, degree, most", [
        (4096, 64, None),   # 64^2 * 4096 = 2^24
        (4096, 65, 64),
        (5001, 57, None),   # beyond the 4300 digits str() converts
        (5001, 58, 57),
    ])
    def test_output_bound(self, digits, degree, most):
        # Degree N modulo a b-digit n is taken while N^2 b is within
        # MAX_TRACE_DIGITS, called as a library function too.  The power
        # sums of the roots of x^N - 1 are N at multiples of N, else 0.
        n = 10 ** (digits - 1)
        f = PolyZn(Modulus(n), (n - 1,) + (0,) * (degree - 1) + (1,))
        if most is None:
            assert trace_form(f) == tuple(
                tuple(degree if (i + j) % degree == 0 else 0
                      for j in range(degree)) for i in range(degree))
            return
        with pytest.raises(DomainError) as refusal:
            trace_form(f)
        assert str(refusal.value) == (
            f"trace-form takes degree <= {most} modulo a {digits}-digit n, "
            f"got degree {degree}")
        # A polynomial that is not monic is refused as such first.
        with pytest.raises(DomainError, match="monic"):
            trace_form(f * 2)

    def test_disc_bound_lies_within_trace_form_bound(self):
        # discriminant builds the trace form only at degrees its own bound
        # takes.  For each bit length b of the n the CLI reads, the largest
        # degree disc takes modulo a b-bit n passes trace-form's bound at
        # the most digits a b-bit n has, those of 2^b - 1.
        digits, power = 1, 10
        for bits in range(2, 14300):
            while power < 2**bits:
                digits, power = digits + 1, power * 10
            step = bits + 32 + bits * bits // 768
            most = round((MAX_DET_WORK / step) ** (1 / 3)) + 1
            while most**3 * step > MAX_DET_WORK:
                most -= 1
            assert most**2 * digits <= MAX_TRACE_DIGITS

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from([2, 3, 5, 7, 101, 1009, MERSENNE_61]),
                     st.sampled_from([4, 8, 9, 27, 125, 2**20]),
                     st.sampled_from([6, 12, 15, 30, 1001, 10**12]),
                     st.integers(min_value=2, max_value=10**6)),
           st.integers(min_value=1, max_value=12), st.data())
    def test_matches_companion_matrix_powers(self, n, deg, data):
        low = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                                 min_size=deg, max_size=deg))
        f = PolyZn(Modulus(n), low + [1])
        assert trace_form(f) == companion_trace_form(low + [1], n)


# Moduli for the determinant property, each with its prime factors.
DET_MODULI = {
    2: [2], 3: [3], 1009: [1009], MERSENNE_61: [MERSENNE_61],
    4: [2], 8: [2], 27: [3], 1024: [2], 3**7 * 5: [3, 5],
    12: [2, 3], 36: [2, 3], 45: [3, 5], 49 * 11: [7, 11],
    1001: [7, 11, 13], 2**5 * 3**3: [2, 3], 10**12: [2, 5],
}


def integer_det(matrix):
    """The integer determinant, by fraction-free elimination (Bareiss):
    each step's entries are minors of the matrix, so every division by the
    previous pivot is exact."""
    a = [list(row) for row in matrix]
    size, sign, previous = len(a), 1, 1
    for c in range(size - 1):
        pivot = next((r for r in range(c, size) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot], sign = a[pivot], a[c], -sign
        for r in range(c + 1, size):
            a[r] = [0] * (c + 1) + [
                (a[r][j] * a[c][c] - a[r][c] * a[c][j]) // previous
                for j in range(c + 1, size)]
        previous = a[c][c]
    return sign * a[-1][-1]


def trinomial_disc(degree, b, c):
    """disc(x^N + bx + c) = (-1)^(N(N-1)/2)
    * (N^N c^(N-1) + (-1)^(N-1) (N-1)^(N-1) b^N), over Z."""
    n = degree
    return (-1) ** (n * (n - 1) // 2) * (
        n**n * c ** (n - 1) + (-1) ** (n - 1) * (n - 1) ** (n - 1) * b**n)


class TestDiscriminant:
    def test_quadratic_formula(self):
        for n in (7, 10, 12):
            m = Modulus(n)
            for a, b in itertools.product(range(n), repeat=2):
                d = discriminant(PolyZn(m, (b, a, 1)))
                assert d == (a * a - 4 * b) % n

    def test_cubic_formula(self):
        m = Modulus(10)
        rng = random.Random(3)
        for _ in range(100):
            a, b, c = rng.randrange(10), rng.randrange(10), rng.randrange(10)
            d = discriminant(PolyZn(m, (c, b, a, 1)))
            expect = (a * a * b * b - 4 * a**3 * c - 4 * b**3
                      + 18 * a * b * c - 27 * c * c)
            assert d == expect % 10

    def test_x_squared_is_zero(self):
        assert discriminant(parse("x^2", Modulus(9))) == 0

    def test_rejects_non_monic(self):
        with pytest.raises(DomainError):
            discriminant(parse("2x^2+1", Modulus(6)))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(DET_MODULI)), st.integers(1, 16),
           st.booleans(), st.integers(0, 2**64 - 1))
    def test_det_mod_matches_integer_determinant(self, n, size, lu, seed):
        # Entries near 0, p, p^2 and n - 1 leave columns without a unit,
        # where a pivot of least gcd with n may not divide an entry below
        # it, and the elimination splits n. Each matrix is drawn as one
        # seed rather than entry by entry, which cost most of the test's
        # time.
        rng = random.Random(seed)
        near = sorted({e % n for p in DET_MODULI[n]
                       for e in (0, 1, p, p * p, n - 1, n - p)})
        if not lu:
            matrix = [[rng.choice(near) if rng.getrandbits(1)
                       else rng.randrange(n) for _ in range(size)]
                      for _ in range(size)]
        else:
            # L U, with U unit upper triangular with a draw near n - 1 above
            # its diagonal and L unit lower triangular with its negation
            # below: the elimination's multipliers and pivot rows are then
            # near n - 1, and each step grows a packed slot by nearly
            # (n - 1)^2, the most it can.
            big = [rng.randint(max(0, n - 3), n - 1)
                   for _ in range(size * size)]

            def lower(i, k):
                return -big[i * size + k] if k < i else int(k == i)

            def upper(k, j):
                return big[k * size + j] if j > k else int(j == k)

            matrix = [[sum(lower(i, k) * upper(k, j) for k in range(size)) % n
                       for j in range(size)] for i in range(size)]
        assert _det_mod(matrix, n) == integer_det(matrix) % n

    @pytest.mark.parametrize("matrix, n, det", [
        ([[2, 3], [3, 2]], 6, 1),
        ([[7, 11], [11, 7]], 1001, 929),
        ([[7, 11, 13], [11, 13, 7], [13, 7, 11]], 1001, 133),
        ([[6, 9], [9, 6]], 36, 27),
        ([[6, 1, 0], [10, 0, 1], [15, 1, 1]], 210, 209),
    ])
    def test_det_mod_splits_n_where_a_pivot_fails(self, matrix, n, det):
        # The first column holds no unit, and its pivot of least gcd with n
        # divides no entry below it: the first step splits n. Modulo 36 the
        # pivot's gcd, 6, holds both primes of n, so the split must come
        # from 2, the part of 6 that 9 lacks: 36 = 4 x 9. Modulo 210 the
        # split 3 x 70 leaves a first column mod 70 that splits again, 2 x 35.
        assert integer_det(matrix) % n == det
        assert _det_mod(matrix, n) == det

    @pytest.mark.parametrize("degree", [16, 64, 128])
    @pytest.mark.parametrize("n", [1009, 1001, 1024, 2**61 * 1009])
    def test_trinomial_closed_form(self, degree, n):
        rng = random.Random(degree * n)
        m = Modulus(n)
        for _ in range(2):
            b, c = rng.randrange(n), rng.randrange(n)
            f = PolyZn(m, (c, b) + (0,) * (degree - 2) + (1,))
            assert discriminant(f) == trinomial_disc(degree, b, c) % n

    @pytest.mark.parametrize("n, largest", [
        (1009, 329), (2**61 - 1, 249), (2**1000, 86), (10**4299, 17),
    ], ids=["1009", "2^61-1", "2^1000", "10^4299"])
    def test_bound_is_exact(self, n, largest):
        # For a b-bit n the bound is degree^3 (b + 32 + b^2 // 768) <=
        # MAX_DET_WORK; the refusal names the largest degree accepted. The
        # four n give slots of 29 to about 28,600 bits, and 2^1000 and
        # 10^4299 leave columns without a unit.
        bits = n.bit_length()
        step = bits + 32 + bits * bits // 768
        assert largest == max(d for d in range(1, 400)
                              if d**3 * step <= MAX_DET_WORK)
        m = Modulus(n)
        f = PolyZn(m, (1, 3) + (0,) * (largest - 2) + (1,))
        assert discriminant(f) == trinomial_disc(largest, 3, 1) % n
        with pytest.raises(DomainError, match=f"degree <= {largest} "):
            discriminant(PolyZn(m, (1, 3) + (0,) * (largest - 1) + (1,)))

    @pytest.mark.parametrize("n, split", [
        (999983, False), (1001, False), (1001, True),
    ], ids=["999983", "1001", "1001-split"])
    def test_det_mod_work_is_quadratic(self, n, split):
        # One multiply-add per row per pivot: the lines run, comprehensions
        # included, grow as N^2 on a dense trace form, not as the N^3 / 3
        # entry steps of an elimination entry by entry (23 N^2 at N = 64).
        rng = random.Random(n)
        f = PolyZn(Modulus(n), [rng.randrange(n) for _ in range(64)] + [1])
        matrix, bound = trace_form(f), 6 * 64**2
        if split:
            # A first column of multiples of 7, 11 and 13 holds no unit,
            # and its pivot of least gcd divides no entry below it, so n
            # splits at the first pivot. Its parts, at most one per prime
            # of n, each take one dense elimination: a split that recurses
            # more often than it needs to runs over (primes + 1) bounds.
            matrix = [((7, 11, 13)[i % 3] * rng.randrange(1, n) % n,)
                      + row[1:] for i, row in enumerate(matrix)]
            column = [math.gcd(row[0], n) for row in matrix]
            assert min(column) > 1 and any(g % min(column) for g in column)
            bound *= len(Modulus(n).factors) + 1
        det, lines = lines_run(_det_mod, matrix, n)
        if split:
            assert det == integer_det(matrix) % n
        else:
            assert (math.gcd(det, n) == 1) == is_separable(f)
        assert lines < bound


class TestSeparabilityMonic:
    def test_z4_examples(self):
        m = Modulus(4)
        assert not is_separable_monic(parse("x^2+1", m))
        assert is_separable_monic(parse("x^2+x+1", m))

    def test_linear_always_separable(self):
        for n in (2, 4, 6, 9, 12):
            m = Modulus(n)
            for a in range(n):
                assert is_separable_monic(PolyZn(m, (a, 1)))


class TestSeparabilityPrimeField:
    def test_zero_not_separable(self):
        for p in (2, 3, 5):
            assert not is_separable(PolyZn(Modulus(p), ()))

    def test_nonzero_constant_separable(self):
        assert is_separable(parse("2", Modulus(3)))

    def test_repeated_root_mod2(self):
        assert not is_separable(parse("x^2+1", Modulus(2)))

    def test_unit_derivative_mod2(self):
        assert is_separable(parse("x^2+x+1", Modulus(2)))


class TestSeparabilityGeneral:
    def test_non_unit_leading_coefficient(self):
        assert is_separable(parse("3x^2+x+5", Modulus(6)))

    def test_constant_over_prime_power(self):
        m = Modulus(8)
        for a in range(8):
            assert is_separable(PolyZn(m, (a,))) == (a % 2 == 1)

    def test_vanishing_component(self):
        assert not is_separable(parse("2x", Modulus(6)))

    def test_criteria_agree_on_monics(self):
        for n in (2, 3, 4, 5, 6, 8, 9, 12):
            for deg in (1, 2, 3):
                for f in monic_polys(n, deg):
                    assert is_separable_monic(f) == is_separable(f)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(DET_MODULI)), st.integers(4, 24),
           st.data())
    def test_criteria_agree_beyond_degree_three(self, n, deg, data):
        # The packed elimination on real trace forms against the gcd route.
        # Coefficients near 0, p and n - 1 and a square factor g^2 make
        # inseparable f common.
        near = sorted({e % n for p in DET_MODULI[n]
                       for e in (0, 1, p, p * p, n - 1, n - p)})
        coeff = st.one_of(st.sampled_from(near), st.integers(0, n - 1))
        low = data.draw(st.lists(coeff, min_size=deg, max_size=deg))
        f = PolyZn(Modulus(n), low + [1])
        if data.draw(st.booleans()):
            g = PolyZn(Modulus(n), data.draw(st.lists(
                coeff, min_size=1, max_size=deg // 2 - 1)) + [1])
            f = g * g * PolyZn(Modulus(n), low[:deg - 2 * g.degree] + [1])
        assert is_separable_monic(f) == is_separable(f)

    def test_reduction_criterion_prime_powers(self):
        # monic f over Z/p^k is separable iff f mod p is separable over Z/p
        for p, k in [(2, 2), (2, 3), (3, 2)]:
            n = p**k
            for deg in (1, 2, 3):
                for f in monic_polys(n, deg):
                    assert is_separable_monic(f) == \
                        is_separable(PolyZn(Modulus(p), f.coeffs))

    def test_unit_scaling_invariance(self):
        for n in (4, 6, 9):
            m = Modulus(n)
            units = [u for u in range(1, n) if __import__("math").gcd(u, n) == 1]
            for coeffs in itertools.product(range(n), repeat=3):
                f = PolyZn(m, coeffs)
                sep = is_separable(f)
                for u in units:
                    assert is_separable(f * u) == sep

    @pytest.mark.parametrize("n, primes", [(2 * 3 * 5 * 7 * 11, 5),
                                           (3**4 * 1009, 2)])
    def test_bound_is_exact(self, n, primes):
        # Degree N is taken while N^2 times the number of distinct primes of
        # n is within MAX_GCD_WORK; the refusal names the largest degree.
        # x^2 divides x^N, so the verdict at the bound is known.
        m = Modulus(n)
        largest = max(d for d in range(1, 2000)
                      if d * d * primes <= MAX_GCD_WORK)
        assert is_separable(PolyZn(m, (0,) * largest + (1,))) is False
        with pytest.raises(DomainError, match=f"degree <= {largest} "):
            is_separable(PolyZn(m, (1, 1) + (0,) * (largest - 1) + (1,)))

    def test_shift_invariance(self):
        for n in (4, 6, 9):
            m = Modulus(n)
            for coeffs in itertools.product(range(n), repeat=3):
                f = PolyZn(m, coeffs)
                sep = is_separable(f)
                for a in range(n):
                    shifted = substitute_x_plus_a(f, a)
                    assert is_separable(shifted) == sep


def substitute_x_plus_a(f, a):
    """f(x + a), by Horner evaluation at the polynomial x + a."""
    m = f.modulus
    xa = PolyZn(m, (a, 1))
    result = PolyZn(m, ())
    for c in reversed(f.coeffs):
        result = result * xa + PolyZn(m, (c,))
    return result
