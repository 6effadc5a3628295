import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepzn import arith, septest
from sepzn.arith import DomainError, Modulus
from sepzn.poly import PolyZn, parse
from sepzn.septest import (
    _split_euclid,
    MAX_DET_WORK,
    MAX_EUCLID_WORK,
    MAX_TRACE_DIGITS,
    _det_mod,
    _Rows,
    discriminant,
    is_separable,
    is_separable_monic,
    trace_form,
)

from gcd_reference import separable
from slow_inputs import slow_inputs
from tracing import lines_run


def slots(row, w, count):
    """The count W-bit slots of a packed row, lowest first."""
    return [row >> w * j & (1 << w) - 1 for j in range(count)]


@pytest.fixture
def layers(monkeypatch):
    """Every _Rows the kernels make, in order. Each records its size and
    its calls in order, with the calls of _part made while it is the
    newest: ("pack", u, length), ("reduce", u, row, reduced row) and
    ("part", u, c, part)."""
    made, part = [], septest._part

    class Recording(_Rows):
        def __init__(self, bound, size):
            super().__init__(bound, size)
            self.size, self.calls = size, []
            made.append(self)

        def pack(self, row, u):
            self.calls.append(("pack", u, len(row)))
            return super().pack(row, u)

        def reduce(self, row, u):
            self.calls.append(("reduce", u, row, super().reduce(row, u)))
            return self.calls[-1][3]

    def recording_part(u, c):
        made[-1].calls.append(("part", u, c, part(u, c)))
        return made[-1].calls[-1][3]

    monkeypatch.setattr(septest, "_Rows", Recording)
    monkeypatch.setattr(septest, "_part", recording_part)
    return made


class TestRows:
    """The packed-row layer both exact kernels work in."""

    def test_slot_is_the_bound_in_whole_bytes(self):
        for bits in range(1, 130):
            for bound in (1 << bits - 1, (1 << bits) - 1):
                w = _Rows(bound, 1).w
                assert w % 8 == 0 and 1 << w - 8 <= bound < 1 << w

    @pytest.mark.parametrize("u, bound", [
        (2, 255), (3, 255), (4, 255), (5, 255),
        (1001, 2 * 3 * 1001**2), (2**61 * 1009, 2 * 3 * (2**61 * 1009)**2),
        (1009**3 * 1013, 2 * 3 * (1009**3 * 1013)**2)],
        ids=["2", "3", "4", "5", "1001", "2^61*1009", "1009^3*1013"])
    def test_barrett_step_leaves_each_slot_below_2u(self, u, bound):
        # Each x sits in each slot of a row of three, whose other slots hold
        # 2^W - 1: a borrow across slots, or the last slot, alone in a
        # half-full 2W-bit field, left unreduced, would show. At W = 8 every
        # x is tried (mu = 85 falls short of 2^W / 3 by a third), at wide u
        # the lowest and highest 2^12 below 2^W.
        fmt = _Rows(bound, 3)
        w, full = fmt.w, (1 << fmt.w) - 1
        xs = range(1 << w) if w == 8 else [*range(1 << 12),
                                           *range(full - 4095, full + 1)]
        for x in xs:
            for j in range(3):
                row = [full] * 3
                row[j] = x
                out = fmt.reduce(sum(r << w * i for i, r in enumerate(row)),
                                 u)
                assert 0 <= out < 1 << 3 * w
                assert all(0 <= s < 2 * u and (s - r) % u == 0
                           for s, r in zip(slots(out, w, 3), row))

    def test_pack_and_unpack_round_trip(self):
        # Modulo 2^16 every 16-bit value is a residue, 2^16 - 1 included;
        # unpack keeps the trailing zero slots, which the int does not hold.
        fmt = _Rows((1 << 16) - 1, 6)
        row = [5, (1 << 16) - 1, 0, 1, 0, 0]
        packed = fmt.pack(row, 1 << 16)
        assert packed == 5 | 0xffff << 16 | 1 << 48
        assert fmt.unpack(packed, 6) == row
        assert fmt.pack([x + (3 << 16) for x in row], 1 << 16) == packed


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

    @pytest.mark.parametrize("degree", range(1, 25))
    def test_newton_sums_match_companion_matrix_powers(self, degree):
        # Every power sum up to s_(2N-2), at each degree to 24, over a prime,
        # a prime power, a composite and a modulus wider than a machine word.
        n = (2, 1009, 2**20, 1001, 10**12, MERSENNE_61 * 3)[degree % 6]
        rng = random.Random(degree)
        coeffs = [rng.randrange(n) for _ in range(degree)] + [1]
        f = PolyZn(Modulus(n), coeffs)
        assert trace_form(f) == companion_trace_form(coeffs, n)


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


def lu_matrix(rng, n, size):
    """L U mod n, with U unit upper triangular with a draw near n - 1 above
    its diagonal and L unit lower triangular with its negation below: the
    elimination's multipliers and pivot rows are then near n - 1, and each
    step grows a packed slot by nearly (n - 1)^2."""
    big = [rng.randint(max(0, n - 3), n - 1) for _ in range(size * size)]

    def lower(i, k):
        return -big[i * size + k] if k < i else int(k == i)

    def upper(k, j):
        return big[k * size + j] if j > k else int(j == k)

    return [[sum(lower(i, k) * upper(k, j) for k in range(size)) % n
             for j in range(size)] for i in range(size)]


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
           st.sampled_from(["dense", "hankel", "lu"]),
           st.integers(0, 2**64 - 1))
    def test_det_mod_matches_integer_determinant(self, n, size, kind, seed):
        # Entries near 0, p, p^2 and n - 1 leave columns without a unit,
        # where a pivot of least gcd with n may not divide an entry below
        # it, and the elimination splits n. Each matrix is drawn as one
        # seed rather than entry by entry, which cost most of the test's
        # time.
        rng = random.Random(seed)
        near = sorted({e % n for p in DET_MODULI[n]
                       for e in (0, 1, p, p * p, n - 1, n - p)})
        if kind == "dense":
            matrix = [[rng.choice(near) if rng.getrandbits(1)
                       else rng.randrange(n) for _ in range(size)]
                      for _ in range(size)]
        elif kind == "hankel":
            # Rows s[i:i + N] of one sequence, as a trace form's are: each
            # row after the first packs from the packed row above.
            s = [rng.choice(near) if rng.getrandbits(1) else rng.randrange(n)
                 for _ in range(2 * size - 1)]
            matrix = [s[i:i + size] for i in range(size)]
        else:
            matrix = lu_matrix(rng, n, size)
        assert _det_mod(matrix, n) == integer_det(matrix) % n

    @pytest.mark.parametrize("n", [2, 3, 2**61 * 1009])
    def test_trace_form_determinant_matches_integer_determinant(self, n):
        # Modulo 2 and 3 the slots are narrowest, one byte below degree 32
        # and 15, so a slot and the Barrett field around it leave the least
        # room above n. Modulo 2^61 1009 a column may hold no unit and n
        # splits. Every row after the first packs from the row above.
        rng = random.Random(n)
        m = Modulus(n)
        for degree in (1, 2, 3, 4, 5, 8, 13, 21, 32):
            for _ in range(3):
                f = PolyZn(m, [rng.randrange(n) for _ in range(degree)] + [1])
                assert discriminant(f) == integer_det(trace_form(f)) % n

    @pytest.mark.parametrize("n", [3, 1001, 2**61 * 1009])
    def test_det_mod_reduces_every_pivot_row(self, n, layers):
        # Each branch's slots hold 2 N n^2 + n, N its rows, which the no-carry
        # bound needs though byte-rounded slots hide a narrower W from the
        # determinant. The j-th pivot row of a branch has N - j slots, each
        # below 2^W with no carry past the last, and its Barrett step leaves
        # each in [0, 2n), congruent to what it was. Modulo 3 the slots are
        # narrowest (16 bits); an L U draw grows a slot by nearly (n - 1)^2
        # a step. The split's branches are read too.
        rng = random.Random(n)
        f = PolyZn(Modulus(n), [rng.randrange(n) for _ in range(16)] + [1])
        lu = lu_matrix(rng, n, 16)
        dets = [_det_mod(trace_form(f), n), _det_mod(lu, n)]
        assert dets == [integer_det(m) % n for m in (trace_form(f), lu)]
        reduced = [[call[1:] for call in layer.calls if call[0] == "reduce"]
                   for layer in layers]
        assert sum(map(len, reduced)) > 16
        for layer, steps in zip(layers, reduced):
            w, size = layer.w, layer.size
            for j, (u, row, top) in enumerate(steps):
                assert 2 * size * u * u + u < 1 << w
                assert 0 <= row < 1 << w * (size - j)
                assert 0 <= top < 1 << w * (size - j)
                assert all(s < 2 * u and (s - r) % u == 0 for s, r in zip(
                    slots(top, w, size - j), slots(row, w, size - j)))

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

    def test_refuses_degree_1_past_the_widest_n(self):
        # Past about 1.07 * 10^6 bits even degree 1 is over MAX_DET_WORK:
        # the refusal names degree 0, while trace_form still takes f.
        f = PolyZn(Modulus(2**1_100_000 + 1), (1, 1))
        assert trace_form(f) == ((1,),)
        with pytest.raises(DomainError, match="degree <= 0 modulo a "
                                              "1100001-bit n, got degree 1"):
            discriminant(f)

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
        det, lines = lines_run(_det_mod, matrix, n, also=(
            _Rows.__init__, _Rows.pack, _Rows.unpack, _Rows.reduce))
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


# Primes below and above 1000 for moduli that rho factors at once.
RULE_PRIMES = (2, 3, 5, 7, 997, 1009, 1013, 65537, 999983)


def euclid_most(u, work=MAX_EUCLID_WORK):
    """The largest N with N^2 (b + 32 + b^2 // 96) <= work, b the bit
    length of u, found by counting up."""
    b, most = u.bit_length(), 0
    while (most + 1)**2 * (b + 32 + b * b // 96) <= work:
        most += 1
    return most


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
    def test_bound_is_exact(self, n, primes, monkeypatch):
        # Where the cut m is too wide for f's degree, as it is for n with its
        # largest prime traded for 1009^60, n is factored and the Euclid runs
        # over the product of its primes: degree N is taken while N^2 (b +
        # 32 + b^2 // 96) is within MAX_EUCLID_WORK, b now the bit length of
        # that product, and the refusal names the largest degree and b. x^2
        # divides x^N, so the verdict is known.
        wide = Modulus(n // Modulus(n).factors[-1][0] * 1009**60)
        assert len(wide.factors) == primes
        rad = math.prod(p for p, _ in wide.factors)
        b, largest = rad.bit_length(), euclid_most(rad)
        with monkeypatch.context() as patch:
            patch.setattr(arith, "factorize", refuse_to_factor)
            with pytest.raises(AssertionError, match="factorize"):
                # A new Modulus: wide holds its factors already.
                is_separable(PolyZn(Modulus(wide.n), (0,) * largest + (1,)))
        assert is_separable(PolyZn(wide, (0,) * largest + (1,))) is False
        with pytest.raises(DomainError, match=f"degree <= {largest} modulo "
                           f"an n whose distinct primes make a {b}-bit "
                           f"product, got degree {largest + 1}$"):
            is_separable(PolyZn(wide, (1, 1) + (0,) * (largest - 1) + (1,)))

    def test_direct_bound_is_inclusive(self, monkeypatch):
        # 4000^2 (58 + 32 + 58^2 // 96) is MAX_EUCLID_WORK exactly: degree
        # 4000 modulo the 58-bit prime 2^57 + 9 takes the direct route, and
        # degree 4001 goes on to factor n.
        assert 4000**2 * (58 + 32 + 58**2 // 96) == MAX_EUCLID_WORK
        m = Modulus(2**57 + 9)
        monkeypatch.setattr(arith, "factorize", refuse_to_factor)
        assert is_separable(PolyZn(m, (1,) + (0,) * 3999 + (1,)))
        with pytest.raises(AssertionError, match="factorize"):
            is_separable(PolyZn(m, (1,) + (0,) * 4000 + (1,)))

    def test_factored_bound_is_inclusive(self):
        # n = p^2 q, p and q primes of 29 bits that rho splits off, is 87
        # bits wide, too wide for degree 4000 on the direct route; p q is 58
        # bits, so degree 4000 is the most the factored route takes.
        p, q = 536870909, 268435459
        assert (p * q).bit_length() == 58
        assert 4000**2 * (58 + 32 + 58**2 // 96) == MAX_EUCLID_WORK
        m = Modulus(p * p * q)
        assert is_separable(PolyZn(m, (1,) + (0,) * 3999 + (1,)))
        with pytest.raises(DomainError, match="degree <= 4000 modulo an n "
                           "whose distinct primes make a 58-bit product"):
            is_separable(PolyZn(m, (1,) + (0,) * 4000 + (1,)))

    @pytest.mark.parametrize("n, beyond", [
        (2 * 3 * 5 * 7 * 11 * 1009**40, False),
        ((2**89 - 1) * 1009**100, "cannot factor "),
        (1009**400, True),
    ], ids=["2310*1009^40", "M89*1009^100", "1009^400"])
    def test_direct_bound_is_exact(self, n, beyond, monkeypatch):
        # The direct route takes degree N while N^2 (b + 32 + b^2 // 96) is
        # within MAX_EUCLID_WORK, b the bit length of m (here n itself);
        # with factorize raising, it answers there. One degree more, n is
        # factored and the Euclid runs over the product of its primes, which
        # the same rule allows far further: 2310 * 1009^40 and 1009^400 are
        # answered (x^954 + 1 is a square modulo 2); (2^89 - 1) 1009^100 has
        # a prime that factorize cannot certify.
        most = euclid_most(n)

        def f(degree):  # x^N + 1, separable where no prime of n divides N
            return PolyZn(Modulus(n), (1,) + (0,) * (degree - 1) + (1,))

        with monkeypatch.context() as patch:
            patch.setattr(arith, "factorize", refuse_to_factor)
            assert is_separable(f(most))
            with pytest.raises(AssertionError, match="factorize"):
                is_separable(f(most + 1))
        if isinstance(beyond, bool):
            assert is_separable(f(most + 1)) is beyond
        else:
            with pytest.raises(DomainError, match=beyond):
                is_separable(f(most + 1))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(RULE_PRIMES), st.integers(1, 6)),
                    min_size=1, max_size=4, unique_by=lambda pk: pk[0]),
           st.integers(100_000, 3_000_000), st.integers(1, 120),
           st.integers(0, 2**32))
    def test_answers_exactly_where_the_rule_allows(self, powers, work,
                                                    degree, seed):
        # With MAX_EUCLID_WORK made small, f of degree N modulo n is
        # answered without factoring while N is within the rule for the cut
        # m, through factoring while it is within the rule for the product
        # of n's primes, and refused beyond; each answer agrees with the
        # list Euclid modulo each prime.
        n = math.prod(p**k for p, k in powers)
        primes = sorted(p for p, _ in powers)
        cut = math.prod(p if p < 1000 else p**k for p, k in powers)
        most = euclid_most(math.prod(primes), work)
        rng = random.Random(seed)
        coeffs = [rng.randrange(n) for _ in range(degree)] + [1]
        factored = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(septest, "MAX_EUCLID_WORK", work)
            patch.setattr(arith, "factorize",
                          lambda x, go=arith.factorize: factored.append(x)
                          or go(x))
            if degree > most:
                with pytest.raises(DomainError, match=f"degree <= {most} "):
                    is_separable(PolyZn(Modulus(n), coeffs))
            else:
                assert is_separable(PolyZn(Modulus(n), coeffs)) == \
                    separable(coeffs, primes)
        assert factored == ([n] if degree > euclid_most(cut, work) else [])

    def test_shift_invariance(self):
        for n in (4, 6, 9):
            m = Modulus(n)
            for coeffs in itertools.product(range(n), repeat=3):
                f = PolyZn(m, coeffs)
                sep = is_separable(f)
                for a in range(n):
                    shifted = substitute_x_plus_a(f, a)
                    assert is_separable(shifted) == sep


# Primes for the split Euclid's moduli, from 2 to 2^89 - 1, which factorize
# cannot certify.
SPLIT_PRIMES = (2, 3, 5, 7, 11, 13, 997, 1009, 1013, 65537, 999983,
                2**31 - 1, 10**9 + 7, MERSENNE_61, 2**89 - 1)


@st.composite
def moduli(draw):
    """(n, its primes): a prime power, a squarefree n or a mixed one."""
    kind = draw(st.sampled_from(["prime power", "squarefree", "mixed"]))
    primes = sorted(draw(st.sets(st.sampled_from(SPLIT_PRIMES), min_size=1,
                                 max_size=1 if kind == "prime power" else 4)))
    n = 1
    for p in primes:
        top = 1 if kind == "squarefree" else 12 if p < 1000 else 3
        n *= p**draw(st.integers(2 if kind == "prime power" else 1, top))
    return n, primes


class TestSplitEuclid:
    """The gcd route's Euclid over Z/n against the list Euclid over Z/p for
    each prime p of n."""

    @settings(max_examples=200, deadline=None)
    @given(moduli(), st.integers(0, 64),
           st.sampled_from(["any", "square", "multiple"]),
           st.integers(0, 2**32))
    def test_matches_reference(self, modulus, degree, form, seed):
        # Coefficients near 0, p and n - 1, a square factor g^2 and the
        # multiples of one prime make inseparable f and non-unit leading
        # coefficients common. The coefficients come from a seeded Random:
        # drawing 65 of them one by one costs Hypothesis more than the test.
        n, primes = modulus
        rng = random.Random(seed)
        near = sorted({e % n for p in primes
                       for e in (0, 1, p, p * p, n - 1, n - p)})

        def poly(size):
            return PolyZn(m, [rng.choice(near) if rng.random() < 0.5
                              else rng.randrange(n) for _ in range(size)])

        m = Modulus(n)
        f = poly(degree + 1)
        if form == "square" and degree >= 2:
            g = poly(rng.randint(2, degree // 2 + 1))
            f = g * g * PolyZn(m, f.coeffs[:degree - 2 * (g.degree or 0)
                                            + 1])
        elif form == "multiple":
            p = rng.choice(primes)
            f = PolyZn(m, [c * p if rng.random() < 0.7 else c
                           for c in f.coeffs])
        assert is_separable(f) == separable(f.coeffs, primes)

    @pytest.mark.parametrize("n, degree, m", [
        # Each prime below 1000 cut to its first power, and no other.
        (2**1000 * 3**600 * 1009**2, 1024, 6 * 1009**2),
        (2**89 - 1, 1024, 2**89 - 1),
        # Too wide for the direct route: the product of n's primes.
        (1009**400, 1024, 1009),
        (2**61 * 3 * 1009**150, 700, 2 * 3 * 1009),
    ], ids=["2^1000*3^600*1009^2", "2^89-1", "1009^400", "2^61*3*1009^150"])
    def test_euclid_runs_modulo_m(self, monkeypatch, n, degree, m):
        seen = []
        monkeypatch.setattr(septest, "_split_euclid",
                            lambda coeffs, u: seen.append(u) or True)
        assert is_separable(PolyZn(Modulus(n), (1,) * (degree + 1)))
        assert seen == [m]

    def test_split_takes_whole_prime_powers(self, layers):
        # A leading coefficient 1009 t (t a unit) modulo 1009^3 * 1013 splits
        # it once, into 1009^3, where 1009 is nilpotent, and 1013: not into
        # 1009 and 1009^2 * 1013, which would split again and run the
        # Euclid over Z/1009 more than once. The branch goes on over the
        # larger part, 1009^3, on its rows, and 1013 comes after.
        n = 1009**3 * 1013
        coeffs = [5, 3, 1, 1009 * 7]
        assert _split_euclid(coeffs, n) == separable(coeffs, [1009, 1013])
        moduli = [call[1] for layer in layers for call in layer.calls]
        assert list(dict.fromkeys(moduli)) == [n, 1009**3, 1013]
        assert [call[1] for layer in layers for call in layer.calls
                if call[0] == "pack"] == [n, n, 1013, 1013]

    @pytest.mark.parametrize("n, primes", [
        (3, [3]), (4, [2]), (1001, [7, 11, 13]),
        (2**4 * 3**3 * 1009**2, [2, 3, 1009]), (2**61 * 1009, [2, 1009])])
    def test_divisor_slots_stay_below_2u(self, n, primes, layers):
        # Every remainder holds its slots in [0, 2u), u the modulus of its
        # branch, and u divides U, the modulus the branch packed its rows
        # for; it fits exactly the lb slots the kernel counts, with no carry
        # past the last. The no-carry bound needs that, though the slots
        # that random f reach stay far enough below 2^W to hide a missed
        # reduction from the verdict; so each branch's W and Barrett step
        # are checked against the bounds of the docstrings too: 2 S U^2 <
        # 2^W, S = len(coeffs) + 1, and each u's step takes the lowest and
        # highest 2^12 values below 2^W into [0, 2u). The kernel's counts
        # are replayed from the calls: a branch packs a (la slots), then b
        # (lb); a remainder has min(la, lb - 1) slots and the divisor
        # becomes the dividend; a leading coefficient nilpotent modulo u
        # (its part of u is u) drops a slot of b; a split keeps both.
        rng = random.Random(n)
        for _ in range(30):
            coeffs = [rng.randrange(n) for _ in range(13)] + [1]
            assert _split_euclid(coeffs, n) == separable(coeffs, primes)
        reducing = {call[1] for layer in layers for call in layer.calls
                    if call[0] == "reduce"}
        assert len(reducing) >= min(len(primes), 2)
        remainders = 0
        for layer in layers:
            w, size, lb = layer.w, layer.size, None
            for kind, u, *rest in layer.calls:
                if kind == "pack":
                    packed, la, lb = u, lb, rest[0]
                    assert 2 * (size + 1) * u * u < 1 << w
                elif kind == "part" and rest[1] == u:
                    lb -= 1
                elif kind == "reduce":
                    la, lb = lb, min(la, lb - 1)
                    row, rem = rest
                    assert packed % u == 0
                    assert 0 <= row < 1 << w * lb and 0 <= rem < 1 << w * lb
                    assert all(s < 2 * u and (s - r) % u == 0 for s, r in zip(
                        slots(rem, w, lb), slots(row, w, lb)))
                    remainders += 1
            for u in {call[1] for call in layer.calls if call[0] == "reduce"}:
                for x in {*range(min(1 << 12, 1 << w)),
                          *range(max((1 << w) - (1 << 12), 0), 1 << w)}:
                    assert 0 <= _Rows.reduce(layer, x, u) < 2 * u
        assert remainders > 2 * 30


def test_slow_inputs_sit_at_their_bounds():
    # README's slowest inputs, not run here: each check input is dense at
    # the most its route takes, the work rule for its cut m (n itself) or,
    # the squared one, for the product of its primes, its m being too wide
    # for that degree; the disc input is at the most MAX_DET_WORK takes.
    inputs = slow_inputs()
    for name, (command, n, coeffs) in inputs.items():
        degree, b = PolyZn(Modulus(n), coeffs).degree, n.bit_length()
        if command == "disc":
            assert coeffs[-1] == 1
            assert degree == max(d for d in range(1, 400) if d**3 * (
                b + 32 + b * b // 768) <= MAX_DET_WORK)
            continue
        assert all(coeffs)
        assert math.gcd(n, math.prod(range(2, 1000))) == 1  # m is n
        if name.endswith("squared"):
            rad = math.isqrt(n)
            assert rad * rad == n
            assert euclid_most(n) < degree == euclid_most(rad)
        else:
            assert degree == euclid_most(n)
    assert [len(coeffs) - 1 for _, _, coeffs in inputs.values()] == [
        536, 976, 310, 310, 88]


def refuse_to_factor(n):
    raise AssertionError(f"factorize({n})")


def substitute_x_plus_a(f, a):
    """f(x + a), by Horner evaluation at the polynomial x + a."""
    m = f.modulus
    xa = PolyZn(m, (a, 1))
    result = PolyZn(m, ())
    for c in reversed(f.coeffs):
        result = result * xa + PolyZn(m, (c,))
    return result
