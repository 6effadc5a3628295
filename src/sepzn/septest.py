"""Separability tests for polynomials over Z/n.

Two routes are provided and cross-checked against each other:

* the trace-form discriminant for monic polynomials (the determinant over
  Z/n of the matrix of traces of the multiplication operators x^(i+j) on
  Z/n[x]/f, by elimination over rows packed one to an int: each row after
  the first packs as the row above shifted down one slot, each pivot row is
  reduced by one Barrett step over the whole int, and each row below takes
  one big-int multiply-add per pivot; separable iff it is a unit), and
* the gcd route for any f: one Euclid of f' and f over Z/m, m being n with
  each prime below 1000 cut to its first power, on rows packed one to an
  int with one Barrett step per remainder. Where a leading coefficient is a
  zero divisor, m is split at it (dynamic evaluation), with no factoring;
  separable iff every branch ends in a unit constant. Where m is too wide
  for f's degree, n is factored and the same Euclid runs over the product
  of its primes.
"""

from __future__ import annotations

import math
from operator import mul

from .arith import _TRIAL_PRIMES, DomainError
from .poly import PolyZn


def _require_monic(f: PolyZn):
    if f.degree is None or f.degree < 1 or not f.is_monic():
        raise DomainError("a monic polynomial of degree >= 1 is required")


# trace-form's bound: N^2 residues of up to as many digits as n has, so a
# monic f of degree N modulo a b-digit n is refused when N^2 b exceeds it.
MAX_TRACE_DIGITS = 2**24


def trace_form(f: PolyZn) -> tuple[tuple[int, ...], ...]:
    """The trace form of a monic f = x^N + c_1 x^(N-1) + ... + c_N: the
    symmetric N x N matrix whose entry (i, j) is tr(x^(i+j)) on Z/n[x]/f,
    reduced into [0, n).  Raises DomainError above MAX_TRACE_DIGITS.

    tr(x^k) is the power sum s_k of the roots of f, given by Newton's
    identities:

        s_0 = N
        s_k = -(k c_k + sum_(0<i<k) c_i s_(k-i))    for 0 < k <= N
        s_k = -sum_(0<i<=N) c_i s_(k-i)             for k > N

    They use only integer products and sums, so they hold over every Z/n.
    """
    _require_monic(f)
    n, big_n = f.modulus.n, f.degree
    digits = n.bit_length() * 1233 >> 12  # at most n's decimal digits,
    while n >= 10**digits:  # counted without str(), which stops at 4300
        digits += 1
    if big_n**2 * digits > MAX_TRACE_DIGITS:
        most = math.isqrt(MAX_TRACE_DIGITS // digits)
        raise DomainError(f"trace-form takes degree <= {most} modulo a "
                          f"{digits}-digit n, got degree {big_n}")
    c = f.coeffs[::-1]  # c[i] is the coefficient of x^(N-i)
    s = [big_n % n]
    for k in range(1, 2 * big_n - 1):
        top = min(k, big_n + 1)  # the sum of c_i s_(k-i) for 0 < i < top
        total = sum(map(mul, c[1:top], s[k - 1:k - top:-1]))
        if k <= big_n:
            total += k * c[k]
        s.append(-total % n)
    return tuple(tuple(s[i:i + big_n]) for i in range(big_n))


def _det_mod(matrix, n: int) -> int:
    """Determinant of an N x N matrix over Z/n, in [0, n), by elimination
    over packed rows: a row is one int whose W-bit slot j holds column j,
    with W the bit length of N n^2 + n rounded up to whole bytes, so that a
    row packs and unpacks through bytes in time linear in its length. A row
    equal to the row above moved one column left, as every row of a trace
    form after the first is, packs as the packed row above shifted down one
    slot with its last entry ORed in.

    Each step swaps a pivot x of least gcd(x, n) into the top row, reduces
    that row into [0, n), and gives each row below one multiply-add, row +
    c top with c in [0, n), that makes its first slot a multiple of n; that
    slot is then dropped (>> W). Only the next first slot is read and
    reduced. A slot starts below n and each step adds less than n^2, so it
    stays below N n^2 + n < 2^W: no carry crosses into the next slot.

    The top row is reduced by one Barrett step over the whole int: its even
    and its odd slots are split apart, each slot x < 2^W alone in a 2W-bit
    field. With mu = floor(2^W / n), q = floor(x mu / 2^W) lies in
    [floor(x / n) - 1, x / n]: x mu < 2^(2W) stays in its field, and r = x -
    q n lies in [0, 2n), so no borrow crosses a field either. Bit W of r +
    2^W - n < 2^(W+1) is set iff r >= n, and subtracting that bit times n
    leaves x mod n. The two halves are then ORed back together.

    Such a c exists when k = gcd(x, n) divides every entry b below x, as
    it does when x is a unit or n a prime power. Otherwise n is split at
    the first b that k does not divide, with no factorization: u is the
    part of n at the primes where k has more factors than b, and v = n / u.
    As x has the least gcd in its column, b cannot have fewer factors at
    every prime, so 1 < u < n. The rows left are unpacked, and their
    determinants modulo u and v are joined by the CRT; repacked, their slots
    narrow to u and v (4x faster than rows kept packed for n). The result
    is that times the signed product of the pivots taken, 0 once that
    product is."""
    wb = ((len(matrix) * n * n + n).bit_length() + 7) // 8
    w = 8 * wb
    mask = (1 << w) - 1
    rows = []
    for i, row in enumerate(matrix):
        if i and row[:-1] == matrix[i - 1][1:]:
            rows.append(rows[-1] >> w | row[-1] % n << w * (len(row) - 1))
        else:
            rows.append(int.from_bytes(b"".join(
                (x % n).to_bytes(wb, "little") for x in row), "little"))
    # Barrett's constants: 1, the mask and 2^W - n in the low half of each of
    # the 2W-bit fields that hold a row's even (or odd) slots, and mu.
    half = (len(rows) + 1) // 2
    ones, low, lift = (int.from_bytes((x.to_bytes(wb, "little") + bytes(wb))
                                      * half, "little")
                       for x in (1, mask, (1 << w) - n))
    mu = (1 << w) // n
    det = 1
    while rows and det:
        if (size := len(rows)) == 1:
            return det * rows[0] % n
        if (k := math.gcd(rows[0] & mask, n)) > 1:
            k, i = min((math.gcd(r & mask, n), i) for i, r in enumerate(rows))
            rows[0], rows[i], det = rows[i], rows[0], -det if i else det
            if b := next((r & mask for r in rows if (r & mask) % k), 0):
                u = math.gcd(n, pow(k // math.gcd(k, b), n.bit_length(), n))
                v = n // u
                raw = [r.to_bytes(size * wb, "little") for r in rows]
                rest = [[int.from_bytes(r[j:j + wb], "little")
                         for j in range(0, len(r), wb)] for r in raw]
                du, dv = _det_mod(rest, u), _det_mod(rest, v)
                return det * (du + u * ((dv - du) * pow(u, -1, v) % v)) % n
        even, odd = rows[0] & low, rows[0] >> w & low
        even -= (even * mu >> w & low) * n  # each field now below 2n
        odd -= (odd * mu >> w & low) * n
        even -= (even + lift >> w & ones) * n
        odd -= (odd + lift >> w & ones) * n
        top = even | odd << w
        m, x = n // k, top & mask
        inv, det = -pow(x // k, -1, m) % m, det * x % n
        rows = [r + (r & mask) % n // k * inv % m * top >> w for r in rows[1:]]
    return det


# disc's bound: a degree N trace form modulo a b-bit n costs about N^2 / 2
# multiply-adds on rows of N slots, each dearer as b grows; N^3 (b + 32 +
# b^2 // 768) must stay within MAX_DET_WORK, left as it was. On a 2-vCPU host
# the slowest inputs found at the bound answer in 1.4-1.7 s as a process:
# n of 95-125 primes, split off one or two at a time.
MAX_DET_WORK = 1_500_000_000


def discriminant(f: PolyZn) -> int:
    """disc(f) = det(trace form of f) as an element of Z/n, in [0, n).
    Raises DomainError above the bound that MAX_DET_WORK sets."""
    _require_monic(f)
    n = f.modulus.n
    bits = n.bit_length()
    step = bits + 32 + bits * bits // 768
    if f.degree**3 * step > MAX_DET_WORK:
        most = next(d for d in range(f.degree, 0, -1)
                    if d**3 * step <= MAX_DET_WORK)
        raise DomainError(f"disc takes degree <= {most} modulo a {bits}-bit "
                          f"n, got degree {f.degree}")
    return _det_mod(trace_form(f), n)


def is_separable_monic(f: PolyZn) -> bool:
    """Separability of a monic f via the discriminant: true iff disc(f) is a unit."""
    return math.gcd(discriminant(f), f.modulus.n) == 1


def _split_euclid(coeffs, m: int) -> bool:
    """Whether f = sum coeffs[i] x^i is separable modulo every prime of m:
    one Euclid of f' and f over Z/m, with m split where it has to be
    (dynamic evaluation), and no factorization of m.

    A branch works over Z/u, u | m, on rows packed one to an int for a
    modulus U, u | U: the leading coefficient in the lowest W-bit slot, W the
    bit length of 2 S U^2 with S = len(coeffs) + 1, rounded up to whole
    bytes. Each remainder step is one multiply-add, a + k b with k in [0,
    u), that makes a's lowest slot a multiple of u; that slot is then
    dropped (>> W). A slot starts below 2U and each of the at most S - 1
    steps adds less than 2U^2, so it stays below 2 S U^2 <= 2^W: no carry
    crosses into the next slot.

    Each remainder is then reduced by one Barrett step over the whole int:
    its even and its odd slots are split apart, each slot x < 2^W alone in a
    2W-bit field. With mu = floor(2^W / u), q = floor(x mu / 2^W) lies in
    [floor(x / u) - 1, x / u]: x mu < 2^(2W) stays in its field. The q of
    both halves, joined back into W-bit slots, times u is subtracted at
    once: q u <= x, so no borrow crosses a slot, and each slot is left in
    [0, 2u).

    A divisor's leading coefficient c must be a unit. Where it is not, u1 =
    gcd(u, c^bits(u)) is the part of u at the primes of c. Over Z/u1, c is
    nilpotent, so 0 modulo each of its primes, and its slot is dropped; over
    Z/(u / u1) it is a unit. When u1 = u the slot is dropped. When 1 < u1 <
    u the branch goes on over the larger part, on the same rows, and the
    smaller part is set aside, its rows unpacked, to be packed again in
    narrower slots. f is separable when every branch ends in a unit
    constant."""
    size = len(coeffs) + 1
    todo = [(m, [i * c for i, c in enumerate(coeffs)][:0:-1], coeffs[::-1])]
    while todo:
        u, a, b = todo.pop()
        wb = ((2 * size * u * u).bit_length() + 7) // 8
        w = 8 * wb
        mask = (1 << w) - 1
        # The W-bit mask in the low half of each 2W-bit field, and mu.
        low = int.from_bytes((mask.to_bytes(wb, "little") + bytes(wb))
                             * (size // 2), "little")
        mu = (1 << w) // u
        la, lb = len(a), len(b)
        a, b = (int.from_bytes(b"".join((x % u).to_bytes(wb, "little")
                                        for x in row), "little")
                for row in (a, b))
        while lb:
            c = (b & mask) % u
            if math.gcd(c, u) == 1:
                inv = -pow(c, -1, u) % u
                for _ in range(la - lb + 1):
                    a = a + (a & mask) * inv % u * b >> w
                la = min(la, lb - 1)
                q = (a & low) * mu >> w & low
                a -= (q | ((a >> w & low) * mu >> w & low) << w) * u
                a, b, la, lb = b, a, lb, la
                continue
            u1 = math.gcd(u, pow(c, u.bit_length(), u))
            if u1 == u:
                b >>= w
                lb -= 1
                continue
            small, u = sorted((u1, u // u1))
            mu = (1 << w) // u
            todo.append((small, *([int.from_bytes(raw[j:j + wb], "little")
                                   for j in range(0, len(raw), wb)]
                                  for raw in (a.to_bytes(la * wb, "little"),
                                              b.to_bytes(lb * wb, "little")))))
        if la != 1 or math.gcd(a, u) != 1:
            return False
    return True


# check's bound on its direct route: a degree N Euclid over Z/m takes about
# N^2 slot multiply-adds, on slots twice as wide as m, so each is dearer as
# m's bit length b grows: N^2 (b + 32 + b^2 // 96) must stay within
# MAX_EUCLID_WORK.  On a 2-vCPU host the slowest inputs found at the bound
# answer in 0.9-1.9 s as a process, all with dense f: modulo 1009^77 (769
# bits, degree 536) 1.1-1.9 s, modulo 1009^40 (400 bits, degree 976) and,
# the slowest that splits, modulo the product of the 130 primes from 1009 up
# (1365 bits, degree 310, split now and then by its leading coefficients)
# 0.9-1.7 s.  A split goes on over its larger part and repacks the smaller
# one in narrower rows, so it adds no width.
MAX_EUCLID_WORK = 2_000_000_000
# check's bound where m is too wide: n is factored, and the Euclid runs over
# the product of its primes while N^2 times their number stays within
# MAX_GCD_WORK.  Every n that can be factored keeps that degree, however
# wide m is.
MAX_GCD_WORK = 2**22
# The primes below 1000 multiplied: gcd(n, _TRIAL_PRODUCT) is n's part there.
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def is_separable(f: PolyZn) -> bool:
    """Separability of any f over Z/n: f is separable modulo every prime
    p | n.  The Euclid runs over m, n with each prime below 1000 cut to its
    first power (found by one gcd, with no factoring); where m is too wide
    for f's degree, over the product of n's primes.  Raises DomainError
    above both bounds."""
    n, big_n = f.modulus.n, f.degree or 0
    g = math.gcd(n, _TRIAL_PRODUCT)
    m = g * (n // math.gcd(n, pow(g, n.bit_length(), n)))
    bits = m.bit_length()
    step = bits + 32 + bits * bits // 96
    if big_n**2 * step > MAX_EUCLID_WORK:
        factors = f.modulus.factors
        if big_n**2 * len(factors) > MAX_GCD_WORK:
            most = max(math.isqrt(MAX_EUCLID_WORK // step),
                       math.isqrt(MAX_GCD_WORK // len(factors)))
            raise DomainError(f"check takes degree <= {most} modulo an n "
                              f"with {len(factors)} distinct primes, got "
                              f"degree {big_n}")
        m = math.prod(p for p, _ in factors)
    return _split_euclid(f.coeffs, m)
