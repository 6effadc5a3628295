"""Separability tests for polynomials over Z/n.

Two routes are provided and cross-checked against each other:

* the trace-form discriminant for monic polynomials (the determinant over
  Z/n of the matrix of traces of the multiplication operators x^(i+j) on
  Z/n[x]/f, by elimination with one big-int multiply-add per row per
  pivot; separable iff it is a unit), and
* the gcd route for any f: one Euclid of f' and f over Z/m, m being n with
  each prime below 1000 cut to its first power, with one multiply-add per
  division step. Where a leading coefficient is a zero divisor, m is split
  at it (dynamic evaluation), with no factoring; separable iff every branch
  ends in a unit constant. Where m is too wide for f's degree, n is
  factored and the same Euclid, under the same work rule, runs over the
  product of its primes.

Both kernels work on rows packed one to an int by _Rows, each pivot row or
remainder reduced by its Barrett step, and split a modulus by _part.
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


class _Rows:
    """Rows of residues packed one to an int, the format both exact kernels
    work in: slot j of a row holds entry j in bits [jW, (j + 1) W), W the
    bit length of a bound rounded up to whole bytes, so that a row packs and
    unpacks through bytes in time linear in its length. A caller keeps
    every slot below the bound, at least 2u for each modulus u it packs or
    reduces for, and so no carry crosses into the next slot.

    reduce takes every slot x < 2^W of a row of at most size slots into [0,
    2u) by one Barrett step over the whole int: its even and its odd slots
    are split apart, each slot alone in a 2W-bit field. With mu = floor(2^W
    / u), q = floor(x mu / 2^W) lies in [floor(x / u) - 1, x / u]: x mu <
    2^(2W) stays in its field. The q of both halves, joined back into W-bit
    slots, times u is subtracted at once: q u <= x, so no borrow crosses a
    slot, and each slot is left in [0, 2u)."""

    def __init__(self, bound: int, size: int):
        self.wb = wb = (bound.bit_length() + 7) // 8
        self.w, self.mask = 8 * wb, (1 << 8 * wb) - 1
        # The W-bit mask in the low half of each 2W-bit field.
        self.low = int.from_bytes((b"\xff" * wb + bytes(wb))
                                  * ((size + 1) // 2), "little")

    def pack(self, row, u: int) -> int:
        return int.from_bytes(b"".join((x % u).to_bytes(self.wb, "little")
                                       for x in row), "little")

    def unpack(self, row: int, length: int) -> list[int]:
        raw, wb = row.to_bytes(length * self.wb, "little"), self.wb
        return [int.from_bytes(raw[j:j + wb], "little")
                for j in range(0, len(raw), wb)]

    def reduce(self, row: int, u: int) -> int:
        low, w = self.low, self.w
        mu = (1 << w) // u
        return row - ((row & low) * mu >> w & low
                      | ((row >> w & low) * mu >> w & low) << w) * u


def _part(u: int, c: int) -> int:
    """gcd(u, c^bits(u)): the part of u at the primes of c."""
    return math.gcd(u, pow(c, u.bit_length(), u))


def _det_mod(matrix, n: int) -> int:
    """Determinant of an N x N matrix over Z/n, in [0, n), by elimination
    over rows packed as _Rows. A row equal to the row above moved one column
    left, as every row of a trace form after the first is, packs as the
    packed row above shifted down one slot with its last entry ORed in.

    Each step swaps a pivot x of least gcd(x, n) into the top row, reduces
    that row into [0, 2n) by one Barrett step, and gives each row below one
    multiply-add, row + c top with c in [0, n), that makes its first slot a
    multiple of n; that slot is then dropped (>> W). Only the next first
    slot is read and reduced. A slot starts below n and each of the at most
    N - 1 steps adds less than 2n^2, so it stays below 2 N n^2 + n.

    Such a c exists when k = gcd(x, n) divides every entry b below x, as
    it does when x is a unit or n a prime power. Otherwise n is split at
    the first b that k does not divide, with no factorization: u is the
    part of n at the primes of k / gcd(k, b), where k has more factors than
    b, and v = n / u. As x has the least gcd in its column, b cannot have
    fewer factors at every prime, so 1 < u < n. The rows left are unpacked,
    and their determinants modulo u and v are joined by the CRT; repacked,
    their slots narrow to u and v (4x faster than rows kept packed for n).
    The result is that times the signed product of the pivots taken, 0 once
    that product is."""
    size = len(matrix)
    fmt = _Rows(2 * size * n * n + n, size)
    w, mask = fmt.w, fmt.mask
    rows = []
    for i, row in enumerate(matrix):
        if i and row[:-1] == matrix[i - 1][1:]:
            rows.append(rows[-1] >> w | row[-1] % n << w * (len(row) - 1))
        else:
            rows.append(fmt.pack(row, n))
    det = 1
    while rows and det:
        if (size := len(rows)) == 1:
            return det * rows[0] % n
        if (k := math.gcd(rows[0] & mask, n)) > 1:
            k, i = min((math.gcd(r & mask, n), i) for i, r in enumerate(rows))
            rows[0], rows[i], det = rows[i], rows[0], -det if i else det
            if b := next((r & mask for r in rows if (r & mask) % k), 0):
                u = _part(n, k // math.gcd(k, b))
                v = n // u
                rest = [fmt.unpack(r, size) for r in rows]
                du, dv = _det_mod(rest, u), _det_mod(rest, v)
                return det * (du + u * ((dv - du) * pow(u, -1, v) % v)) % n
        top = fmt.reduce(rows[0], n)
        m, x = n // k, top & mask
        inv, det = -pow(x // k, -1, m) % m, det * x % n
        rows = [r + (r & mask) % n // k * inv % m * top >> w for r in rows[1:]]
    return det


# disc's bound: a degree N trace form modulo a b-bit n costs about N^2 / 2
# multiply-adds on rows of N slots, each dearer as b grows; N^3 (b + 32 +
# b^2 // 768) must stay within MAX_DET_WORK, left as it was. On a 2-vCPU host
# the slowest input found at the bound answers in 0.9-1.0 s as a process:
# n of 125 primes, split off one or two at a time (README names it).
MAX_DET_WORK = 1_500_000_000


def discriminant(f: PolyZn) -> int:
    """disc(f) = det(trace form of f) as an element of Z/n, in [0, n).
    Raises DomainError above the bound that MAX_DET_WORK sets."""
    _require_monic(f)
    n = f.modulus.n
    bits = n.bit_length()
    step = bits + 32 + bits * bits // 768
    if f.degree**3 * step > MAX_DET_WORK:
        most = next((d for d in range(f.degree, 0, -1)
                     if d**3 * step <= MAX_DET_WORK), 0)
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

    A branch works over Z/u, u | m, on rows packed as _Rows for a modulus U,
    u | U, the leading coefficient in the lowest slot, for slots below 2 S
    U^2 with S = len(coeffs) + 1. Each remainder step is one multiply-add, a
    + k b with k in [0, u), that makes a's lowest slot a multiple of u; that
    slot is then dropped (>> W). A slot starts below 2U and each of the at
    most S - 1 steps adds less than 2U^2, so it stays below 2 S U^2. Each
    remainder is then reduced into [0, 2u) by one Barrett step.

    A divisor's leading coefficient c must be a unit. Where it is not, u1 =
    _part(u, c) is the part of u at the primes of c. Over Z/u1, c is
    nilpotent, so 0 modulo each of its primes, and its slot is dropped; over
    Z/(u / u1) it is a unit. When u1 = u the slot is dropped. When 1 < u1 <
    u the branch goes on over the larger part, on the same rows, and the
    smaller part is set aside, its rows unpacked, to be packed again in
    narrower slots. f is separable when every branch ends in a unit
    constant."""
    size = len(coeffs)
    todo = [(m, [i * c for i, c in enumerate(coeffs)][:0:-1], coeffs[::-1])]
    while todo:
        u, a, b = todo.pop()
        fmt = _Rows(2 * (size + 1) * u * u, size)
        w, mask = fmt.w, fmt.mask
        la, lb, a, b = len(a), len(b), fmt.pack(a, u), fmt.pack(b, u)
        while lb:
            c = (b & mask) % u
            if math.gcd(c, u) == 1:
                inv = -pow(c, -1, u) % u
                for _ in range(la - lb + 1):
                    a = a + (a & mask) * inv % u * b >> w
                a, b, la, lb = b, fmt.reduce(a, u), lb, min(la, lb - 1)
                continue
            u1 = _part(u, c)
            if u1 == u:
                b >>= w
                lb -= 1
                continue
            small, u = sorted((u1, u // u1))
            todo.append((small, fmt.unpack(a, la), fmt.unpack(b, lb)))
        if la != 1 or math.gcd(a, u) != 1:
            return False
    return True


# check's work rule: a degree N Euclid over Z/u takes about N^2 slot
# multiply-adds, on slots twice as wide as u, so each is dearer as u's bit
# length b grows: N^2 (b + 32 + b^2 // 96) must stay within MAX_EUCLID_WORK.
# It bounds the Euclid over the cut m and over the product of n's primes
# alike. On a 2-vCPU host the slowest inputs found at the bound (README
# names them) answer in 0.9-1.3 s as a process, all with dense f. A split
# goes on over its larger part and repacks the smaller one in narrower
# rows, so it adds no width.
MAX_EUCLID_WORK = 2_000_000_000
# The primes below 1000 multiplied: gcd(n, _TRIAL_PRODUCT) is n's part there.
_TRIAL_PRODUCT = math.prod(_TRIAL_PRIMES)


def _euclid_degree(u: int) -> int:
    """The largest degree whose Euclid over Z/u the work rule takes."""
    bits = u.bit_length()
    return math.isqrt(MAX_EUCLID_WORK // (bits + 32 + bits * bits // 96))


def is_separable(f: PolyZn) -> bool:
    """Separability of any f over Z/n: f is separable modulo every prime
    p | n.  The Euclid runs over m, n with each prime below 1000 cut to its
    first power (found by one gcd, with no factoring); where f's degree is
    over the work rule's for m, n is factored and it runs over the product
    of n's primes, which divides m.  Raises DomainError where the degree is
    over the rule's for that product too."""
    n, big_n = f.modulus.n, f.degree or 0
    g = math.gcd(n, _TRIAL_PRODUCT)
    m = g * (n // _part(n, g))
    if big_n > _euclid_degree(m):
        m = math.prod(p for p, _ in f.modulus.factors)
        if big_n > (most := _euclid_degree(m)):
            raise DomainError(f"check takes degree <= {most} modulo an n "
                              f"whose distinct primes make a "
                              f"{m.bit_length()}-bit product, got degree "
                              f"{big_n}")
    return _split_euclid(f.coeffs, m)
