"""Separability tests for polynomials over Z/n.

Two routes are provided and cross-checked against each other:

* the trace-form discriminant for monic polynomials (the determinant over
  Z/n of the matrix of traces of the multiplication operators x^(i+j) on
  Z/n[x]/f, by elimination over rows packed one to an int, one big-int
  multiply-add per row per pivot; separable iff it is a unit), and
* the general pipeline for arbitrary polynomials: split Z/n into its
  prime-power components, reduce each component mod p, and check that the
  reduction is coprime to its derivative over the field Z/p.
"""

from __future__ import annotations

import math

from .arith import DomainError
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
        total = sum(c[i] * s[k - i] for i in range(1, min(k, big_n + 1)))
        if k <= big_n:
            total += k * c[k]
        s.append(-total % n)
    return tuple(tuple(s[i:i + big_n]) for i in range(big_n))


def _det_mod(matrix, n: int) -> int:
    """Determinant of an N x N matrix over Z/n, in [0, n), by elimination
    over packed rows: a row is one int whose W-bit slot j holds column j,
    with W the bit length of N n^2 + n rounded up to whole bytes, so that a
    row packs and unpacks through bytes in time linear in its length.

    Each step swaps a pivot x of least gcd(x, n) into the top row, reduces
    that row into [0, n), and gives each row below one multiply-add, row +
    c top with c in [0, n), that makes its first slot a multiple of n; that
    slot is then dropped (>> W). Only the next first slot is read and
    reduced. A slot starts below n and each step adds less than n^2, so it
    stays below N n^2 + n < 2^W: no carry crosses into the next slot.

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
    rows = [int.from_bytes(b"".join((x % n).to_bytes(wb, "little")
                                    for x in row), "little") for row in matrix]
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
        top = sum((rows[0] >> w * j & mask) % n << w * j for j in range(size))
        m, x = n // k, top & mask
        inv, det = -pow(x // k, -1, m) % m, det * x % n
        rows = [r + (r & mask) % n // k * inv % m * top >> w for r in rows[1:]]
    return det


# disc's bound: a degree N trace form modulo a b-bit n costs about N^2 / 2
# multiply-adds on rows of N slots, each dearer as b grows; N^3 (b + 32 +
# b^2 // 768) must stay within MAX_DET_WORK, left as it was. On a 2-vCPU host
# the slowest inputs found at the bound answer in about 1.5 s as a process:
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


def _separable_coeffs_mod_p(coeffs, p: int) -> bool:
    """Core field test: f over Z/p is separable iff gcd(f, f') is a nonzero
    constant: f itself when f is one, and 0 when f is 0."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    fp = [(i * c) % p for i, c in enumerate(f)][1:]
    while fp and fp[-1] == 0:
        fp.pop()
    return len(_gcd_lists(f, fp, p)) == 1


def _rem_lists(a, b, p):
    """Remainder of a modulo b over Z/p as a trimmed coefficient list; the
    entries of a lie in [0, p) and b is trimmed, with a unit leading
    coefficient."""
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    r = list(a)
    for top in range(len(r) - 1, db - 1, -1):
        c = r[top]
        if c:
            factor = c * inv % p
            for j in range(db + 1):
                r[top - db + j] = (r[top - db + j] - factor * b[j]) % p
    del r[db:]
    while r and r[-1] == 0:
        r.pop()
    return r


def _gcd_lists(a, b, p):
    """A gcd of a and b over the field Z/p: an associate of the monic gcd,
    and [] for gcd(0, 0)."""
    while b:
        a, b = b, _rem_lists(a, b, p)
    return a


# check's bound: f of degree N costs one Euclid of about N^2 steps over Z/p
# for each prime p | n, so N^2 times the number of distinct primes of n must
# stay within MAX_GCD_WORK.  On a 2-vCPU host the slowest inputs found at the
# bound answer in 2.2-2.8 s as a process, factoring n included.
MAX_GCD_WORK = 2**22


def is_separable(f: PolyZn) -> bool:
    """Separability of any f over Z/n: reduce mod every prime p | n and
    require separability of every reduction over Z/p.  Raises DomainError
    above the bound that MAX_GCD_WORK sets."""
    factors = f.modulus.factors
    if (f.degree or 0)**2 * len(factors) > MAX_GCD_WORK:
        most = math.isqrt(MAX_GCD_WORK // len(factors))
        raise DomainError(f"check takes degree <= {most} modulo an n with "
                          f"{len(factors)} distinct primes, got degree "
                          f"{f.degree}")
    return all(_separable_coeffs_mod_p(f.coeffs, p) for p, _ in factors)
