"""Separability tests for polynomials over Z/n.

Two routes are provided and cross-checked against each other:

* the trace-form discriminant for monic polynomials (the determinant over
  Z/n, by elimination, of the matrix of traces of the multiplication
  operators x^(i+j) on Z/n[x]/f; separable iff it is a unit), and
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


def trace_form(f: PolyZn) -> tuple[tuple[int, ...], ...]:
    """The trace form of a monic f = x^N + c_1 x^(N-1) + ... + c_N: the
    symmetric N x N matrix whose entry (i, j) is tr(x^(i+j)) on Z/n[x]/f,
    reduced into [0, n).

    tr(x^k) is the power sum s_k of the roots of f, given by Newton's
    identities:

        s_0 = N
        s_k = -(k c_k + sum_(0<i<k) c_i s_(k-i))    for 0 < k <= N
        s_k = -sum_(0<i<=N) c_i s_(k-i)             for k > N

    They use only integer products and sums, so they hold over every Z/n.
    """
    _require_monic(f)
    n, big_n = f.modulus.n, f.degree
    c = f.coeffs[::-1]  # c[i] is the coefficient of x^(N-i)
    s = [big_n % n]
    for k in range(1, 2 * big_n - 1):
        total = sum(c[i] * s[k - i] for i in range(1, min(k, big_n + 1)))
        if k <= big_n:
            total += k * c[k]
        s.append(-total % n)
    return tuple(tuple(s[i:i + big_n]) for i in range(big_n))


def _det_mod(matrix, n: int) -> int:
    """Determinant of a square matrix over Z/n, in [0, n), by elimination
    with every entry kept in [0, n). In each column a unit, swapped up,
    clears the rows below it. A column without one is cleared by Euclid:
    for pivot x and entry b, g = gcd(x, b) = s x + t b, rows (u, v) become
    (s u + t v, (x/g) v - (b/g) u), a map of determinant 1 over Z. The
    result is the signed product of the pivots, 0 once that product is."""
    rows = [list(row) for row in matrix]
    det = 1
    while rows and det:
        i = 0 if math.gcd(rows[0][0], n) == 1 else next(
            (i for i, row in enumerate(rows) if math.gcd(row[0], n) == 1), None)
        if i is None:
            for r in range(1, len(rows)):
                u, v = rows[0], rows[r]
                x, b = u[0], v[0]
                if b:
                    g = math.gcd(x, b)
                    s = pow(x // g, -1, b // g) if b > g else 1
                    t = (g - s * x) // b
                    x, b = x // g, b // g
                    rows[r] = [(x * q - b * p) % n for p, q in zip(u, v)]
                    if t:  # else s = 1: x divides b and row 0 stays
                        rows[0] = [(s * p + t * q) % n for p, q in zip(u, v)]
        elif i:
            rows[0], rows[i] = rows[i], rows[0]
            det = -det
        pivot, top = rows[0][0], rows[0][1:]
        inv = 0 if i is None else pow(pivot, -1, n)
        det = det * pivot % n
        rows = [[(e - m * p) % n for e, p in zip(row[1:], top)]
                if (m := row[0] * inv % n) else row[1:] for row in rows[1:]]
    return det


# disc's bound: a degree N trace form modulo a b-bit n costs about N^3 row
# steps, each dearer as b grows, and N^3 (b + 32 + b^2 // 768) must stay
# within MAX_DET_WORK. On a 2-vCPU host the slowest inputs found at the
# bound answer in about 2.5 s as a process.
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
    """Core field test: f over Z/p is separable iff f is a nonzero constant
    or gcd(f, f') is a nonzero constant."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    if not f:
        return False
    if len(f) == 1:
        return True
    fp = [(i * c) % p for i, c in enumerate(f)][1:]
    while fp and fp[-1] == 0:
        fp.pop()
    g = _gcd_lists(f, fp, p)
    return len(g) == 1


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
