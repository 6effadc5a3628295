"""Separability tests for polynomials over Z/n.

Two routes are provided and cross-checked against each other:

* the trace-form discriminant for monic polynomials (det of the matrix of
  traces of the multiplication operators x^(i+j) on Z/n[x]/f, separable iff
  the determinant is a unit), and
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


def _int_det(matrix: tuple[tuple[int, ...], ...]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in matrix]
    size = len(a)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def discriminant(f: PolyZn) -> int:
    """disc(f) = det(trace form of f) as an element of Z/n, in [0, n).

    The entries are lifted to their integer representatives in [0, n) and
    the exact integer determinant is reduced mod n; the determinant is a
    polynomial in the entries, so the result is independent of the lifts.
    """
    return _int_det(trace_form(f)) % f.modulus.n


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


def is_separable(f: PolyZn) -> bool:
    """Separability of any f over Z/n: reduce mod every prime p | n and
    require separability of every reduction over Z/p."""
    return all(_separable_coeffs_mod_p(f.coeffs, p) for p, _ in f.modulus.factors)
