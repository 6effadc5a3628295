"""Integer arithmetic for Z/n: factorization and Euler's totient.

All values are immutable and all functions are pure; counts use Python's
arbitrary-precision integers throughout.
"""

from __future__ import annotations

from functools import lru_cache


class DomainError(ValueError):
    """Raised when an input lies outside an operation's domain."""


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 2 by trial division up to sqrt(n).

    Returns ((p1, k1), (p2, k2), ...) with primes strictly increasing.
    """
    if n < 2:
        raise DomainError(f"cannot factor {n}: need an integer >= 2")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            factors.append((p, k))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


class Modulus:
    """The ring Z/n for n >= 2, carrying its prime-power factorization.

    Negative n is canonicalized to |n| at the boundary; Z/n = Z/(-n).
    """

    __slots__ = ("n", "factors")

    def __init__(self, n: int):
        n = abs(int(n))
        if n < 2:
            raise DomainError(f"modulus must satisfy |n| >= 2, got {n}")
        self.n = n
        self.factors = factorize(n)

    def prime_power_components(self) -> list["Modulus"]:
        """The moduli p^k of the CRT decomposition of Z/n."""
        return [Modulus(p**k) for p, k in self.factors]

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.n == other.n

    def __hash__(self):
        return hash(self.n)

    def __repr__(self):
        return f"Modulus({self.n})"


def totient(m: Modulus) -> int:
    """Euler's phi(n) = |(Z/n)^x|, from the cached factorization."""
    result = 1
    for p, k in m.factors:
        result *= p**k - p ** (k - 1)
    return result


def totient_prime_power(p: int, k: int) -> int:
    """phi(p^k) = p^k - p^(k-1) for k >= 1; phi(1) = 1 for k = 0."""
    if k == 0:
        return 1
    return p**k - p ** (k - 1)
