"""Integer arithmetic for Z/n: factorization and Euler's totient.

All values are immutable and all functions are pure; counts use Python's
arbitrary-precision integers throughout.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd, isqrt, prod
from operator import index


class DomainError(ValueError):
    """Raised when an input lies outside an operation's domain."""


# Trial division by the primes below _TRIAL_BOUND takes them all out, so a
# cofactor m > 1 below _TRIAL_BOUND**2 has no room for two primes: it is prime.
_TRIAL_BOUND = 1000
# Miller-Rabin with the prime bases up to 41 has no strong pseudoprime below
# _MR_EXACT_BELOW (Sorenson and Webster 2015), so below it the test is a
# proof of primality; at or above it a passing cofactor is refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981
# Pollard-Brent rho steps allowed for splitting one cofactor.  A composite
# below _MR_EXACT_BELOW has a prime factor p below about 1.8e12.  Rho takes
# a median of 2 sqrt(p) steps to find it, and the most that 600 trials with
# p near 1e9 took was 8 sqrt(p): about 2.7e6 and 1.1e7 steps at 1.8e12.
# The cap, about 25 sqrt(1.8e12), leaves a wide margin over both; at about
# 1 us a step, a composite whose factors are all larger is refused within
# about half a minute.
_RHO_STEP_CAP = 1 << 25
_RHO_BATCH = 128  # differences multiplied together per gcd
# Distinct n whose factorizations or refusals are kept: each command builds
# a new Modulus, so a process that runs many commands on one n factors it
# once; bounded, since a caller may factor any number of distinct n.
_CACHE_SIZE = 4096


def _primes_below(bound: int) -> tuple[int, ...]:
    """The primes below bound, by the sieve of Eratosthenes."""
    sieve = [0, 0, *range(2, bound)]  # each composite is set to 0
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = [0] * len(range(p * p, bound, p))
    return tuple(filter(None, sieve))


_TRIAL_PRIMES = _primes_below(_TRIAL_BOUND)


def _is_certified_prime(m: int, n: int) -> bool:
    """Whether the cofactor m > 1 of n, free of primes below _TRIAL_BOUND,
    is prime; only a proof answers True."""
    if m < _TRIAL_BOUND * _TRIAL_BOUND:
        return True
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _MR_EXACT_BELOW:
        raise DomainError(
            f"cannot factor {n}: its factor {m} is a probable prime at or "
            f"above {_MR_EXACT_BELOW}, where primality is not certified")
    return True


def _rho_divisor(m: int, n: int) -> int:
    """A proper divisor of the odd composite m (a cofactor of n) by
    Pollard-Brent rho with batched gcds.  Each polynomial y^2 + c that
    closes its cycle without a proper divisor is replaced by the next c."""
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > _RHO_STEP_CAP:
                raise DomainError(
                    f"cannot factor {n}: its composite factor {m} did not "
                    f"split within {_RHO_STEP_CAP} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = gcd(q, m)
                k += _RHO_BATCH
            r *= 2
        if g == m:  # the batch overshot: redo it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = gcd(abs(x - ys), m)
        if g != m:
            return g


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 2.

    Trial division by the primes below _TRIAL_BOUND, then each cofactor
    left is certified prime (below _TRIAL_BOUND**2, or by deterministic
    Miller-Rabin below _MR_EXACT_BELOW) or split by Pollard-Brent rho.
    Raises DomainError for a probable-prime cofactor it cannot certify and
    for a composite cofactor that rho does not split within _RHO_STEP_CAP
    steps.  Answers and refusals share one bounded cache, so a refused n
    is refused again at once.

    Returns ((p1, k1), (p2, k2), ...) with primes strictly increasing.
    """
    answer = _factorize(n)
    if isinstance(answer, str):
        raise DomainError(answer)
    return answer


@lru_cache(maxsize=_CACHE_SIZE)
def _factorize(n: int) -> tuple[tuple[int, int], ...] | str:
    """factorize(n), or the message of its refusal."""
    try:
        return _factors(n)
    except DomainError as refusal:
        return str(refusal)


factorize.cache_clear = _factorize.cache_clear
factorize.cache_info = _factorize.cache_info


def _factors(n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n), uncached."""
    if n < 2:
        raise DomainError(f"cannot factor {n}: need an integer >= 2")
    exponents: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            exponents[p] = k
    return tuple(exponents.items()) + _cofactor_factors(m, n)


def _cofactor_factors(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """The prime powers of m >= 1, primes increasing: m is what trial
    division leaves of n, free of every prime below _TRIAL_BOUND or below
    the square of the first prime it did not try.  Raises what factorize(n)
    raises."""
    if m < _TRIAL_BOUND * _TRIAL_BOUND:  # 1, or a prime above every p taken
        return ((m, 1),) if m > 1 else ()
    # The smallest cofactor first, and each certified prime divided out of
    # every cofactor left: a prime power p^k takes a few splits, not k.
    exponents: dict[int, int] = {}
    cofactors = [m]
    while cofactors:
        m = min(cofactors)
        cofactors.remove(m)
        if _is_certified_prime(m, n):
            exponents[m] = 1
            for i, c in enumerate(cofactors):
                while c % m == 0:
                    c //= m
                    exponents[m] += 1
                cofactors[i] = c
            cofactors = [c for c in cofactors if c > 1]
        else:
            d = _rho_divisor(m, n)
            cofactors += (d, m // d)
    return tuple(sorted(exponents.items()))


class Modulus:
    """The ring Z/n for n >= 2; `factors` is factorize(n), on first read.

    Negative n is canonicalized to |n| at the boundary; Z/n = Z/(-n).
    """

    def __init__(self, n: int):
        n = abs(index(n))
        if n < 2:
            raise DomainError(f"modulus must satisfy |n| >= 2, got {n}")
        self.n = n

    @cached_property
    def factors(self) -> tuple[tuple[int, int], ...]:
        return factorize(self.n)

    def __eq__(self, other):
        return isinstance(other, Modulus) and self.n == other.n

    def __repr__(self):
        return f"Modulus({self.n})"


def totient(m: Modulus) -> int:
    """Euler's phi(n) = |(Z/n)^x|, from the cached factorization."""
    return prod(totient_prime_power(p, k) for p, k in m.factors)


def totient_prime_power(p: int, k: int) -> int:
    """phi(p^k) = p^k - p^(k-1) for k >= 1; phi(1) = 1 for k = 0."""
    p, k = index(p), index(k)
    if k < 0:
        raise DomainError(f"phi(p^k) needs k >= 0, got {k}")
    return p**k - p ** (k - 1) if k else 1
