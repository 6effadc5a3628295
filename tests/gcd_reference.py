"""A list-level Euclid over Z/p, one prime of n at a time: the reference
that septest.is_separable's split Euclid over Z/n and the oracle's sieve
are checked against."""


def rem_lists(a, b, p):
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


def gcd_lists(a, b, p):
    """A gcd of a and b over the field Z/p: an associate of the monic gcd,
    and [] for gcd(0, 0)."""
    while b:
        a, b = b, rem_lists(a, b, p)
    return a


def separable_mod_p(coeffs, p):
    """f over Z/p is separable iff gcd(f, f') is a nonzero constant: f
    itself when f is one, and 0 when f is 0."""
    f = [c % p for c in coeffs]
    while f and f[-1] == 0:
        f.pop()
    fp = [(i * c) % p for i, c in enumerate(f)][1:]
    while fp and fp[-1] == 0:
        fp.pop()
    return len(gcd_lists(f, fp, p)) == 1


def separable(coeffs, primes):
    """Separability over Z/n, given the primes of n: over Z/p for each."""
    return all(separable_mod_p(coeffs, p) for p in primes)
