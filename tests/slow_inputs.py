"""README's slowest inputs for `check` and `disc`, each at its bound on f's
degree, built from fixed seeds so that they can be timed again:

    PYTHONPATH=src python tests/slow_inputs.py NAME

runs the command on input NAME in this process and prints its record, so
`time` on it times the input as a fresh process. With no NAME it lists
the names."""

import math
import random
import sys

SEED = 2017


def primes_from(start, count):
    """The count primes from start up."""
    primes, x = [], start
    while len(primes) < count:
        if x > 1 and all(x % d for d in range(2, math.isqrt(x) + 1)):
            primes.append(x)
        x += 1
    return primes


def dense(n, degree):
    """Ascending coefficients of a degree-N f modulo n, each drawn below n."""
    rng = random.Random(SEED)
    return [rng.randrange(n) for _ in range(degree)] + [rng.randrange(1, n)]


def splitting(primes, degree):
    """Ascending coefficients of a monic f modulo the product of primes with
    f = x^N - a_p x^(N - e_p) modulo each p, joined by the CRT. Each e in 1
    .. N - 1 is some e_p, so that the trace form's power sums vanish at all
    primes of n but a few, and the elimination splits n one or two primes
    at a time."""
    rng = random.Random(SEED)
    exps = list(range(1, degree))
    exps += [rng.randrange(1, degree) for _ in range(len(primes) - len(exps))]
    rng.shuffle(exps)
    n = math.prod(primes)
    coeffs = [0] * degree + [1]
    for p, e in zip(primes, exps):
        idem = n // p * pow(n // p, -1, p)  # 1 modulo p, 0 modulo the rest
        coeffs[degree - e] = (coeffs[degree - e] - rng.randrange(1, p) * idem
                              ) % n
    return coeffs


def slow_inputs():
    """name -> (command, n, ascending coefficients of f)."""
    wide = math.prod(primes_from(1009, 130))
    below_700 = primes_from(2, 125)
    return {
        "check-1009^77": ("check", 1009**77, dense(1009**77, 536)),
        "check-1009^40": ("check", 1009**40, dense(1009**40, 976)),
        "check-130-primes": ("check", wide, dense(wide, 310)),
        "check-130-primes-squared": ("check", wide**2, dense(wide**2, 310)),
        "disc-primes-below-700": ("disc", math.prod(below_700),
                                  splitting(below_700, 88)),
    }


def argv(name):
    command, n, coeffs = slow_inputs()[name]
    return [command, "-n", str(n), "-f", ",".join(map(str, coeffs))]


if __name__ == "__main__":
    if len(sys.argv) < 2:
        print("\n".join(slow_inputs()))
        sys.exit(0)
    from sepzn import cli
    sys.exit(cli.run(argv(sys.argv[1])))
