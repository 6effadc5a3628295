"""The benchmark's workloads: seeded lists of `sepzn` command lines.

A workload is a list of slots.  Each slot holds a few interchangeable
candidate groups of commands of about the same cost, built from a fixed
catalogue seed, so the expected stdout of every candidate can be captured
once (see capture.py) and stored in expected.json.  A run's --seed picks one
candidate per slot and shuffles the order of the picked groups.  The inputs
therefore differ from seed to seed while the cost of a pass stays nearly the
same, which keeps the end-to-end spread small.

Nothing here imports sepzn: the program receives only the generated argv.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

MODES = ("monic", "leq", "exact")

# Squarefree composites in [6, 42]: every tuple is reduced mod two or more
# primes, which is where a reduced-tuple memo would pay.
COMPOSITES = (6, 10, 14, 15, 21, 22, 26, 30, 33, 34, 35, 38, 39, 42)
# Primes: the reduction is the identity, so the gcd kernel is the floor.
PRIMES = (5, 7, 11)
# Moduli of disc_degree: a prime near 10^3, 7*11*13, a prime near 10^6.
DISC_MODULI = (1009, 1001, 999983)

CANDIDATES = 6  # candidates per generated slot


@dataclass(frozen=True)
class Group:
    """Commands that run back to back (the disc, trace-form and check of one
    polynomial), with the sizes the run record reports."""

    argvs: tuple[tuple[str, ...], ...]
    tuples: int = 0                  # coefficient tuples the oracle walks
    degree: int | None = None        # degree of the polynomial
    second_prime: int | None = None  # second-largest prime factor of n


def space_size(mode: str, n: int, d: int) -> int:
    """Coefficient tuples `enumerate --mode mode -n n -d d` walks."""
    if mode == "monic":
        return n**d
    if mode == "leq":
        return n ** (d + 1)
    return (n - 1) * n**d


def verify_size(n: int, d_max: int) -> int:
    """Coefficient tuples `verify -n n --d-max d_max` walks."""
    return sum(space_size(m, n, d) for d in range(d_max + 1) for m in MODES)


def _oracle_slots(moduli, spec, workers: int) -> list[list[Group]]:
    """Slots from (kind, lo, hi, count) rows: `count` slots whose candidates
    are every query over `moduli` walking between lo and hi tuples.
    Enumerate slots cycle through the three modes."""
    slots = []
    for kind, lo, hi, count in spec:
        for i in range(count):
            groups = []
            for n in moduli:
                for d in range(12):
                    if kind == "verify":
                        size = verify_size(n, d)
                        argv = ("verify", "-n", str(n), "--d-max", str(d))
                    else:
                        mode = MODES[i % 3]
                        size = space_size(mode, n, d)
                        argv = ("enumerate", "--mode", mode, "-n", str(n),
                                "-d", str(d))
                    if lo <= size <= hi:
                        groups.append(Group(
                            (argv + ("--workers", str(workers)),), size))
            if not groups:
                raise ValueError(f"no {kind} query walks {lo}..{hi} tuples")
            slots.append(groups)
    return slots


def _oracle_composite() -> list[list[Group]]:
    # Tight tuple windows keep each class's cost within about 10% from seed
    # to seed; the class sizes put the median command in the small class
    # and the tail (10 commands beyond it) inside the mid class.
    return _oracle_slots(COMPOSITES, [
        ("enumerate", 1120, 1230, 30),
        ("verify", 2200, 2550, 2),
        ("enumerate", 8800, 10200, 12),
        ("verify", 22200, 22400, 1),
        ("enumerate", 34800, 39400, 2),
    ], workers=1)


def _oracle_prime_par() -> list[list[Group]]:
    # Few query sizes exist over three primes, so candidates within a
    # window mostly differ in mode; verify slots are fixed queries.
    return _oracle_slots(PRIMES, [
        ("enumerate", 1200, 1340, 24),
        ("verify", 5600, 5600, 1),
        ("verify", 7810, 7810, 1),
        ("enumerate", 14400, 16900, 12),
        ("verify", 39000, 39300, 1),
        ("enumerate", 62500, 78125, 1),
    ], workers=2)


def _poly_text(coeffs: list[int], terms: bool) -> str:
    """Ascending coefficients as an input string, in either CLI grammar."""
    if not terms:
        return ",".join(map(str, coeffs))
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        x = "" if e == 0 else "x" if e == 1 else f"x^{e}"
        parts.append(str(c) + x if c != 1 or e == 0 else x)
    return "+".join(parts) or "0"


def parse_poly_text(text: str) -> list[int]:
    """Ascending coefficients of a string made by _poly_text."""
    if "," in text:
        return [int(c) for c in text.split(",")]
    coeffs: dict[int, int] = {}
    for term in text.split("+"):
        head, x, power = term.partition("x")
        e = 0 if not x else int(power[1:]) if power else 1
        coeffs[e] = int(head) if head else 1
    return [coeffs.get(e, 0) for e in range(max(coeffs) + 1)]


def _disc_degree() -> list[list[Group]]:
    rng = random.Random("disc_degree catalogue")
    # Every seed runs the same (degree, modulus) shapes, with the moduli
    # cycling within each degree; only coefficients and grammar vary.
    degrees = ([2] * 6 + [3] * 6
               + [d for d in (4, 6, 8, 12, 16, 24, 32) for _ in range(3)]
               + [48, 48, 64])
    slots = []
    for i, deg in enumerate(degrees):
        n = DISC_MODULI[i % 3]
        groups = []
        for _ in range(CANDIDATES):
            coeffs = [rng.randrange(n) for _ in range(deg)] + [1]
            f = _poly_text(coeffs, terms=rng.random() < 0.5)
            groups.append(Group(tuple(
                (cmd, "-n", str(n), "-f", f)
                for cmd in ("disc", "trace-form", "check")), degree=deg))
        slots.append(groups)
    return slots


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _factor_large_n() -> list[list[Group]]:
    rng = random.Random("factor_large_n catalogue")
    # Trial division costs about p/2 steps for n = c*p*q with p < q, so the
    # smaller large prime p sets a command's cost.  Targets for p are log
    # spaced: many short commands below 10^6, a few long ones above.
    targets = ([10**5 * 10 ** (i / 32) for i in range(32)]
               + [10**6 * 10 ** (i / 8) for i in range(8)])
    seen = set()
    slots = []
    for i, target in enumerate(targets):
        cmd = ("factor", "count", "proportion", "check")[i % 4]
        groups = []
        while len(groups) < CANDIDATES:
            p = _next_prime(rng.randrange(int(target), int(target * 1.05)))
            q = _next_prime(rng.randrange(max(p, 10**6) + 1, 9_990_000))
            n = rng.randrange(1, 1000) * p * q
            if n in seen:
                continue
            seen.add(n)
            argv = (cmd, "-n", str(n))
            if cmd == "count":
                argv += ("--mode", rng.choice(MODES), "-d",
                         str(rng.randint(1, 6)))
            elif cmd == "proportion":
                argv += ("-d", str(rng.randint(2, 6)))
            elif cmd == "check":
                low = rng.randint(1, 4)
                coeffs = ([rng.randrange(100) for _ in range(low)]
                          + [rng.randrange(1, 100)])
                argv += ("-f", _poly_text(coeffs, terms=True))
            groups.append(Group((argv,), second_prime=p))
        slots.append(groups)
    for fmt in ("csv", "jsonl"):
        slots.append([Group((("table", "--n-min", "2", "--n-max", "2000",
                              "--d-min", "0", "--d-max", "6",
                              "--format", fmt),))])
    return slots


WORKLOADS = {
    "oracle_composite": _oracle_composite,
    "oracle_prime_par": _oracle_prime_par,
    "disc_degree": _disc_degree,
    "factor_large_n": _factor_large_n,
}


def catalogue(workload: str) -> list[list[Group]]:
    """Every slot of the workload with all its candidates."""
    return WORKLOADS[workload]()


def select(workload: str, seed: int) -> tuple[list[Group], Group]:
    """The groups a run executes, in order, and the warm-up group (the
    candidate picked for the cheapest slot, which is listed first)."""
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(candidates) for candidates in catalogue(workload)]
    warmup = picked[0]
    rng.shuffle(picked)
    return picked, warmup


def sizes(groups: list[Group]) -> dict:
    """Generated sizes of a run, for its record."""
    out = {"commands": sum(len(g.argvs) for g in groups),
           "tuples": sum(g.tuples for g in groups)}
    degrees = Counter(g.degree for g in groups if g.degree is not None)
    if degrees:
        out["degree_histogram"] = dict(sorted(degrees.items()))
    primes = [g.second_prime for g in groups if g.second_prime is not None]
    if primes:
        out["max_second_prime"] = max(primes)
    return out
