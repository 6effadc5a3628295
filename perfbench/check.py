"""Output checks: every command's exit code and stdout against the outputs
captured at the seed commit (expected.json), plus independent checks that
do not trust those captures.

An execution fails when its exit code or its stdout differs from the
capture, or when an independent check rejects its stdout.  fail_ratio is
failed executions over attempted executions.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import is_prime, parse_poly_text

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def command_key(argv) -> str:
    return hashlib.sha256(json.dumps(list(argv)).encode()).hexdigest()[:16]


def stdout_digest(argv, stdout: str) -> str:
    """Digest of stdout, ignoring only `result.elapsed` of verify records."""
    if argv[0] == "verify":
        records = [json.loads(line) for line in stdout.splitlines()]
        for r in records:
            r["result"].pop("elapsed", None)
        stdout = "".join(json.dumps(r) + "\n" for r in records)
    return hashlib.sha256(stdout.encode()).hexdigest()[:32]


def load_expected() -> dict:
    with open(EXPECTED) as f:
        return json.load(f)


def _disc_formula(coeffs: list[int], n: int) -> int | None:
    """Discriminant of a monic quadratic or cubic, ascending coefficients."""
    if len(coeffs) == 3:
        c, b, _ = coeffs
        return (b * b - 4 * c) % n
    if len(coeffs) == 4:
        c, b, a, _ = coeffs  # x^3 + a x^2 + b x + c; -4b^3 - 27c^2 at a = 0
        return (a * a * b * b - 4 * b**3 - 4 * a**3 * c - 27 * c * c
                + 18 * a * b * c) % n
    return None


def independent_problem(argv, stdout: str, count_of) -> str | None:
    """What is wrong with stdout by a check that does not use the capture;
    None when nothing is.  count_of(mode, n, d) gives the closed-form count
    an `enumerate` record must equal."""
    records = [json.loads(line) for line in stdout.splitlines()] \
        if argv[0] != "table" else []
    cmd = argv[0]
    if cmd == "factor":
        n = int(argv[argv.index("-n") + 1])
        factors = records[0]["result"]["factors"]
        if math.prod(p**k for p, k in factors) != n:
            return "factors do not multiply to n"
        if not all(is_prime(p) for p, _ in factors):
            return "a factor is not prime"
    elif cmd in ("disc", "trace-form"):
        n = int(argv[argv.index("-n") + 1])
        coeffs = [c % n for c in parse_poly_text(argv[argv.index("-f") + 1])]
        result = records[0]["result"]
        if cmd == "disc":
            expected = _disc_formula(coeffs, n)
            if expected is not None and result["value"] != expected:
                return f"disc {result['value']} != formula {expected}"
        else:
            rows, size = result["entries"], len(coeffs) - 1
            # Entry (i, j) is the power sum s_(i+j): s_0 = N, s_1 = -a_(N-1).
            if len(rows) != size or any(
                    rows[i][j] != rows[i + 1][j - 1]
                    for i in range(size - 1) for j in range(1, size)):
                return "trace form is not an N x N Hankel matrix"
            if rows[0][0] != size % n or (
                    size > 1 and rows[0][1] != -coeffs[-2] % n):
                return "trace form does not start with N, -a_(N-1)"
    elif cmd == "enumerate":
        inputs = records[0]["inputs"]
        expected = count_of(inputs["mode"], inputs["n"], inputs["d"])
        value = records[0]["result"]["value"]
        if value != expected:
            return f"enumerate {value} != count {expected}"
    elif cmd == "verify":
        if not records or not all(r["result"]["match"] for r in records):
            return "verify reports a mismatch or a skipped query"
    return None


class Checker:
    """Checks executions and counts attempts and failures."""

    def __init__(self, expected: dict, count_of):
        self.expected = expected
        self.count_of = count_of
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}  # command key -> first problem
        self._verdicts: dict[tuple, str | None] = {}
        self._pairs: dict[tuple, dict] = {}  # (n, f) -> disc unit / check

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def record(self, argv, code: int, stdout: str, expect_as=None) -> bool:
        """Check one execution of argv; expect_as names the command whose
        capture applies (a serial re-run of a pooled command)."""
        key = command_key(expect_as or argv)
        verdict_key = (key, code, stdout)
        if verdict_key not in self._verdicts:
            self._verdicts[verdict_key] = self._problem(argv, key, code,
                                                        stdout)
        problem = self._verdicts[verdict_key]
        if problem is None:
            problem = self._pair_problem(argv, stdout)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.setdefault(key, f"{' '.join(argv)[:80]}: {problem}")
        return problem is None

    def _problem(self, argv, key, code, stdout) -> str | None:
        if key not in self.expected:
            return "no captured output for this command"
        expected_code, expected_digest = self.expected[key]
        if code != expected_code:
            return f"exit {code}, expected {expected_code}"
        try:
            if stdout_digest(argv, stdout) != expected_digest:
                return "stdout differs from the capture"
            return independent_problem(argv, stdout, self.count_of)
        except (ValueError, KeyError, IndexError, TypeError) as e:
            return f"unreadable output: {e!r}"

    def _pair_problem(self, argv, stdout: str) -> str | None:
        """disc(f) is a unit exactly when `check` calls f separable."""
        if argv[0] not in ("disc", "check") or "-f" not in argv:
            return None
        n = int(argv[argv.index("-n") + 1])
        pair = self._pairs.setdefault((n, argv[argv.index("-f") + 1]), {})
        result = json.loads(stdout)["result"]
        pair[argv[0]] = (math.gcd(result["value"], n) == 1
                         if argv[0] == "disc" else result["value"])
        if len(pair) == 2 and pair["disc"] != pair["check"]:
            return "disc unit-ness disagrees with check"
        return None
