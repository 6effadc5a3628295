"""Command-line front end.

Every sub-command streams JSON-lines OutputRecords to stdout: one object per
line with keys in the fixed order command, inputs, result, provenance.
Numeric output is exact; rationals are rendered "numerator/denominator", and
a decimal field appears only behind --decimal and is flagged approximate.
The `table` sub-command can emit CSV instead.

Exit status: 0 success, 1 usage or output error, 2 domain error (bad
modulus, monic required, budget exceeded), 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import census, oracle
from .arith import DomainError, Modulus, factorize
from .poly import PolyParseError, parse
from .septest import discriminant, is_separable, trace_form


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(command: str, inputs: dict, result: dict, provenance: str):
    record = {"command": command, "inputs": inputs, "result": result,
              "provenance": provenance}
    print(json.dumps(record))


def _rational(key: str, numerator: int, denominator: int,
              decimal: int | None = None) -> dict:
    """numerator/denominator in lowest terms under key, followed, when
    decimal is given, by its value truncated to `decimal` places, flagged
    approximate."""
    g = math.gcd(numerator, denominator)
    numerator, denominator = numerator // g, denominator // g
    fields = {key: f"{numerator}/{denominator}"}
    if decimal is not None:
        if not 0 <= decimal <= census.MAX_DIGITS:
            accepted = "<= " if decimal > 0 else "in 0.."
            raise DomainError(f"--decimal must be {accepted}"
                              f"{census.MAX_DIGITS}, got {decimal}")
        whole, rest = divmod(numerator, denominator)
        fields["decimal"] = str(whole)
        if decimal > 0:
            frac = rest * 10**decimal // denominator
            fields["decimal"] += f".{frac:0{decimal}d}"
        fields["approximate"] = True
    return fields


def _cmd_factor(args) -> int:
    m = Modulus(args.n)
    _emit("factor", {"n": m.n},
          {"type": "factorization", "factors": [list(f) for f in m.factors]},
          "formula")
    return 0


def _cmd_poly(args) -> int:
    """check, disc or trace-form: the sub-parser's result(f), for f mod n."""
    f = parse(args.poly, Modulus(args.n))
    _emit(args.command, {"n": f.modulus.n, "polynomial": str(f)},
          args.result(f), "formula")
    return 0


def _cmd_count(args) -> int:
    m = Modulus(args.n)
    mode = census.Mode(args.mode)
    start, stop = census.window(m.n, args.d, mode)
    count = census.count(m, args.d, mode)
    _emit("count", {"n": m.n, "d": args.d, "mode": mode.value},
          {"type": "count", "value": count, "total": stop - start,
           **_rational("proportion", count, stop - start, args.decimal)},
          "formula")
    return 0


def _cmd_proportion(args) -> int:
    m = Modulus(args.n)
    value = census.proportion_monic_separable(m, args.d)
    _emit("proportion", {"n": m.n, "d": args.d},
          {"type": "rational", **_rational("value", value.numerator,
                                           value.denominator, args.decimal)},
          "formula")
    return 0


def _cmd_enumerate(args) -> int:
    m = Modulus(args.n)
    mode = census.Mode(args.mode)
    count = (oracle.crt_product_count if args.crt else oracle.enumerate_count)(
        m, args.d, mode, budget=args.budget, workers=args.workers)
    _emit("enumerate",
          {"n": m.n, "d": args.d, "mode": mode.value, "crt": args.crt},
          {"type": "count", "value": count}, "enumeration")
    return 0


def _cmd_verify(args) -> int:
    m = Modulus(args.n)
    reports = oracle.verify(m, args.d_max, budget=args.budget,
                            workers=args.workers)
    for r in reports:
        _emit("verify",
              {"n": m.n, "d": r.d, "mode": r.mode.value},
              {"type": "verification", "oracle": r.oracle_count,
               "formula": r.formula_count, "match": r.match,
               "skipped": r.skipped, "elapsed": r.elapsed}, "both")
    return 3 if any(r.match is False for r in reports) else 0


def _cmd_table(args) -> int:
    mode = census.Mode(args.mode)
    ns = range(args.n_min, args.n_max + 1)
    ds = range(args.d_min, args.d_max + 1)
    # Refuse a bad range, or a corner n it cannot factor, before any row.
    if ns and args.n_min < 2:
        raise DomainError(f"--n-min must be >= 2, got {args.n_min}")
    if ns and ds:
        for d in (args.d_min, args.d_max):  # d >= 0; the largest set
            census.window(args.n_max, d, mode)
        for n in (args.n_min, args.n_max):
            factorize(n)
    # One template per command, filled with n, d, mode, count and count/size
    # in lowest terms: the row csv.writer (excel dialect) writes for these
    # quote-free fields, or the line _emit writes for the row's record.
    write, name = sys.stdout.write, mode.value
    if args.format == "csv":
        write("n,d,mode,count,proportion\r\n")
        row = "%d,%d,%s,%d,%d/%d\r\n"
    else:
        row = ('{"command": "table", "inputs": {"n": %d, "d": %d, '
               '"mode": "%s"}, "result": {"type": "count", "value": %d, '
               '"proportion": "%d/%d"}, "provenance": "formula"}\n')
    for n in ns if ds else ():  # one count of every degree per n
        start, stop = census.window(n, args.d_min, mode)
        size = stop - start  # n times larger at the next d, in every mode
        for d, count in zip(ds, census.counts(Modulus(n), ds, mode)):
            g = math.gcd(count, size)
            write(row % (n, d, name, count, count // g, size // g))
            size *= n
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run."""
    parser = _Parser(prog="sepzn",
                     description="Separable polynomials over Z/n: decision "
                                 "procedures, counting formulas, and a "
                                 "brute-force verification oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    modes = [m.value for m in census.Mode]

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("factor", _cmd_factor, help="prime factorization of n")
    p.add_argument("-n", type=int, required=True)

    for name, text, result in [
            ("check", "decide separability of a polynomial",
             lambda f: {"type": "bool", "value": is_separable(f)}),
            ("disc", "trace-form discriminant of a monic polynomial",
             lambda f: {"type": "residue", "value": discriminant(f),
                        "modulus": f.modulus.n}),
            ("trace-form", "trace-form matrix of a monic polynomial",
             lambda f: {"type": "matrix", "modulus": f.modulus.n,
                        "entries": [list(row) for row in trace_form(f)]})]:
        p = add(name, _cmd_poly, help=text)
        p.set_defaults(result=result)
        p.add_argument("-n", type=int, required=True)
        p.add_argument("-f", dest="poly", required=True,
                       help="polynomial, e.g. '3x^2+x+5' or '5,1,3'")

    p = add("count", _cmd_count, help="closed-form separable count")
    p.add_argument("--mode", choices=modes, default="leq")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--decimal", type=int, default=None, metavar="DIGITS")

    p = add("proportion", _cmd_proportion,
            help="proportion of monic degree-d polynomials that are separable")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, default=2)
    p.add_argument("--decimal", type=int, default=None, metavar="DIGITS")

    p = add("enumerate", _cmd_enumerate, help="brute-force separable count")
    p.add_argument("--mode", choices=modes, default="leq")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--crt", action="store_true",
                   help="enumerate prime-power components and multiply")

    p = add("verify", _cmd_verify,
            help="compare formulas against the oracle for all d <= d-max")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p.add_argument("--workers", type=int, default=1)

    p = add("table", _cmd_table, help="counts over ranges of n and d")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--mode", choices=modes, default="leq")
    p.add_argument("--format", choices=["csv", "jsonl"], default="csv")

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except SystemExit as e:  # --help
        return int(e.code or 0)
    try:
        return args.func(args)
    except PolyParseError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 2


def main():
    try:
        status = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as e:  # a failed write to stdout; a closed pipe is silent
        if not isinstance(e, BrokenPipeError):
            print(f"output error: {e}", file=sys.stderr)
        # What stdout still holds goes nowhere at exit, not to a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
