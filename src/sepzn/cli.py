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
import signal
import sys

from . import census, oracle
from .arith import DomainError, Modulus, factorize
from .poly import PolyParseError, parse
from .septest import discriminant, is_separable, trace_form


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)  # the (sub-)parser that failed


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


def _record(args) -> int:
    """Every command of one record: the sub-parser's record(args, m), for
    m = Modulus(n), gives the inputs after n, the result and the
    provenance."""
    m = Modulus(args.n)
    inputs, result, provenance = args.record(args, m)
    _emit(args.command, {"n": m.n, **inputs}, result, provenance)
    return 0


def _factor(args, m):
    return {}, {"type": "factorization",
                "factors": [list(f) for f in m.factors]}, "formula"


def _poly(args, m):
    """check, disc or trace-form: the sub-parser's result(f), for f mod n."""
    f = parse(args.poly, m)
    return {"polynomial": str(f)}, args.result(f), "formula"


def _count(args, m):
    mode = census.Mode(args.mode)
    start, stop = census.window(m.n, args.d, mode)
    count = census.count(m, args.d, mode)
    return ({"d": args.d, "mode": mode.value},
            {"type": "count", "value": count, "total": stop - start,
             **_rational("proportion", count, stop - start, args.decimal)},
            "formula")


def _proportion(args, m):
    value = census.proportion_monic_separable(m, args.d)
    return {"d": args.d}, {"type": "rational", **_rational(
        "value", value.numerator, value.denominator, args.decimal)}, "formula"


def _enumerate(args, m):
    mode = census.Mode(args.mode)
    count = (oracle.crt_product_count if args.crt else oracle.enumerate_count)(
        m, args.d, mode, budget=args.budget, workers=args.workers)
    return ({"d": args.d, "mode": mode.value, "crt": args.crt},
            {"type": "count", "value": count}, "enumeration")


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
    # One template per command for all of one n's rows, each filled with n,
    # d, mode, count and count/size in lowest terms: the rows csv.writer (excel
    # dialect) writes for these quote-free fields, or the lines _emit writes.
    write, name = sys.stdout.write, mode.value
    if args.format == "csv":
        write("n,d,mode,count,proportion\r\n")
        rows = "%d,%d,%s,%d,%d/%d\r\n" * len(ds)
    else:
        rows = ('{"command": "table", "inputs": {"n": %d, "d": %d, '
                '"mode": "%s"}, "result": {"type": "count", "value": %d, '
                '"proportion": "%d/%d"}, "provenance": "formula"}\n') * len(ds)
    for n, counts in census._counts_by_n(ns, ds, mode) if ds else ():
        start, stop = census.window(n, args.d_min, mode)
        size, fields = stop - start, []  # n times larger at each next d
        for d, count in zip(ds, counts):
            g = math.gcd(count, size)
            fields += n, d, name, count, count // g, size // g
            size *= n
        write(rows % tuple(fields))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run."""
    parser = _Parser(prog="sepzn",
                     description="Separable polynomials over Z/n: decision "
                                 "procedures, counting formulas, and a "
                                 "brute-force verification oracle.")
    sub = parser.add_subparsers(dest="command", required=True)
    whole = dict(type=int, required=True)
    # Every option two commands share, declared once.
    shared = {"-n": whole, "-d": whole, "--d-max": whole,
              "-f": dict(dest="poly", required=True,
                         help="polynomial, e.g. '3x^2+x+5' or '5,1,3'"),
              "--mode": dict(choices=[m.value for m in census.Mode],
                             default="leq"),
              "--decimal": dict(type=int, default=None, metavar="DIGITS"),
              "--budget": dict(type=int, default=oracle.DEFAULT_BUDGET),
              "--workers": dict(type=int, default=1)}

    def add(name, text, options, func=_record, **defaults):
        """Sub-command name with its options in order: names of shared ones
        or (name, spec) pairs of its own."""
        p = sub.add_parser(name, help=text)
        p.set_defaults(command=name, func=func, **defaults)
        for option in options:
            flag, spec = ((option, shared[option]) if isinstance(option, str)
                          else option)
            p.add_argument(flag, **spec)

    add("factor", "prime factorization of n", ["-n"], record=_factor)
    for name, text, result in [
            ("check", "decide separability of a polynomial",
             lambda f: {"type": "bool", "value": is_separable(f)}),
            ("disc", "trace-form discriminant of a monic polynomial",
             lambda f: {"type": "residue", "value": discriminant(f),
                        "modulus": f.modulus.n}),
            ("trace-form", "trace-form matrix of a monic polynomial",
             lambda f: {"type": "matrix", "modulus": f.modulus.n,
                        "entries": [list(row) for row in trace_form(f)]})]:
        add(name, text, ["-n", "-f"], record=_poly, result=result)
    add("count", "closed-form separable count",
        ["--mode", "-n", "-d", "--decimal"], record=_count)
    add("proportion",
        "proportion of monic degree-d polynomials that are separable",
        ["-n", ("-d", dict(type=int, default=2)), "--decimal"],
        record=_proportion)
    add("enumerate", "brute-force separable count",
        ["--mode", "-n", "-d", "--budget", "--workers",
         ("--crt", dict(action="store_true", help="enumerate prime-power "
                        "components and multiply"))], record=_enumerate)
    add("verify", "compare formulas against the oracle for all d <= d-max",
        ["-n", "--d-max", "--budget", "--workers"], _cmd_verify)
    add("table", "counts over ranges of n and d",
        [("--n-min", whole), ("--n-max", whole), ("--d-min", whole),
         "--d-max", "--mode",
         ("--format", dict(choices=["csv", "jsonl"], default="csv"))],
        _cmd_table)

    parser.commands = sub.choices  # name -> sub-parser
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """parse_args(argv), with a known sub-command read by its own parser
    alone; what it leaves is refused by the top-level parser, as parse_args
    refuses it."""
    parser = build_parser()
    if not argv or argv[0] not in parser.commands:
        return parser.parse_args(argv)  # no argv, -h or an unknown command
    args, extra = parser.commands[argv[0]].parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def run(argv: list[str]) -> int:
    try:
        args = _parse(argv)
    except _UsageError as e:
        failed, message = e.args
        print(f"usage error: {message}", file=sys.stderr)
        failed.print_usage(sys.stderr)
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
    except KeyboardInterrupt:
        # The records printed so far stay, one line says the run was cut,
        # and the process ends by SIGINT, the status a shell expects.
        sys.stdout.flush()
        print("interrupted", file=sys.stderr)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)
    except OSError as e:  # a failed write to stdout; a closed pipe is silent
        if not isinstance(e, BrokenPipeError):
            print(f"output error: {e}", file=sys.stderr)
        # What stdout still holds goes nowhere at exit, not to a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
